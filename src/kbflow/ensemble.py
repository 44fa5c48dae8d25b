"""Ensemble Kalman-Bucy filters and their law-level diffusions.

Three interacting particle systems approximate the exact filter:

* ``vanilla`` — perturbed observations: every particle receives its own
  copy of the sensor noise inside the innovation (noise intensity
  parameter ``kappa = 1``);
* ``deterministic`` — the half-averaged innovation ``H(X^i + X_bar)/2``
  with no per-particle sensor noise (``kappa = 0``);
* ``transport`` — a fully deterministic update (given the observations):
  the sampling noise is replaced by the transport drift
  ``(1/2) R P_hat^+ (X^i - X_bar)``.

The module also provides their law-level description — coupled SDEs for
the sample mean, the sample covariance (a Riccati diffusion), and the error
— plus covariance inflation, the stochastic closed-loop semigroup along a
covariance path, and a heuristic nonlinear extension.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _ode
from .errors import BoundNotApplicable, NonFinite
from .kalman import TRUTH_INIT, TRUTH_OBS, TRUTH_SIGNAL, RiccatiState, _mobius_flow
from .model import LinearGaussianModel, log_norm, symmetric_sqrt
from .sde import NoiseStream, Scheme, TimeGrid, project_psd

#: Singular-value cutoff (relative to the largest) for the transport
#: pseudo-inverse of the sample covariance.
PINV_RCOND = 1e-10

PARTICLE_INIT = "particle-init"
PARTICLE_SIGNAL = "particle-signal"
PARTICLE_OBS = "particle-obs"
MEAN_DRIVER = "mean-driver"
MATRIX_DRIVER = "matrix-driver"


class Variant(enum.Enum):
    """The three ensemble filter variants."""

    VANILLA = "vanilla"
    DETERMINISTIC = "deterministic"
    TRANSPORT = "transport"

    @classmethod
    def parse(cls, value) -> "Variant":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            names = ", ".join(v.value for v in cls)
            raise ValueError(f"unknown variant {value!r}; expected one of: {names}")

    @property
    def kappa(self) -> float | None:
        """Noise intensity of the law-level covariance diffusion (None for
        transport, whose covariance path is deterministic)."""
        if self is Variant.VANILLA:
            return 1.0
        if self is Variant.DETERMINISTIC:
            return 0.0
        return None


@dataclass(frozen=True)
class Inflation:
    """Covariance inflation: the gain uses ``P_hat + xi*T`` instead of
    ``P_hat``.  ``T = None`` means the identity reference matrix."""

    xi: float
    T: np.ndarray | None = None

    def __post_init__(self):
        if not (self.xi >= 0):
            raise ValueError(f"inflation strength xi must be >= 0, got {self.xi}")
        if self.T is not None:
            T = np.asarray(self.T, dtype=float)
            if T.ndim != 2 or T.shape[0] != T.shape[1]:
                raise ValueError("inflation reference T must be a square matrix")
            object.__setattr__(self, "T", 0.5 * (T + T.T))

    def ref(self, d: int) -> np.ndarray:
        return np.eye(d) if self.T is None else self.T

    @property
    def active(self) -> bool:
        return self.xi > 0


@dataclass
class EnsembleState:
    """Particle cloud at one time: ``particles`` is d x (N+1), one column
    per particle."""

    t: float
    particles: np.ndarray
    variant: Variant
    inflation: Inflation | None = None

    def __post_init__(self):
        self.particles = np.asarray(self.particles, dtype=float)
        self.variant = Variant.parse(self.variant)
        if self.particles.ndim != 2 or self.particles.shape[1] < 2:
            raise ValueError("particles must be d x (N+1) with N >= 1")
        if not np.all(np.isfinite(self.particles)):
            raise ValueError("particles contain non-finite entries")

    @property
    def N(self) -> int:
        return self.particles.shape[1] - 1

    @property
    def d(self) -> int:
        return self.particles.shape[0]


@dataclass
class SampleStats:
    """Sample mean, rescaled sample covariance, and (optionally) the
    observation cross-covariance of a particle cloud."""

    X_hat: np.ndarray
    P_hat: np.ndarray
    N: int
    P_hat_h: np.ndarray | None = None


def sample_stats(particles: np.ndarray, h=None) -> SampleStats:
    """Statistics of a d x (N+1) cloud.

    The covariance uses divisor ``N`` — i.e. ``(N+1)/N`` times the
    covariance of the uniform empirical measure — so that a cloud drawn
    i.i.d. from a law with covariance P has ``E[P_hat] = P``.  When an
    observation evaluator ``h`` (columnwise: maps d x M to d_y x M) is
    supplied, the cross-covariance ``(1/N) sum (X^i - X_bar)(h(X^i) -
    h_bar)'`` is included.
    """
    particles = np.asarray(particles, dtype=float)
    if particles.ndim != 2 or particles.shape[1] < 2:
        raise ValueError("particles must be d x (N+1) with N >= 1")
    N = particles.shape[1] - 1
    X_hat = particles.mean(axis=1)
    dev = particles - X_hat[:, None]
    P_hat = project_psd(dev @ dev.T / N)
    P_hat_h = None
    if h is not None:
        h_vals = np.asarray(h(particles), dtype=float)
        if h_vals.ndim != 2 or h_vals.shape[1] != particles.shape[1]:
            raise ValueError("observation evaluator must map d x M to d_y x M")
        h_dev = h_vals - h_vals.mean(axis=1)[:, None]
        P_hat_h = dev @ h_dev.T / N
    return SampleStats(X_hat=X_hat, P_hat=P_hat, N=N, P_hat_h=P_hat_h)


@dataclass
class EnsembleStreams:
    """Noise channels of a particle run: per-particle signal noise and (for
    the vanilla variant) per-particle sensor noise."""

    signal: NoiseStream
    obs: NoiseStream

    @classmethod
    def from_seed(cls, master_seed: int, trial: int = 0) -> "EnsembleStreams":
        return cls(
            signal=NoiseStream(master_seed, trial, PARTICLE_SIGNAL),
            obs=NoiseStream(master_seed, trial, PARTICLE_OBS),
        )


# ---------------------------------------------------------------------------
# particle stepping
# ---------------------------------------------------------------------------

def _heuristic_step(a, h, sqrt_R, sqrt_R1, R1_inv, R, particles, variant,
                    dY, dt, streams):
    """Shared Euler kernel: one step of the interacting system with drift
    evaluator ``a`` and observation evaluator ``h`` (both columnwise)."""
    d, M = particles.shape
    N = M - 1
    d_y = R1_inv.shape[0]
    X_hat = particles.mean(axis=1)
    dev = particles - X_hat[:, None]
    h_vals = np.asarray(h(particles), dtype=float)
    h_bar = h_vals.mean(axis=1)
    h_dev = h_vals - h_bar[:, None]
    P_hat_h = dev @ h_dev.T / N
    gain = P_hat_h @ R1_inv

    drift = np.asarray(a(particles), dtype=float) * dt
    if variant is Variant.VANILLA:
        dW = streams.obs.increments((d_y, M), dt)
        innov = dY[:, None] - h_vals * dt - sqrt_R1 @ dW
        noise = sqrt_R @ streams.signal.increments((d, M), dt)
    elif variant is Variant.DETERMINISTIC:
        innov = dY[:, None] - 0.5 * (h_vals + h_bar[:, None]) * dt
        noise = sqrt_R @ streams.signal.increments((d, M), dt)
    else:  # transport: no sampling noise; transport drift replaces it
        P_hat = dev @ dev.T / N
        innov = dY[:, None] - 0.5 * (h_vals + h_bar[:, None]) * dt
        noise = 0.5 * (R @ np.linalg.pinv(P_hat, rcond=PINV_RCOND)) @ dev * dt
    return particles + drift + noise + gain @ innov


def _inflated_linear_step(model, particles, variant, inflation, dY, dt, streams):
    """One Euler step of the inflated vanilla/deterministic systems: the
    gain is ``(P_hat + xi*T) H' R1^{-1}``."""
    d, M = particles.shape
    N = M - 1
    X_hat = particles.mean(axis=1)
    dev = particles - X_hat[:, None]
    P_hat = dev @ dev.T / N
    P_gain = P_hat + inflation.xi * inflation.ref(d)
    gain = P_gain @ model.H.T @ model.R1_inv

    H_vals = model.H @ particles
    drift = (model.A @ particles) * dt
    noise = model.sqrt_R @ streams.signal.increments((d, M), dt)
    if variant is Variant.VANILLA:
        dW = streams.obs.increments((model.d_y, M), dt)
        innov = dY[:, None] - H_vals * dt - model.sqrt_R1 @ dW
    else:
        H_bar = H_vals.mean(axis=1)
        innov = dY[:, None] - 0.5 * (H_vals + H_bar[:, None]) * dt
    return particles + drift + noise + gain @ innov


def step_particles(model: LinearGaussianModel, state: EnsembleState, dY, dt: float,
                   streams: EnsembleStreams) -> EnsembleState:
    """One Euler step of the chosen interacting particle system.

    The vanilla variant draws per-particle sensor noise; deterministic and
    transport use the half-averaged innovation and no per-particle sensor
    noise; transport additionally replaces the per-particle signal noise by
    its deterministic transport drift.  With inflation active (vanilla or
    deterministic only) the gain uses ``P_hat + xi*T``.

    Raises
    ------
    NonFinite
        If any particle entry stops being finite (catastrophic divergence).
    """
    dY = np.asarray(dY, dtype=float).reshape(model.d_y)
    variant = state.variant
    inflation = state.inflation
    if inflation is not None and inflation.active:
        if variant is Variant.TRANSPORT:
            raise ValueError("inflation applies to the vanilla/deterministic variants only")
        new = _inflated_linear_step(model, state.particles, variant, inflation,
                                    dY, dt, streams)
    else:
        new = _heuristic_step(
            lambda X: model.A @ X,
            lambda X: model.H @ X,
            model.sqrt_R, model.sqrt_R1, model.R1_inv, model.R,
            state.particles, variant, dY, dt, streams,
        )
    if not np.all(np.isfinite(new)):
        raise NonFinite(step=-1, t=state.t + dt, what=f"{variant.value} ensemble")
    return EnsembleState(t=state.t + dt, particles=new, variant=variant,
                         inflation=inflation)


def nonlinear_step(a, h, noise, state: EnsembleState, dY, dt: float,
                   streams: EnsembleStreams, variant=None) -> EnsembleState:
    """One Euler step of the heuristic nonlinear ensemble.

    ``a`` and ``h`` are columnwise evaluators (map d x M arrays to d x M /
    d_y x M); ``noise = (R, R1)`` are the signal/sensor noise covariances.
    The gain is the sample cross-covariance ``P_hat_h R1^{-1}``; for linear
    ``a(x) = Ax``, ``h(x) = Hx`` the step reproduces :func:`step_particles`
    bitwise under shared streams.  No limiting theory is claimed for
    nonlinear evaluators — this is a simulator only.
    """
    R, R1 = (np.asarray(M, dtype=float) for M in noise)
    variant = state.variant if variant is None else Variant.parse(variant)
    if state.inflation is not None and state.inflation.active:
        raise ValueError("inflation is defined for the linear particle systems only")
    dY = np.asarray(dY, dtype=float).reshape(R1.shape[0])
    R1_inv = np.linalg.inv(R1)
    R1_inv = 0.5 * (R1_inv + R1_inv.T)
    new = _heuristic_step(a, h, symmetric_sqrt(R), symmetric_sqrt(R1), R1_inv, R,
                          state.particles, variant, dY, dt, streams)
    if not np.all(np.isfinite(new)):
        raise NonFinite(step=-1, t=state.t + dt, what="nonlinear ensemble")
    return EnsembleState(t=state.t + dt, particles=new, variant=variant,
                         inflation=state.inflation)


# ---------------------------------------------------------------------------
# initial clouds
# ---------------------------------------------------------------------------

def iid_gaussian_init(m0, P0):
    """Sampler drawing N+1 particles i.i.d. from N(m0, P0)."""
    m0 = np.atleast_1d(np.asarray(m0, dtype=float))
    root = symmetric_sqrt(np.asarray(P0, dtype=float))

    def sampler(stream: NoiseStream, N: int) -> np.ndarray:
        return m0[:, None] + root @ stream.normals((m0.size, N + 1))

    return sampler


def moment_matched_init(m0, P0):
    """Sampler whose cloud has sample mean m0 and sample covariance P0
    *exactly* (requires N >= d): a standard Gaussian cloud is centered and
    re-whitened.  Useful when the initial sample statistics must equal
    given values rather than merely target them in expectation."""
    m0 = np.atleast_1d(np.asarray(m0, dtype=float))
    root = symmetric_sqrt(np.asarray(P0, dtype=float))
    d = m0.size

    def sampler(stream: NoiseStream, N: int) -> np.ndarray:
        if N < d:
            raise ValueError(f"moment matching requires N >= d, got N={N}, d={d}")
        G = stream.normals((d, N + 1))
        G = G - G.mean(axis=1)[:, None]
        C = G @ G.T / N
        w, V = np.linalg.eigh(C)
        whiten = (V / np.sqrt(w)) @ V.T
        return m0[:, None] + (root @ whiten) @ G

    return sampler


# ---------------------------------------------------------------------------
# trajectory records
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryRecord:
    """Per-grid-point records of a filter run.

    ``mean``/``cov``/``error`` hold the (sample) mean, (sample) covariance
    and realized error ``mean - signal``; ``mu_closed_loop`` is the
    logarithmic norm of ``A - P S`` along the run.  After a catastrophic
    divergence at ``diverged_at``, remaining rows are NaN.
    """

    t: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    error: np.ndarray
    mu_closed_loop: np.ndarray
    variant: str
    N: int | None = None
    xi: float = 0.0
    kappa: float | None = None
    diverged_at: float | None = None
    seed: int | None = None


def _truth_streams(seed: int):
    return (NoiseStream(seed, 0, TRUTH_INIT),
            NoiseStream(seed, 0, TRUTH_SIGNAL),
            NoiseStream(seed, 0, TRUTH_OBS))


def _split_seeds(seeds):
    if isinstance(seeds, (tuple, list)):
        truth_seed, particle_seed = seeds
    else:
        truth_seed = particle_seed = int(seeds)
    return int(truth_seed), int(particle_seed)


def run_enkf(model: LinearGaussianModel, variant, N: int, grid: TimeGrid, seeds,
             x_init_sampler=None, inflation: Inflation | None = None,
             m0=None, P0=None) -> TrajectoryRecord:
    """Simulate one ensemble filter run against a co-simulated truth.

    The signal and observations come from the same channels as
    :func:`kbflow.kalman.kalman_run` given the same truth seed, so paired
    exact/ensemble comparisons share them bit-exactly.

    Parameters
    ----------
    variant : Variant or str
    N : int
        Ensemble parameter; the cloud has N+1 particles.
    seeds : int or (truth_seed, particle_seed)
        One master seed for both roles, or separate seeds.
    x_init_sampler : callable, optional
        ``sampler(stream, N) -> d x (N+1)`` initial cloud; defaults to
        i.i.d. N(m0, P0) draws.
    inflation : Inflation, optional
    m0, P0 : optional
        Gaussian parameters for the default initial cloud *and* for the
        simulated signal's initial condition (defaults: 0 and identity).

    Returns
    -------
    TrajectoryRecord
        With ``diverged_at`` set (and NaN rows after it) if the cloud
        stopped being finite; this is a recorded outcome, not an exception.
    """
    variant = Variant.parse(variant)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    d = model.d
    m0 = np.zeros(d) if m0 is None else np.asarray(m0, dtype=float).reshape(d)
    P0 = np.eye(d) if P0 is None else project_psd(np.asarray(P0, dtype=float))
    truth_seed, particle_seed = _split_seeds(seeds)

    init_stream, signal, obs = _truth_streams(truth_seed)
    truth = m0 + symmetric_sqrt(P0) @ init_stream.normals(d)
    streams = EnsembleStreams.from_seed(particle_seed)
    sampler = iid_gaussian_init(m0, P0) if x_init_sampler is None else x_init_sampler
    cloud = sampler(NoiseStream(particle_seed, 0, PARTICLE_INIT), N)
    state = EnsembleState(t=grid.t0, particles=cloud, variant=variant,
                          inflation=inflation)

    times = grid.times()
    K = grid.steps
    rec_mean = np.full((K + 1, d), np.nan)
    rec_cov = np.full((K + 1, d, d), np.nan)
    rec_err = np.full((K + 1, d), np.nan)
    rec_mu = np.full(K + 1, np.nan)

    def record(k, particles, truth_now) -> bool:
        # the cloud can be finite while its second moments overflow; both
        # count as the recorded divergence event, not as an error
        with np.errstate(over="ignore", invalid="ignore"):
            stats = sample_stats(particles)
            closed = model.closed_loop(stats.P_hat)
            if not (np.all(np.isfinite(stats.X_hat)) and np.all(np.isfinite(closed))):
                return False
            rec_mean[k] = stats.X_hat
            rec_cov[k] = stats.P_hat
            rec_err[k] = stats.X_hat - truth_now
            rec_mu[k] = log_norm(closed)
        return True

    record(0, state.particles, truth)
    diverged_at = None
    dt = grid.dt
    for k in range(K):
        dV = signal.increments(d, dt)
        dW = obs.increments(model.d_y, dt)
        dY = model.H @ truth * dt + model.sqrt_R1 @ dW
        try:
            # overflow is the mechanism of a catastrophic divergence, which
            # is recorded rather than raised
            with np.errstate(over="ignore", invalid="ignore"):
                state = step_particles(model, state, dY, dt, streams)
        except NonFinite:
            diverged_at = float(times[k + 1])
            break
        truth = truth + dt * (model.A @ truth) + model.sqrt_R @ dV
        if not np.all(np.isfinite(truth)):
            diverged_at = float(times[k + 1])
            break
        if not record(k + 1, state.particles, truth):
            diverged_at = float(times[k + 1])
            break

    return TrajectoryRecord(
        t=times, mean=rec_mean, cov=rec_cov, error=rec_err, mu_closed_loop=rec_mu,
        variant=variant.value, N=N,
        xi=0.0 if inflation is None else inflation.xi,
        kappa=variant.kappa, diverged_at=diverged_at, seed=truth_seed,
    )


# ---------------------------------------------------------------------------
# law-level simulation
# ---------------------------------------------------------------------------

@dataclass
class LawStreams:
    """Noise channels of a law-level run: the mean's ensemble-noise driver
    and the covariance diffusion's matrix driver."""

    mean_driver: NoiseStream
    matrix_driver: NoiseStream

    @classmethod
    def from_seed(cls, master_seed: int, trial: int = 0) -> "LawStreams":
        return cls(
            mean_driver=NoiseStream(master_seed, trial, MEAN_DRIVER),
            matrix_driver=NoiseStream(master_seed, trial, MATRIX_DRIVER),
        )


def sigma_kappa(model: LinearGaussianModel, kappa: float, P,
                inflation: Inflation | None = None) -> np.ndarray:
    """The noise covariance map of the law-level equations:
    ``R + kappa * (P + xi*T) S (P + xi*T)`` (xi = 0 without inflation)."""
    P = np.asarray(P, dtype=float)
    if inflation is not None and inflation.active:
        P = P + inflation.xi * inflation.ref(model.d)
    out = model.R + kappa * (P @ model.S @ P)
    return 0.5 * (out + out.T)


def _inflated_drift_terms(model, kappa, inflation):
    """``(A_mod, source)`` of the inflated covariance drift: A shifted by
    ``-((1-kappa)/2) xi T S`` and the extra source ``kappa xi^2 T S T``
    (``(A, 0)`` without active inflation)."""
    if inflation is None or not inflation.active:
        return model.A, 0.0
    T = inflation.ref(model.d)
    xi = inflation.xi
    A_mod = model.A - 0.5 * (1.0 - kappa) * xi * (T @ model.S)
    return A_mod, kappa * xi * xi * (T @ model.S @ T)


def _inflated_ricc_drift(model, kappa, inflation, P):
    """Deterministic covariance drift under inflation: the nominal Riccati
    drift with A shifted by -((1-kappa)/2) xi T S, plus kappa xi^2 T S T."""
    A_mod, source = _inflated_drift_terms(model, kappa, inflation)
    out = A_mod @ P + P @ A_mod.T - P @ model.S @ P + model.R + source
    return 0.5 * (out + out.T)


def law_level_run(model: LinearGaussianModel, kappa: float, Q, x0, grid: TimeGrid,
                  N: int, streams=None, inflation: Inflation | None = None,
                  scheme=None, m0=None, P0=None, truth_seed=None) -> TrajectoryRecord:
    """Simulate the law-level mean/covariance/error system (no particles).

    The sample covariance evolves as a Riccati diffusion
    ``dP = Ricc(P) dt + (2/sqrt(N)) [P^{1/2} dM Sigma_kappa^{1/2}(P)]_sym``
    and the sample mean as the gain-driven SDE with ensemble-noise intensity
    ``Sigma_kappa^{1/2}/sqrt(N+1)``; the error is the mean minus the
    co-simulated signal.  Law equivalence with particle runs is a test
    target, not a pathwise identity.

    Parameters
    ----------
    kappa : {0, 1}
        Noise intensity parameter (1 matches vanilla, 0 deterministic).
    Q : initial covariance (PSD); x0 : initial mean.
    N : ensemble parameter entering the noise scales.
    streams : int, LawStreams, or None
        Drivers for the ensemble noise; an int seeds fresh channels
        (defaults to ``truth_seed``).
    scheme : Scheme, optional
        Defaults to tamed Euler for kappa=1 (superlinear covariance
        diffusion) and plain Euler-Maruyama otherwise; taming acts on the
        covariance drift only.
    truth_seed : int, optional
        Seed of the co-simulated signal/observation channels (defaults to
        the integer ``streams`` seed; one of the two must be given).
    """
    if kappa not in (0, 1, 0.0, 1.0):
        raise ValueError(f"kappa must be 0 or 1, got {kappa}")
    kappa = float(kappa)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    d = model.d
    if truth_seed is None:
        if not isinstance(streams, (int, np.integer)):
            raise ValueError("provide truth_seed or an integer streams seed")
        truth_seed = int(streams)
    if streams is None:
        streams = int(truth_seed)
    if isinstance(streams, (int, np.integer)):
        streams = LawStreams.from_seed(int(streams))
    scheme = (Scheme.TAMED_EULER if kappa == 1.0 else Scheme.EULER_MARUYAMA) \
        if scheme is None else Scheme.parse(scheme)

    m0 = np.zeros(d) if m0 is None else np.asarray(m0, dtype=float).reshape(d)
    P0 = (project_psd(np.asarray(Q, dtype=float)) if P0 is None
          else project_psd(np.asarray(P0, dtype=float)))
    x = np.asarray(x0, dtype=float).reshape(d)
    P = project_psd(np.asarray(Q, dtype=float))

    init_stream, signal, obs = _truth_streams(truth_seed)
    truth = m0 + symmetric_sqrt(P0) @ init_stream.normals(d)

    times = grid.times()
    K = grid.steps
    dt = grid.dt
    sqdt_mean = 1.0 / math.sqrt(N + 1)
    noise_scale = 2.0 / math.sqrt(N)

    rec_mean = np.full((K + 1, d), np.nan)
    rec_cov = np.full((K + 1, d, d), np.nan)
    rec_err = np.full((K + 1, d), np.nan)
    rec_mu = np.full(K + 1, np.nan)

    def record(k):
        rec_mean[k] = x
        rec_cov[k] = P
        rec_err[k] = x - truth
        rec_mu[k] = log_norm(model.closed_loop(P))

    record(0)
    diverged_at = None
    xi_T = None
    if inflation is not None and inflation.active:
        xi_T = inflation.xi * inflation.ref(d)
    for k in range(K):
        dV = signal.increments(d, dt)
        dW = obs.increments(model.d_y, dt)
        dY = model.H @ truth * dt + model.sqrt_R1 @ dW

        # overflow is the mechanism of a catastrophic divergence (recorded,
        # not warned); eigh refusing a non-finite matrix means the same
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                sig = sigma_kappa(model, kappa, P, inflation)
                sig_root = symmetric_sqrt(project_psd(sig))
                P_gain = P if xi_T is None else P + xi_T
                gain = P_gain @ model.H.T @ model.R1_inv

                dB = streams.mean_driver.increments(d, dt)
                x_new = x + dt * (model.A @ x) + gain @ (dY - model.H @ x * dt) \
                    + sqdt_mean * (sig_root @ dB)

                drift_P = _inflated_ricc_drift(model, kappa, inflation, P)
                if scheme is Scheme.TAMED_EULER:
                    drift_P = drift_P / (1.0 + dt * float(np.linalg.norm(drift_P)))
                dM = streams.matrix_driver.increments((d, d), dt)
                wing = symmetric_sqrt(P) @ dM @ sig_root
                P_new = P + dt * drift_P + noise_scale * 0.5 * (wing + wing.T)
                P_new = project_psd(P_new)
        except np.linalg.LinAlgError:
            diverged_at = float(times[k + 1])
            break

        truth = truth + dt * (model.A @ truth) + model.sqrt_R @ dV
        if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(P_new))
                and np.all(np.isfinite(truth))):
            diverged_at = float(times[k + 1])
            break
        x, P = x_new, P_new
        record(k + 1)

    return TrajectoryRecord(
        t=times, mean=rec_mean, cov=rec_cov, error=rec_err, mu_closed_loop=rec_mu,
        variant="law", N=N, xi=0.0 if inflation is None else inflation.xi,
        kappa=kappa, diverged_at=diverged_at, seed=int(truth_seed),
    )


# ---------------------------------------------------------------------------
# stochastic semigroup along a covariance path
# ---------------------------------------------------------------------------

@dataclass
class StochasticSemigroup:
    """Closed-loop propagator along a (sampled) covariance path, with the
    accumulated logarithmic-norm integral and the empirical log-rate."""

    s: float
    t: float
    E_hat: np.ndarray
    log_norm_integral: float
    trace_integral: float

    @property
    def log_rate(self) -> float:
        """(1/(t-s)) log ||E_hat|| — the empirical exponential rate."""
        span = self.t - self.s
        if span == 0:
            return 0.0
        return float(np.log(np.linalg.norm(self.E_hat, 2)) / span)


def stochastic_semigroup(model: LinearGaussianModel, path, s: float, t: float) -> StochasticSemigroup:
    """Integrate ``dE/du = (A - P_hat_u S) E`` along a recorded covariance path.

    ``path`` is a :class:`TrajectoryRecord` or a ``(times, covs)`` pair; the
    covariance is interpolated piecewise-linearly between its nodes, and the
    integrator steps node-to-node (RK4), so the generator is smooth within
    every step.  Also accumulates ``int mu(A - P_hat S) du`` (logarithmic
    norm, by Simpson per interval) and ``int Tr(A - P_hat S) du`` (exact for
    the interpolant), whose exponential equals ``det E_hat``.
    """
    if isinstance(path, TrajectoryRecord):
        times, covs = path.t, path.cov
    else:
        times, covs = path
    times = np.asarray(times, dtype=float)
    covs = np.asarray(covs, dtype=float)
    if not (times[0] <= s <= t <= times[-1]):
        raise ValueError(f"[{s}, {t}] not covered by the path [{times[0]}, {times[-1]}]")
    if not np.all(np.isfinite(covs)):
        raise ValueError("covariance path contains non-finite entries (diverged run?)")
    d = model.d
    E = np.eye(d)
    if t == s:
        return StochasticSemigroup(s=s, t=t, E_hat=E, log_norm_integral=0.0,
                                   trace_integral=0.0)

    def P_at(u):
        i = np.searchsorted(times, u, side="right") - 1
        i = min(max(i, 0), len(times) - 2)
        w = (u - times[i]) / (times[i + 1] - times[i])
        return (1.0 - w) * covs[i] + w * covs[i + 1]

    # integration nodes: path nodes intersected with [s, t], plus endpoints
    inner = times[(times > s) & (times < t)]
    nodes = np.concatenate([[s], inner, [t]])
    mu_int = 0.0
    tr_int = 0.0
    trA = float(np.trace(model.A))
    for u0, u1 in zip(nodes[:-1], nodes[1:]):
        h = u1 - u0
        if h <= 0:
            continue
        P0, P1 = P_at(u0), P_at(u1)
        Pm = 0.5 * (P0 + P1)

        def G(u):
            w = (u - u0) / h
            return model.A - ((1.0 - w) * P0 + w * P1) @ model.S

        E = _ode.rk4_step(lambda u, Y: G(u) @ Y, u0, E, h)
        mu0 = log_norm(model.A - P0 @ model.S)
        mu_m = log_norm(model.A - Pm @ model.S)
        mu1 = log_norm(model.A - P1 @ model.S)
        mu_int += (h / 6.0) * (mu0 + 4.0 * mu_m + mu1)
        tr_int += h * (trA - 0.5 * float(np.trace((P0 + P1) @ model.S)))
    return StochasticSemigroup(s=float(s), t=float(t), E_hat=E,
                               log_norm_integral=float(mu_int),
                               trace_integral=float(tr_int))


def liouville_bound(model: LinearGaussianModel, n: int, N: int, kappa: float) -> float:
    """Finite-N decay-rate bound ``sqrt(Tr(R_n S_n))`` for the n-th moment
    of ``det E_hat``, with the sampling-corrected coefficients
    ``R_n = R (1 - (2n+d+1)/N)`` and ``S_n = S (1 - kappa (2n+d+1)/N)``.

    Raises
    ------
    BoundNotApplicable
        If ``(2n+d+1)/N >= 1`` (the correction wipes out the coefficient).
    """
    if n < 1 or N < 1:
        raise ValueError("need n >= 1 and N >= 1")
    if kappa not in (0, 1, 0.0, 1.0):
        raise ValueError(f"kappa must be 0 or 1, got {kappa}")
    frac = (2 * n + model.d + 1) / N
    if frac >= 1.0:
        raise BoundNotApplicable(
            f"requires N > 2n+d+1 = {2 * n + model.d + 1}, got N={N}"
        )
    R_n = model.R * (1.0 - frac)
    S_n = model.S * (1.0 - float(kappa) * frac)
    return float(math.sqrt(np.trace(R_n @ S_n)))


def inflated_riccati_flow(model: LinearGaussianModel, kappa: float, Q,
                          grid: TimeGrid, inflation: Inflation) -> list[RiccatiState]:
    """Deterministic (large-N) limit of the inflated covariance flow.

    For kappa=1 the flow is the nominal Riccati drift plus the PSD source
    ``xi^2 T S T`` (so it dominates the nominal flow); for kappa=0 the drift
    matrix A is damped by ``-(xi/2) T S`` (the nominal flow dominates it at
    d=1 only: some random d=2 models break that ordering).  It is the
    Riccati equation with ``A - ((1-kappa)/2) xi T S`` and ``R + kappa xi^2
    T S T``, stepped by the exact propagator of
    :func:`~kbflow.kalman.riccati_flow`.
    """
    if kappa not in (0, 1, 0.0, 1.0):
        raise ValueError(f"kappa must be 0 or 1, got {kappa}")
    A_mod, source = _inflated_drift_terms(model, float(kappa), inflation)
    return _mobius_flow(A_mod, model.S, model.R + source, Q, grid)
