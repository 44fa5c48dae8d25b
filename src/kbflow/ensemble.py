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
covariance path, and a heuristic nonlinear extension.  Both kinds of run
are one-trial calls of the batch kernels in :mod:`kbflow._engines`; the
nonlinear extension steps a batch of clouds with the particle kernel's
update and noise blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _engines
from ._engines import (PARTICLE_INIT, PARTICLE_OBS, PARTICLE_SIGNAL, Variant,
                       _inflated_drift_terms)
from .errors import BoundNotApplicable
from .kalman import RiccatiPath, TrajectoryRecord, _kernel_record
from .model import (LinearGaussianModel, _check_covariance, _riccati_nodes, log_norm,
                    symmetric_sqrt)
from .sde import (NoiseStream, TimeGrid, _as_int, _as_kappa, _nonfinite_trials,
                  _project_psd_stack)


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
        """The reference matrix in dimension d."""
        if self.T is None:
            return np.eye(d)
        if self.T.shape != (d, d):
            raise ValueError(f"inflation reference T has shape {self.T.shape}, "
                             f"the model needs {(d, d)}")
        return self.T

    @property
    def active(self) -> bool:
        return self.xi > 0


# ---------------------------------------------------------------------------
# nonlinear ensemble
# ---------------------------------------------------------------------------

@_engines._quiet_divergence
def run_nonlinear(a, h, noise, X0, dY, dt: float, variant, seed: int):
    """Euler steps of the heuristic nonlinear ensemble, for a batch of clouds.

    ``a`` and ``h`` evaluate the drift and the observation on (B, d, M)
    stacks of clouds (to (B, d, M) and (B, d_y, M)); ``noise = (R, R1)`` are
    the signal/sensor noise covariances.  ``X0`` holds the B initial clouds,
    shape (B, d, N+1), and ``dY`` the observation increments, shape
    (K, B, d_y): row k drives step k of every cloud.  Each step is the
    particle update of :func:`run_enkf`, with the gain ``P_hat_h R1^{-1}``
    from the sample cross-covariance of the particles and their
    observations.  The particle noise is chunk 0 of ``seed``, on
    :func:`run_enkf`'s particle channels, so for linear ``a(x) = Ax``,
    ``h(x) = Hx`` and one cloud the steps are :func:`run_enkf`'s bit for
    bit.  No limiting theory is claimed for nonlinear evaluators; this is a
    simulator only.

    Returns ``(X, diverged_step)``: the final clouds, shape (B, d, N+1), and
    per cloud the step after which it stopped being finite (-1 if it never
    did).  A diverged cloud is frozen at NaN; that is a recorded outcome,
    not an exception.
    """
    variant = Variant.parse(variant)
    seed = _as_int("seed", seed)
    R, R1 = (np.asarray(M, dtype=float) for M in noise)
    X = np.array(X0, dtype=float)
    dY = np.asarray(dY, dtype=float)
    if X.ndim != 3 or X.shape[2] < 2:
        raise ValueError(f"X0 must be a (B, d, N+1) stack of clouds with N >= 1, "
                         f"got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("X0 contains non-finite entries")
    B, d, M = X.shape
    if R.shape != (d, d) or R1.ndim != 2 or R1.shape[0] != R1.shape[1]:
        raise ValueError(f"noise must be (R, R1) with R {d} x {d} and R1 square, "
                         f"got {R.shape} and {R1.shape}")
    d_y = R1.shape[0]
    if dY.ndim != 3 or dY.shape[1:] != (B, d_y):
        raise ValueError(f"dY must have shape (K, {B}, {d_y}), got {dY.shape}")
    K = dY.shape[0]
    R1_inv = np.linalg.inv(R1)
    R1_inv = 0.5 * (R1_inv + R1_inv.T)
    sqrt_R, sqrt_R1 = symmetric_sqrt(R), symmetric_sqrt(R1)
    p_sig = None if variant is Variant.TRANSPORT else NoiseStream(seed, 0, PARTICLE_SIGNAL)
    p_obs = NoiseStream(seed, 0, PARTICLE_OBS) if variant is Variant.VANILLA else None

    div = np.full(B, -1, dtype=int)
    X = _engines._trials_last(X, 0, drop_one=True)  # the kernels' (d, M, B) or (d, M)
    rows = _engines._step_rows(
        [(p_sig, (B, d, M)), (p_obs, (B, d_y, M))], K, dt,
        lambda dVi, dWi: (_engines._block_product(sqrt_R, dVi),
                          _engines._block_product(sqrt_R1, dWi)))
    for k, (sig_k, obs_k) in enumerate(rows):
        clouds = np.ascontiguousarray(_engines._trials_first(X))
        aX, hX = a(clouds), h(clouds)
        aX, hX, dY_k = ((aX[0], hX[0], dY[k].T) if B == 1 else
                        (aX.transpose(1, 2, 0), hX.transpose(1, 2, 0), dY[k].T[:, None]))
        X = _engines._particle_update(X, aX, hX, dY_k, 0.0 if sig_k is None else sig_k, dt,
                                      variant, R1_inv, obs_k, R)
        if _engines._freeze(div, _nonfinite_trials(X, view=_engines._trials_first), k, X,
                            view=_engines._trials_first):
            break
    X = np.ascontiguousarray(_engines._trials_first(X))
    return X, div


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


def _split_seeds(seeds):
    if isinstance(seeds, (tuple, list)):
        truth_seed, particle_seed = seeds
    else:
        truth_seed = particle_seed = seeds
    return _as_int("seeds", truth_seed), _as_int("seeds", particle_seed)


def run_enkf(model: LinearGaussianModel, variant, N: int, grid: TimeGrid, seeds,
             x_init_sampler=None, inflation: Inflation | None = None,
             m0=None, P0=None) -> TrajectoryRecord:
    """Simulate one ensemble filter run against a co-simulated truth.

    The signal and observations come from the same channels as
    :func:`kbflow.kalman.kalman_run` given the same truth seed, so paired
    exact/ensemble comparisons share them bit-exactly.  The run is chunk 0,
    of one trial, of :func:`kbflow._engines.particle_cov_paths_nd`.

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
        ``P0`` is checked: a wrong shape raises ``ValueError``, a non-finite
        or indefinite one ``NotPSD``.

    Returns
    -------
    TrajectoryRecord
        With ``diverged_at`` set (and NaN rows after it) if the cloud
        stopped being finite; this is a recorded outcome, not an exception.
    """
    variant = Variant.parse(variant)
    N = _as_int("N", N)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    d = model.d
    m0 = np.zeros(d) if m0 is None else np.asarray(m0, dtype=float).reshape(d)
    P0 = np.eye(d) if P0 is None else _check_covariance(P0, d, "P0")
    truth_seed, particle_seed = _split_seeds(seeds)
    init = "iid"
    if x_init_sampler is not None:
        cloud = np.asarray(x_init_sampler(NoiseStream(particle_seed, 0, PARTICLE_INIT), N),
                           dtype=float)
        if cloud.shape != (d, N + 1) or not np.all(np.isfinite(cloud)):
            raise ValueError(f"the initial cloud must be a finite {d} x {N + 1} array")
        init = cloud[None]

    out = _engines.particle_cov_paths_nd(
        model, variant, N=N, grid=grid, seed=particle_seed, trials=1, frame="absolute",
        m0=m0, P0=P0, init=init, truth_seed=truth_seed, inflation=inflation)
    with np.errstate(over="ignore", invalid="ignore"):
        cov = _project_psd_stack(out["cov"][0])
    return _kernel_record(
        model, grid, out["mean"][0], cov, out["error"][0], variant=variant.value, N=N,
        xi=0.0 if inflation is None else inflation.xi, kappa=variant.kappa,
        seed=truth_seed)


# ---------------------------------------------------------------------------
# law-level simulation
# ---------------------------------------------------------------------------

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
    streams : int, optional
        Seed of the ensemble-noise channels (the mean and matrix drivers of
        chunk 0 of :func:`kbflow._engines.law_cov_paths_nd`); defaults to
        ``truth_seed``.
    scheme : Scheme, optional
        Defaults to tamed Euler for kappa=1 (superlinear covariance
        diffusion) and plain Euler-Maruyama otherwise; taming acts on the
        covariance drift only.
    truth_seed : int, optional
        Seed of the co-simulated signal/observation channels (defaults to
        the integer ``streams`` seed; one of the two must be given).
    """
    kappa = _as_kappa("kappa", kappa)
    N = _as_int("N", N)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if truth_seed is not None:
        truth_seed = _as_int("truth_seed", truth_seed)
    elif streams is None:
        raise ValueError("provide truth_seed or an integer streams seed")
    streams = truth_seed if streams is None else _as_int("streams", streams)
    truth_seed = streams if truth_seed is None else truth_seed
    Q = _check_covariance(Q, model.d)
    P0 = Q if P0 is None else _check_covariance(P0, model.d, "P0")

    out = _engines.law_cov_paths_nd(
        model, kappa, N=N, Q=Q, grid=grid, seed=streams, trials=1, scheme=scheme,
        x0=x0, m0=m0, P0=P0, truth_seed=truth_seed, inflation=inflation)
    return _kernel_record(
        model, grid, out["mean"][0], out["cov"][0], out["error"][0], variant="law",
        N=N, xi=0.0 if inflation is None else inflation.xi, kappa=kappa, seed=truth_seed)


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

    The generator is linear in ``E``, so the RK4 step over an interval of
    length ``h`` is the matrix ``Phi = I + (h/6)(k1 + 2 k2 + 2 k3 + k4)``
    with ``k1 = G0``, ``k2 = Gm (I + (h/2) k1)``, ``k3 = Gm (I + (h/2) k2)``
    and ``k4 = G1 (I + h k3)`` (``G0``, ``Gm``, ``G1`` the generator at the
    interval's start, midpoint and end).  Every interval's ``Phi`` is one
    stacked product, all log-norms one stacked ``eigvalsh`` and the trace
    integral one sum; only the ordered product ``E <- Phi E`` is a loop.
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

    # integration nodes: path nodes inside (s, t), plus the endpoints
    nodes = np.unique(np.concatenate([[s], times[(times > s) & (times < t)], [t]]))
    i = np.clip(np.searchsorted(times, nodes, side="right") - 1, 0, len(times) - 2)
    w = ((nodes - times[i]) / (times[i + 1] - times[i]))[:, None, None]
    P = (1.0 - w) * covs[i] + w * covs[i + 1]
    h = np.diff(nodes)
    hm = h[:, None, None]
    A, S, I = model.A, model.S, np.eye(d)
    G = A - P @ S                               # at the nodes
    Gm = A - (0.5 * (P[:-1] + P[1:])) @ S       # at the midpoints
    G0, G1 = G[:-1], G[1:]
    k2 = Gm @ (I + 0.5 * hm * G0)
    k3 = Gm @ (I + 0.5 * hm * k2)
    k4 = G1 @ (I + hm * k3)
    phi = I + (hm / 6.0) * (G0 + 2.0 * k2 + 2.0 * k3 + k4)
    for step in phi:
        E = step @ E

    mu = log_norm(np.concatenate([G, Gm]))
    mu_nodes, mu_mid = mu[:len(G)], mu[len(G):]
    mu_int = np.sum((h / 6.0) * (mu_nodes[:-1] + 4.0 * mu_mid + mu_nodes[1:]))
    tr_int = np.sum(h * (np.trace(A) - 0.5 * np.trace((P[:-1] + P[1:]) @ S, axis1=1, axis2=2)))
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
    kappa = _as_kappa("kappa", kappa)
    frac = (2 * n + model.d + 1) / N
    if frac >= 1.0:
        raise BoundNotApplicable(
            f"requires N > 2n+d+1 = {2 * n + model.d + 1}, got N={N}"
        )
    R_n = model.R * (1.0 - frac)
    S_n = model.S * (1.0 - kappa * frac)
    return float(math.sqrt(np.trace(R_n @ S_n)))


def inflated_riccati_flow(model: LinearGaussianModel, kappa: float, Q,
                          grid: TimeGrid, inflation: Inflation) -> RiccatiPath:
    """Deterministic (large-N) limit of the inflated covariance flow.

    For kappa=1 the flow is the nominal Riccati drift plus the PSD source
    ``xi^2 T S T`` (so it dominates the nominal flow); for kappa=0 the drift
    matrix A is damped by ``-(xi/2) T S`` (the nominal flow dominates it at
    d=1 only: some random d=2 models break that ordering).  It is the
    Riccati equation with ``A - ((1-kappa)/2) xi T S`` and ``R + kappa xi^2
    T S T``, stepped by the exact propagator of
    :func:`~kbflow.kalman.riccati_flow`.
    """
    A_mod, source = _inflated_drift_terms(model, _as_kappa("kappa", kappa), inflation)
    Q = _check_covariance(Q, model.d)
    return RiccatiPath(grid.times(), _riccati_nodes(A_mod, model.S, model.R + source, Q,
                                                    grid.dt, grid.steps))
