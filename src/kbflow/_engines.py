"""Stepping kernels of the ensemble filters (internal).

Each kernel steps a batch of independent trials with a leading trials axis:
:func:`particle_cov_paths_nd` the interacting particle systems (all three
variants, with inflation) and :func:`law_cov_paths_nd` the law-level
mean/covariance diffusion.  The single-run functions of
:mod:`kbflow.ensemble` are B = 1 calls of these two kernels:
:func:`~kbflow.ensemble.run_enkf` and
:func:`~kbflow.ensemble.law_level_run` build their records from the kernel
outputs, and :func:`~kbflow.ensemble.nonlinear_step` applies the kernels'
particle update once.  :func:`particle_cov_paths_1d` and
:func:`law_cov_paths_1d` are the d = 1 fast paths of the studies in
:mod:`kbflow.stats`.

Trials are simulated in fixed-size chunks; the chunk index plays the
trial-index role in the noise-stream addresses, so results are
deterministic for a given (seed, chunk size) and independent of scheduling.

All engines freeze a trial at its first non-finite value (the state turns
NaN and stays NaN) and report the divergence step per trial; callers decide
how to aggregate divergent trials.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from .kalman import TRUTH_INIT, TRUTH_OBS, TRUTH_SIGNAL
from .model import LinearGaussianModel, symmetric_sqrt
from .sde import NoiseStream, Scheme, TimeGrid

#: Default number of trials simulated per noise-stream chunk.
CHUNK_SIZE = 1024

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


def _chunks(trials: int, chunk: int, first_chunk: int = 0):
    start = 0
    index = first_chunk
    while start < trials:
        yield index, min(chunk, trials - start)
        start += chunk
        index += 1


def _record_positions(steps: int, record_indices):
    """The recorded grid nodes, and per node its output column (-1 if the
    node is not recorded)."""
    if record_indices is None:
        record_indices = np.arange(steps + 1)
    else:
        record_indices = np.asarray(record_indices, dtype=int)
    pos = np.full(steps + 1, -1, dtype=int)
    pos[record_indices] = np.arange(len(record_indices))
    return record_indices, pos


def _law_scheme(kappa: float, scheme):
    """Tamed Euler for kappa = 1 (superlinear covariance diffusion), plain
    Euler-Maruyama otherwise, unless a scheme is given."""
    if scheme is None:
        return Scheme.TAMED_EULER if kappa == 1.0 else Scheme.EULER_MARUYAMA
    return Scheme.parse(scheme)


def _truth_channels(seed: int, truth_seed, c: int, first_chunk: int):
    """Signal/observation channels of chunk ``c``: under ``seed`` at the
    chunk index, or, with a separate ``truth_seed``, under that seed at the
    chunk index counted from ``first_chunk`` (so one truth can be paired
    with several ensemble-noise continuations)."""
    if truth_seed is not None:
        seed, c = truth_seed, c - first_chunk
    return tuple(NoiseStream(seed, c, tag) for tag in (TRUTH_INIT, TRUTH_SIGNAL, TRUTH_OBS))


def _scalar_coeffs(model: LinearGaussianModel):
    if model.d != 1 or model.d_y != 1:
        raise ValueError("scalar engine requires d = d_y = 1")
    return (float(model.A[0, 0]), float(model.H[0, 0]), float(model.R[0, 0]),
            float(model.R1[0, 0]), float(model.S[0, 0]))


def _quiet_divergence(engine):
    """Overflow/NaN is how a trial diverges; it is recorded, not warned."""

    @functools.wraps(engine)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return engine(*args, **kwargs)

    return wrapper


# ---------------------------------------------------------------------------
# d = 1, law level
# ---------------------------------------------------------------------------

# d = 1 fast path: law_cov_paths_nd takes 2-3.5x as long per step here (B = 1024, N = 10).
@_quiet_divergence
def law_cov_paths_1d(model: LinearGaussianModel, kappa: float, N: int, Q: float,
                     grid: TimeGrid, seed: int, trials: int, chunk: int = CHUNK_SIZE,
                     scheme=None, record_indices=None, with_mean: bool = False,
                     x0: float = 0.0, m0: float = 0.0, P0: float | None = None,
                     integral_from: int | None = None, first_chunk: int = 0):
    """Batch of scalar law-level paths.

    Returns a dict with ``t`` (recorded times), ``cov`` (trials, n_rec),
    ``diverged_step`` (trials; -1 when finite throughout), and, when
    requested, ``mean``/``error`` (trials, n_rec) and ``integral`` — the
    per-trial closed-loop integral ``int (A - S P_hat) du`` accumulated from
    grid node ``integral_from`` to the end.
    """
    A, H, R, R1, S = _scalar_coeffs(model)
    kappa = float(kappa)
    scheme = _law_scheme(kappa, scheme)
    sqrt_R, sqrt_R1 = math.sqrt(R), math.sqrt(R1)
    dt = grid.dt
    K = grid.steps
    record_indices, rec_pos = _record_positions(K, record_indices)
    n_rec = len(record_indices)

    P0 = float(Q) if P0 is None else float(P0)
    noise_scale = 2.0 / math.sqrt(N)
    mean_scale = 1.0 / math.sqrt(N + 1)

    cov = np.empty((trials, n_rec))
    mean = np.empty((trials, n_rec)) if with_mean else None
    error = np.empty((trials, n_rec)) if with_mean else None
    diverged = np.full(trials, -1, dtype=int)
    integral = np.zeros(trials) if integral_from is not None else None

    row = 0
    for c, B in _chunks(trials, chunk, first_chunk):
        mat = NoiseStream(seed, c, MATRIX_DRIVER)
        mean_drv = NoiseStream(seed, c, MEAN_DRIVER) if with_mean else None
        t_init = NoiseStream(seed, c, TRUTH_INIT) if with_mean else None
        t_sig = NoiseStream(seed, c, TRUTH_SIGNAL) if with_mean else None
        t_obs = NoiseStream(seed, c, TRUTH_OBS) if with_mean else None

        P = np.full(B, float(Q))
        div = np.full(B, -1, dtype=int)
        acc = np.zeros(B) if integral is not None else None
        if with_mean:
            x = np.full(B, float(x0))
            truth = m0 + math.sqrt(P0) * t_init.normals(B)

        def rec(k):
            p = rec_pos[k]
            if p >= 0:
                cov[row:row + B, p] = P
                if with_mean:
                    mean[row:row + B, p] = x
                    error[row:row + B, p] = x - truth

        rec(0)
        for k in range(K):
            sig = R + kappa * S * P * P
            sig_root = np.sqrt(sig)
            if with_mean:
                dV = t_sig.increments(B, dt)
                dW = t_obs.increments(B, dt)
                dY = H * truth * dt + sqrt_R1 * dW
                gain = P * H / R1
                dB = mean_drv.increments(B, dt)
                x = x + dt * A * x + gain * (dY - H * x * dt) \
                    + mean_scale * sig_root * dB
                truth = truth + dt * A * truth + sqrt_R * dV
            if acc is not None and k >= integral_from:
                np.add(acc, dt * (A - S * P), out=acc, where=np.isfinite(P))
            drift = R + 2.0 * A * P - S * P * P
            if scheme is Scheme.TAMED_EULER:
                drift = drift / (1.0 + dt * np.abs(drift))
            dM = mat.increments(B, dt)
            P = P + dt * drift + noise_scale * np.sqrt(np.maximum(P, 0.0) * sig) * dM
            P = np.maximum(P, 0.0)
            bad = ~np.isfinite(P)
            if with_mean:
                bad |= ~np.isfinite(x) | ~np.isfinite(truth)
            if bad.any():
                fresh = bad & (div < 0)
                div[fresh] = k + 1
                P[bad] = np.nan
                if with_mean:
                    x[bad] = np.nan
            rec(k + 1)
        diverged[row:row + B] = div
        if integral is not None:
            integral[row:row + B] = acc
        row += B

    out = {"t": grid.times()[record_indices], "cov": cov, "diverged_step": diverged}
    if with_mean:
        out["mean"] = mean
        out["error"] = error
    if integral is not None:
        out["integral"] = integral
    return out


# ---------------------------------------------------------------------------
# d = 1, particle level
# ---------------------------------------------------------------------------

# d = 1 fast path: particle_cov_paths_nd takes 50-65 % longer per step here (B = 1024, N = 10).
@_quiet_divergence
def particle_cov_paths_1d(model: LinearGaussianModel, variant, N: int,
                          grid: TimeGrid, seed: int, trials: int,
                          chunk: int = CHUNK_SIZE, frame: str = "error",
                          m0: float = 0.0, P0: float = 1.0,
                          record_indices=None, with_mean: bool = False,
                          integral_from: int | None = None,
                          init: str = "iid", first_chunk: int = 0):
    """Batch of scalar particle-filter paths (vanilla/deterministic).

    ``frame="error"`` simulates the truth-relative particle coordinates
    ``U^i = X^i - signal`` (the sample covariance and the error are
    invariant to the common shift), which keeps values bounded for
    exponentially unstable signals.  ``frame="absolute"`` simulates the
    particles themselves.  ``init`` is ``"iid"`` or ``"matched"`` (sample
    moments exactly m0/P0; requires N >= 1).

    With ``with_mean`` the ``mean`` output holds the sample mean in the
    absolute frame and the mean *error* in the error frame.
    """
    A, H, R, R1, S = _scalar_coeffs(model)
    variant = Variant.parse(variant)
    if variant is Variant.TRANSPORT:
        raise ValueError("scalar particle engine covers the noisy variants only")
    if frame not in ("error", "absolute"):
        raise ValueError(f"unknown frame {frame!r}")
    sqrt_R, sqrt_R1 = math.sqrt(R), math.sqrt(R1)
    dt = grid.dt
    K = grid.steps
    M = N + 1
    record_indices, rec_pos = _record_positions(K, record_indices)
    n_rec = len(record_indices)

    cov = np.empty((trials, n_rec))
    mean = np.empty((trials, n_rec)) if with_mean else None
    diverged = np.full(trials, -1, dtype=int)
    integral = np.zeros(trials) if integral_from is not None else None

    row = 0
    for c, B in _chunks(trials, chunk, first_chunk):
        p_init = NoiseStream(seed, c, PARTICLE_INIT)
        p_sig = NoiseStream(seed, c, PARTICLE_SIGNAL)
        p_obs = NoiseStream(seed, c, PARTICLE_OBS) if variant is Variant.VANILLA else None
        t_init = NoiseStream(seed, c, TRUTH_INIT)
        t_sig = NoiseStream(seed, c, TRUTH_SIGNAL)
        t_obs = NoiseStream(seed, c, TRUTH_OBS)

        G = p_init.normals((B, M))
        if init == "matched":
            G = G - G.mean(axis=1, keepdims=True)
            G *= np.sqrt(P0 / (np.sum(G * G, axis=1, keepdims=True) / N))
            X = m0 + G
        elif init == "iid":
            X = m0 + math.sqrt(P0) * G
        else:
            raise ValueError(f"unknown init {init!r}")
        truth = m0 + math.sqrt(P0) * t_init.normals(B)
        if frame == "error":
            X = X - truth[:, None]

        div = np.full(B, -1, dtype=int)
        acc = np.zeros(B) if integral is not None else None

        def rec(k, P_hat, X_bar):
            p = rec_pos[k]
            if p >= 0:
                cov[row:row + B, p] = P_hat
                if with_mean:
                    mean[row:row + B, p] = X_bar

        X_bar = X.mean(axis=1)
        dev = X - X_bar[:, None]
        P_hat = np.sum(dev * dev, axis=1) / N
        rec(0, P_hat, X_bar)
        for k in range(K):
            if acc is not None and k >= integral_from:
                np.add(acc, dt * (A - S * P_hat), out=acc, where=np.isfinite(P_hat))
            gain = (P_hat * H / R1)[:, None]
            dVi = p_sig.increments((B, M), dt)
            dV = t_sig.increments(B, dt)
            dW = t_obs.increments(B, dt)
            if frame == "error":
                sig_noise = sqrt_R * (dVi - dV[:, None])
                if variant is Variant.VANILLA:
                    dWi = p_obs.increments((B, M), dt)
                    innov = -H * X * dt + sqrt_R1 * (dW[:, None] - dWi)
                else:
                    innov = -H * (X + X_bar[:, None]) * 0.5 * dt + sqrt_R1 * dW[:, None]
                X = X + dt * A * X + sig_noise + gain * innov
            else:
                dY = (H * truth * dt + sqrt_R1 * dW)[:, None]
                if variant is Variant.VANILLA:
                    dWi = p_obs.increments((B, M), dt)
                    innov = dY - H * X * dt - sqrt_R1 * dWi
                else:
                    innov = dY - H * (X + X_bar[:, None]) * 0.5 * dt
                X = X + dt * A * X + sqrt_R * dVi + gain * innov
                truth = truth + dt * A * truth + sqrt_R * dV

            X_bar = X.mean(axis=1)
            dev = X - X_bar[:, None]
            P_hat = np.sum(dev * dev, axis=1) / N
            bad = ~np.isfinite(P_hat) | ~np.isfinite(X_bar)
            if frame == "absolute":
                bad |= ~np.isfinite(truth)
            if bad.any():
                fresh = bad & (div < 0)
                div[fresh] = k + 1
                X[bad] = np.nan
                P_hat[bad] = np.nan
            rec(k + 1, P_hat, X_bar)
        diverged[row:row + B] = div
        if integral is not None:
            integral[row:row + B] = acc
        row += B

    out = {"t": grid.times()[record_indices], "cov": cov, "diverged_step": diverged}
    if with_mean:
        out["mean"] = mean
    if integral is not None:
        out["integral"] = integral
    return out


# ---------------------------------------------------------------------------
# symmetric matrix stacks (the arithmetic of project_psd / symmetric_sqrt)
# ---------------------------------------------------------------------------

def _swap(M):
    return M.swapaxes(-1, -2)


def _spectral_map(M, fn, keep_psd: bool):
    """Symmetrize each matrix of a (B, d, d) stack and map its spectrum by
    ``fn``, as :func:`kbflow.sde.project_psd` (``keep_psd``: a matrix with
    no negative eigenvalue is returned symmetrized, unchanged) and
    :func:`kbflow.model.symmetric_sqrt` do for one matrix (at d = 1 the
    map of the single entry is the same number).  Non-finite (frozen)
    matrices come out NaN instead of tripping eigh."""
    sym = 0.5 * (M + _swap(M))
    if M.shape[-1] == 1:
        return fn(sym)
    finite = np.isfinite(sym).all(axis=(1, 2))
    all_finite = finite.all()
    if not all_finite:
        sym = np.where(finite[:, None, None], sym, np.eye(M.shape[-1]))
    w, V = np.linalg.eigh(sym)
    if keep_psd and all_finite and (w[:, 0] >= 0.0).all():
        return sym
    out = (V * fn(w)[:, None, :]) @ _swap(V)
    if keep_psd:
        out = np.where((w[:, :1] >= 0.0)[:, :, None], sym, out)
    if not all_finite:
        out[~finite] = np.nan
    return out


def _project_psd_stack(M):
    return _spectral_map(M, lambda w: np.maximum(w, 0.0), keep_psd=True)


def _symmetric_sqrt_stack(M):
    return _spectral_map(M, lambda w: np.sqrt(np.maximum(w, 0.0)), keep_psd=False)


def _frobenius(M):
    """Per-matrix Frobenius norm of a stack, summed as ``np.linalg.norm``
    sums one matrix (a BLAS dot product)."""
    flat = M.reshape(M.shape[0], 1, -1)
    return np.sqrt((flat @ _swap(flat))[:, 0, 0])


# ---------------------------------------------------------------------------
# general d, law level
# ---------------------------------------------------------------------------

def sigma_kappa(model: LinearGaussianModel, kappa: float, P,
                inflation=None) -> np.ndarray:
    """The noise covariance map of the law-level equations:
    ``R + kappa * (P + xi*T) S (P + xi*T)`` (xi = 0 without inflation), for
    one matrix or a stack of them."""
    P = np.asarray(P, dtype=float)
    if inflation is not None and inflation.active:
        P = P + inflation.xi * inflation.ref(model.d)
    out = model.R + kappa * (P @ model.S @ P)
    return 0.5 * (out + _swap(out))


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


@_quiet_divergence
def law_cov_paths_nd(model: LinearGaussianModel, kappa: float, N: int, Q,
                     grid: TimeGrid, seed: int, trials: int,
                     chunk: int = CHUNK_SIZE, scheme=None, record_indices=None,
                     first_chunk: int = 0, x0=None, m0=None, P0=None,
                     truth_seed=None, inflation=None):
    """Batch of law-level paths in dimension d.

    The covariance follows the Riccati diffusion
    ``dP = Ricc(P) dt + (2/sqrt(N)) [P^{1/2} dM Sigma_kappa^{1/2}(P)]_sym``
    (inflation shifts the drift and enters Sigma_kappa), projected onto the
    PSD cone after every step.  The mean starts at ``x0`` (default 0) and
    follows the gain-driven SDE with ensemble-noise intensity
    ``Sigma_kappa^{1/2}/sqrt(N+1)`` against a co-simulated signal drawn from
    N(m0, P0) (defaults 0 and Q; ``truth_seed`` as in
    :func:`particle_cov_paths_nd`).  A trial freezes when its covariance,
    mean or signal stops being finite.

    Returns ``t``, ``cov`` (trials, n_rec, d, d), ``mean`` and ``error``
    (trials, n_rec, d) and ``diverged_step``.
    """
    d, d_y = model.d, model.d_y
    kappa = float(kappa)
    scheme = _law_scheme(kappa, scheme)
    A, H, S, R, R1_inv = model.A, model.H, model.S, model.R, model.R1_inv
    A_mod, source = _inflated_drift_terms(model, kappa, inflation)
    xi_T = None
    if inflation is not None and inflation.active:
        xi_T = inflation.xi * inflation.ref(d)
    dt = grid.dt
    K = grid.steps
    record_indices, rec_pos = _record_positions(K, record_indices)
    n_rec = len(record_indices)

    Q = np.asarray(Q, dtype=float)
    x0 = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float).reshape(d)
    m0 = np.zeros(d) if m0 is None else np.asarray(m0, dtype=float).reshape(d)
    P0_root = symmetric_sqrt(Q if P0 is None else P0)
    noise_scale = 2.0 / math.sqrt(N)
    mean_scale = 1.0 / math.sqrt(N + 1)
    cov = np.full((trials, n_rec, d, d), np.nan)
    mean = np.full((trials, n_rec, d), np.nan)
    error = np.full((trials, n_rec, d), np.nan)
    diverged = np.full(trials, -1, dtype=int)

    row = 0
    for c, B in _chunks(trials, chunk, first_chunk):
        mat = NoiseStream(seed, c, MATRIX_DRIVER)
        mean_drv = NoiseStream(seed, c, MEAN_DRIVER)
        t_init, t_sig, t_obs = _truth_channels(seed, truth_seed, c, first_chunk)
        P = np.broadcast_to(Q, (B, d, d)).copy()
        x = np.broadcast_to(x0[:, None], (B, d, 1)).copy()
        truth = m0[:, None] + P0_root @ t_init.normals((B, d, 1))
        div = np.full(B, -1, dtype=int)

        def rec(k):
            p = rec_pos[k]
            if p >= 0:
                cov[row:row + B, p] = P
                mean[row:row + B, p] = x[..., 0]
                error[row:row + B, p] = (x - truth)[..., 0]

        rec(0)
        for k in range(K):
            sig_root = _symmetric_sqrt_stack(
                _project_psd_stack(sigma_kappa(model, kappa, P, inflation)))
            dV = t_sig.increments((B, d, 1), dt)
            dW = t_obs.increments((B, d_y, 1), dt)
            dY = H @ truth * dt + model.sqrt_R1 @ dW
            gain = (P if xi_T is None else P + xi_T) @ H.T @ R1_inv
            dB = mean_drv.increments((B, d, 1), dt)
            x = x + dt * (A @ x) + gain @ (dY - H @ x * dt) + mean_scale * (sig_root @ dB)
            truth = truth + dt * (A @ truth) + model.sqrt_R @ dV
            drift = A_mod @ P + P @ A_mod.T - P @ S @ P + R + source
            drift = 0.5 * (drift + _swap(drift))
            if scheme is Scheme.TAMED_EULER:
                drift = drift / (1.0 + dt * _frobenius(drift))[:, None, None]
            dM = mat.increments((B, d, d), dt)
            wing = _symmetric_sqrt_stack(P) @ dM @ sig_root
            P = _project_psd_stack(P + dt * drift + noise_scale * 0.5 * (wing + _swap(wing)))
            bad = ~(np.isfinite(P).all(axis=(1, 2)) & np.isfinite(x).all(axis=(1, 2))
                    & np.isfinite(truth).all(axis=(1, 2)))
            if bad.any():
                div[bad & (div < 0)] = k + 1
                P[bad] = np.nan
                x[bad] = np.nan
            rec(k + 1)
            if div.min() >= 0:
                break
        diverged[row:row + B] = div
        row += B

    return {"t": grid.times()[record_indices], "cov": cov, "mean": mean, "error": error,
            "diverged_step": diverged}


# ---------------------------------------------------------------------------
# general d, particle level
# ---------------------------------------------------------------------------

def _particle_update(X, aX, hX, dY, noise, dt, variant, R1_inv, obs_noise=None,
                     R=None, inflation=None):
    """One Euler step of an interacting particle system on (B, d, M) stacks.

    ``aX`` and ``hX`` are the drift and the observation evaluated at the
    particles, ``dY`` the (B, d_y, 1) observation increments, ``noise`` the
    signal-noise term (0 for the transport variant in absolute
    coordinates), ``obs_noise`` the per-particle sensor-noise term
    ``R1^{1/2} dW^i`` of the vanilla variant, and ``R`` the signal noise
    covariance of the transport drift ``(1/2) R P_hat^+ (X^i - X_bar)``.
    The gain is the sample cross-covariance of the particles and ``hX``
    times ``R1^{-1}``; ``inflation = (xi*T, H)`` (linear observation
    ``hX = H X``) makes it ``(P_hat + xi*T) H' R1^{-1}``.
    """
    N = X.shape[-1] - 1
    dev = X - X.mean(axis=-1, keepdims=True)
    h_bar = hX.mean(axis=-1, keepdims=True)
    if inflation is None:
        gain = dev @ _swap(hX - h_bar) / N @ R1_inv
    else:
        xi_T, H = inflation
        gain = (dev @ _swap(dev) / N + xi_T) @ H.T @ R1_inv
    if variant is Variant.VANILLA:
        innov = dY - hX * dt - obs_noise
    else:
        innov = dY - 0.5 * (hX + h_bar) * dt
    if variant is Variant.TRANSPORT:
        P_hat = dev @ _swap(dev) / N
        # frozen (NaN) trials would make the SVD fail; they stay NaN anyway
        P_hat = np.where(np.isfinite(P_hat), P_hat, 0.0)
        noise = 0.5 * (R @ np.linalg.pinv(P_hat, rcond=PINV_RCOND)) @ dev * dt + noise
    return X + aX * dt + noise + gain @ innov


@_quiet_divergence
def particle_cov_paths_nd(model: LinearGaussianModel, variant, N: int,
                          grid: TimeGrid, seed: int, trials: int,
                          chunk: int = CHUNK_SIZE, frame: str = "error",
                          m0=None, P0=None, record_indices=None,
                          init="iid", first_chunk: int = 0, truth_seed=None,
                          inflation=None):
    """Batch of particle-filter paths in dimension d, all three variants.

    Same conventions as the scalar engine.  ``init`` is ``"iid"``,
    ``"matched"`` or an array of initial clouds, shape (trials, d, N+1).
    The signal starts from N(m0, P0).  ``truth_seed`` addresses the
    signal/observation channels under their own seed, at the chunk index
    counted from ``first_chunk``.  ``inflation`` (vanilla/deterministic
    only) puts ``P_hat + xi*T`` in the gain.

    Returns ``t``, ``cov`` (trials, n_rec, d, d: the sample covariance with
    divisor N), ``mean`` (trials, n_rec, d; the mean error in the error
    frame) and ``diverged_step``; in the absolute frame also ``error`` (mean
    minus signal).
    """
    variant = Variant.parse(variant)
    if frame not in ("error", "absolute"):
        raise ValueError(f"unknown frame {frame!r}")
    d, d_y = model.d, model.d_y
    A, H, R, R1_inv = model.A, model.H, model.R, model.R1_inv
    sqrt_R, sqrt_R1 = model.sqrt_R, model.sqrt_R1
    gain_inflation = None
    if inflation is not None and inflation.active:
        if variant is Variant.TRANSPORT:
            raise ValueError("inflation applies to the vanilla/deterministic variants only")
        gain_inflation = (inflation.xi * inflation.ref(d), H)
    dt = grid.dt
    K = grid.steps
    M = N + 1
    m0 = np.zeros(d) if m0 is None else np.asarray(m0, dtype=float).reshape(d)
    P0 = np.eye(d) if P0 is None else np.asarray(P0, dtype=float)
    P0_root = symmetric_sqrt(P0)
    if not isinstance(init, str) and np.shape(init) != (trials, d, M):
        raise ValueError(f"initial clouds must have shape {(trials, d, M)}, "
                         f"got {np.shape(init)}")
    record_indices, rec_pos = _record_positions(K, record_indices)
    n_rec = len(record_indices)

    cov = np.full((trials, n_rec, d, d), np.nan)
    mean = np.full((trials, n_rec, d), np.nan)
    error = np.full((trials, n_rec, d), np.nan) if frame == "absolute" else None
    diverged = np.full(trials, -1, dtype=int)

    row = 0
    for c, B in _chunks(trials, chunk, first_chunk):
        p_sig = None if variant is Variant.TRANSPORT \
            else NoiseStream(seed, c, PARTICLE_SIGNAL)
        p_obs = NoiseStream(seed, c, PARTICLE_OBS) if variant is Variant.VANILLA else None
        t_init, t_sig, t_obs = _truth_channels(seed, truth_seed, c, first_chunk)

        if isinstance(init, str):
            G = NoiseStream(seed, c, PARTICLE_INIT).normals((B, d, M))
            if init == "matched":
                G = G - G.mean(axis=2, keepdims=True)
                w, V = np.linalg.eigh(G @ _swap(G) / N)
                X = m0[:, None] + P0_root @ (V @ (w[..., None] ** -0.5 * _swap(V))) @ G
            elif init == "iid":
                X = m0[:, None] + P0_root @ G
            else:
                raise ValueError(f"unknown init {init!r}")
        else:
            X = np.array(init[row:row + B], dtype=float)
        truth = m0[:, None] + P0_root @ t_init.normals((B, d, 1))
        if frame == "error":
            X = X - truth

        div = np.full(B, -1, dtype=int)

        def stats():
            X_bar = X.mean(axis=2, keepdims=True)
            dev = X - X_bar
            return X_bar, dev @ _swap(dev) / N

        def rec(k, X_bar, P_hat):
            p = rec_pos[k]
            if p >= 0:
                cov[row:row + B, p] = P_hat
                mean[row:row + B, p] = X_bar[..., 0]
                if error is not None:
                    error[row:row + B, p] = (X_bar - truth)[..., 0]

        rec(0, *stats())
        for k in range(K):
            dV = t_sig.increments((B, d, 1), dt)
            dW = t_obs.increments((B, d_y, 1), dt)
            dVi = 0.0 if p_sig is None else p_sig.increments((B, d, M), dt)
            obs_noise = None if p_obs is None \
                else sqrt_R1 @ p_obs.increments((B, d_y, M), dt)
            if frame == "error":
                noise = sqrt_R @ (dVi - dV)
                dY = sqrt_R1 @ dW
            else:
                noise = 0.0 if p_sig is None else sqrt_R @ dVi
                dY = H @ truth * dt + sqrt_R1 @ dW
                truth = truth + dt * (A @ truth) + sqrt_R @ dV
            X = _particle_update(X, A @ X, H @ X, dY, noise, dt, variant, R1_inv,
                                 obs_noise, R, gain_inflation)

            # a finite cloud whose second moments overflow counts as diverged
            X_bar, P_hat = stats()
            bad = ~np.isfinite(P_hat).all(axis=(1, 2))
            if frame == "absolute":
                bad |= ~np.isfinite(truth).all(axis=(1, 2))
            if bad.any():
                div[bad & (div < 0)] = k + 1
                X[bad] = np.nan
                X_bar[bad] = np.nan
                P_hat[bad] = np.nan
            rec(k + 1, X_bar, P_hat)
            if div.min() >= 0:
                break
        diverged[row:row + B] = div
        row += B

    out = {"t": grid.times()[record_indices], "cov": cov, "mean": mean,
           "diverged_step": diverged}
    if error is not None:
        out["error"] = error
    return out
