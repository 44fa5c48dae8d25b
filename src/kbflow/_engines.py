"""Stepping kernels of the ensemble filters (internal).

Each kernel steps a batch of independent trials, whose outputs have a
leading trials axis:
:func:`particle_cov_paths_nd` the interacting particle systems (all three
variants, with inflation) and :func:`law_cov_paths_nd` the law-level
mean/covariance diffusion.  The single-run functions of
:mod:`kbflow.ensemble` are B = 1 calls of these two kernels:
:func:`~kbflow.ensemble.run_enkf` and
:func:`~kbflow.ensemble.law_level_run` build their records from the kernel
outputs.  :func:`~kbflow.ensemble.run_nonlinear` steps a batch of clouds
under user evaluators with the kernels' particle update
(:func:`_particle_update`), step loop and divergence freeze.
:func:`law_cov_paths_1d` and :func:`particle_cov_paths_1d` are the d = 1
adapters of the two kernels (scalar arguments and outputs, no mean) behind
the d = 1 studies of :mod:`kbflow.stats`.

The particle kernel steps a cloud in one of two frames.  The error frame
steps the truth-relative coordinates ``U^i = X^i - signal``: the sample
covariance and the mean error do not depend on the common shift, and the
values stay bounded for exponentially unstable signals, whose path is never
formed.  Only linear-Gaussian runs take it, so its gain is the linear one,
``(P_hat + xi T) H' R1^{-1}`` (:func:`_linear_update`), the sample
cross-covariance gain in exact arithmetic without its second contraction
over the particles.  The absolute frame (the frame of
:func:`~kbflow.ensemble.run_enkf`) steps the particles and the signal with
the cross-covariance gain of :func:`_particle_update`, which
:func:`~kbflow.ensemble.run_nonlinear` takes for any observation, so that a
one-cloud linear :func:`~kbflow.ensemble.run_nonlinear` is
:func:`~kbflow.ensemble.run_enkf` bit for bit.

The particle kernel keeps a chunk's clouds with the trials axis innermost,
``(d, M, B)``, so a sum over the particles (``np.add.reduce`` over the
particle axis) is M vector adds across all trials and every broadcast a row
operation.  A product with a constant matrix is one matrix product over all
particles of all trials (:func:`_lin`), a per-trial product one contraction
over the batch (:func:`_gram`, :func:`_dot`), and, as in
:func:`kbflow.sde._mm`, a contraction of length 1 (d = 1 or d_y = 1) the
broadcast product, with the same numbers.  A chunk of one trial drops the
trials axis instead and keeps the per-matrix products of its ``(d, M)``
cloud: a single run keeps its bits and its speed, which the contractions
over a batch would cost.  The choice depends on the chunk's trial count
alone.

A kernel's own code steps one chunk; the scaffold around it is shared:

* :func:`_batched` is the chunk loop.  Trials are simulated in fixed-size
  chunks; the chunk index plays the trial-index role in the noise-stream
  addresses, so results are deterministic for a given (seed, chunk size)
  and independent of scheduling.  :func:`_join` joins chunk outputs, here
  and in :func:`kbflow.stats._map_chunks`.
* :func:`_step_rows` is the step loop of the kernels,
  :func:`~kbflow.ensemble.run_nonlinear` and :func:`kbflow.kalman.kalman_run`.
  Its noise comes from :func:`_step_noise`, which draws each channel a
  block of steps at a time: a ``(L,) + shape`` draw gives the numbers of L
  successive ``shape`` draws, so the block length L is not part of any
  stream address and the results are those of per-step draws, bit for bit.
  The noise terms that do not depend on the state are one stacked product
  per block, which gives each row the numbers of the per-step product.
* :func:`_freeze` is the divergence freeze.  A trial freezes at its first
  non-finite value (the state turns NaN and stays NaN) and its divergence
  step is recorded; a chunk stops once all its trials have diverged.
  Callers decide how to aggregate divergent trials.  Finiteness is tested
  once per step, by one sum per state stack
  (:func:`kbflow.sde._nonfinite_trials`).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math

import numpy as np

from .model import LinearGaussianModel, symmetric_sqrt
from .sde import (NoiseStream, Scheme, TimeGrid, _mm, _nonfinite_trials, _parse_enum,
                  _project_psd_stack, _swap, _sym, _symmetric_sqrt_stack)

#: Default number of trials simulated per noise-stream chunk.
CHUNK_SIZE = 1024

#: Normals per noise block: a block spans max(1, NOISE_BLOCK // normals per
#: step) steps.
NOISE_BLOCK = 2 ** 15

#: Singular-value cutoff (relative to the largest) for the transport
#: pseudo-inverse of the sample covariance.
PINV_RCOND = 1e-10

# Channel tags.  The truth channels are shared by the exact filter
# (kbflow.kalman.kalman_run) and the ensemble kernels, so an exact and an
# ensemble filter given equal seeds consume bitwise-identical
# signal/observation paths.
TRUTH_INIT = "truth-init"
TRUTH_SIGNAL = "truth-signal"
TRUTH_OBS = "truth-obs"
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
        return _parse_enum(cls, value, "variant")

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


def _truth_channels(seed: int, truth_seed, c: int):
    """Signal/observation channels of chunk ``c``: under ``seed``, or under
    a separate ``truth_seed``, at the chunk index."""
    seed = seed if truth_seed is None else truth_seed
    return tuple(NoiseStream(seed, c, tag) for tag in (TRUTH_INIT, TRUTH_SIGNAL, TRUTH_OBS))


def _step_noise(channels, steps: int, dt: float):
    """Brownian increments of a kernel's steps, drawn in blocks of steps.

    ``channels`` is a sequence of ``(stream, shape tuple)`` pairs.  Yields
    ``(k0, arrays)`` per block of the n = min(L, steps - k0) steps from step
    ``k0`` on, with one N(0, dt) array of shape ``(n,) + shape`` per channel
    (None for a channel whose stream is None).  Row i of an array equals
    ``stream.increments(shape, dt)`` of step ``k0 + i`` bit for bit.  Every
    stream draws a block of L = max(1, NOISE_BLOCK // normals per step)
    steps with one call; :func:`_rows` steps through a block, and
    :func:`_step_rows` through every block's rows.  Without a live channel
    (every stream None) there is one block of all the steps.
    """
    per_step = sum(math.prod(shape) for s, shape in channels if s is not None)
    L = max(1, NOISE_BLOCK // per_step) if per_step else max(1, steps)
    for k0 in range(0, steps, L):
        n = min(L, steps - k0)
        yield k0, [None if s is None else s.increments((n,) + shape, dt)
                   for s, shape in channels]


def _rows(arrays):
    """Per-step tuples of a block's arrays (a None array gives None rows)."""
    n = next(len(a) for a in arrays if a is not None)
    return zip(*((None,) * n if a is None else a for a in arrays))


def _step_rows(channels, steps: int, dt: float, per_block=None):
    """One tuple per step: the rows of :func:`_step_noise`'s blocks.

    ``per_block(*arrays)`` turns a block's increment arrays into the terms
    that do not depend on the state, whose rows are yielded instead.  A
    block without a live channel yields its steps as rows of None.
    """
    for k0, arrays in _step_noise(channels, steps, dt):
        terms = arrays if per_block is None else per_block(*arrays)
        if any(a is not None for a in terms):
            yield from _rows(terms)
        else:  # _step_noise's one block of all the steps
            yield from itertools.repeat((None,) * len(terms), steps - k0)


def _freeze(div, bad, k, *states, view=None) -> bool:
    """Record step k + 1 in ``div`` for the trials in the mask ``bad`` (None:
    every trial is finite) that newly went bad, and set their rows of the
    ``states`` that are not None to NaN; ``view`` maps a state whose trials
    axis is not the leading one to a view where it is.  Returns whether
    every trial has diverged (at once for zero trials): the kernel stops,
    and the records it has not written stay NaN."""
    if bad is None:  # a diverged trial stays NaN, so none has diverged
        return not div.size
    div[bad & (div < 0)] = k + 1
    for state in states:
        if state is not None:
            (state if view is None else view(state))[bad] = np.nan
    return div.min() >= 0


def _join(parts):
    """Chunk outputs joined along the trials axis in the order given, with
    the first one's ``t``.  One chunk's outputs are returned as they are."""
    if len(parts) == 1:
        return parts[0]
    return {key: value if key == "t" else np.concatenate([p[key] for p in parts])
            for key, value in parts[0].items()}


def _scalar_outputs(model: LinearGaussianModel, kernel, **kwargs):
    """The outputs of ``kernel(model, **kwargs)`` at d = d_y = 1 as the d = 1
    adapters return them: ``t``, ``cov`` (trials, n_rec) and
    ``diverged_step``, with ``integral_from`` also the scalar ``integral``
    (trials,), and no mean."""
    if model.d != 1 or model.d_y != 1:
        raise ValueError("scalar engine requires d = d_y = 1")
    return {key: value[..., 0, 0] if key in ("cov", "integral") else value
            for key, value in kernel(model, **kwargs).items() if key not in ("mean", "error")}


def _quiet_divergence(engine):
    """Overflow/NaN is how a trial diverges; it is recorded, not warned."""

    @functools.wraps(engine)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return engine(*args, **kwargs)

    return wrapper


def _batched(body):
    """The batch kernel of a one-chunk body: it takes ``body``'s arguments
    after the first three (``trials`` by keyword) and ``chunk`` and
    ``first_chunk``, calls ``body(c, B, row, ..., trials=trials, ...)`` for
    chunk c of B trials, rows ``row`` to ``row + B`` of the batch, and joins
    the outputs.  Zero trials run one empty chunk, which gives the outputs
    their shapes."""

    @_quiet_divergence
    @functools.wraps(body)
    def kernel(*args, trials, chunk=CHUNK_SIZE, first_chunk=0, **kwargs):
        if trials < 0 or chunk < 1:
            raise ValueError(f"need trials >= 0 and chunk >= 1, got {trials} and {chunk}")
        parts, row = [], 0
        for c, B in list(_chunks(trials, chunk, first_chunk)) or [(first_chunk, 0)]:
            parts.append(body(c, B, row, *args, trials=trials, **kwargs))
            row += B
        return _join(parts)

    return kernel


# ---------------------------------------------------------------------------
# law level, every d
# ---------------------------------------------------------------------------

def _frobenius(M):
    """Per-matrix Frobenius norm of a stack, summed as ``np.linalg.norm``
    sums one matrix (a BLAS dot product)."""
    flat = M.reshape(M.shape[0], 1, M.shape[1] * M.shape[2])
    return np.sqrt(_mm(flat, _swap(flat))[:, 0, 0])


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


@_batched
def law_cov_paths_nd(c, B, row, model: LinearGaussianModel, kappa: float, N: int, Q,
                     grid: TimeGrid, seed: int, trials: int, scheme=None,
                     record_indices=None, x0=None, m0=None, P0=None, truth_seed=None,
                     inflation=None, with_mean: bool = True,
                     integral_from: int | None = None):
    """Batch of law-level paths in dimension d.

    The covariance follows the Riccati diffusion
    ``dP = Ricc(P) dt + (2/sqrt(N)) [P^{1/2} dM Sigma_kappa^{1/2}(P)]_sym``
    (inflation shifts the drift and enters Sigma_kappa), projected onto the
    PSD cone after every step.  With ``with_mean`` the mean starts at ``x0``
    (default 0) and follows the gain-driven SDE with ensemble-noise
    intensity ``Sigma_kappa^{1/2}/sqrt(N+1)`` against a co-simulated signal
    drawn from N(m0, P0) (defaults 0 and Q; ``truth_seed`` as in
    :func:`particle_cov_paths_nd`); without it the mean, signal and
    observation channels are neither stepped nor drawn.  A trial freezes
    when its covariance, mean or signal stops being finite.

    Returns ``t``, ``cov`` (trials, n_rec, d, d) and ``diverged_step``; with
    ``with_mean`` also ``mean`` and ``error`` (trials, n_rec, d); with
    ``integral_from`` also ``integral`` (trials, d, d), the per-trial
    closed-loop integral ``int (A - P S) du`` from grid node
    ``integral_from`` to the end, over the steps before the trial diverges.
    """
    d, d_y = model.d, model.d_y
    kappa = float(kappa)
    scheme = _law_scheme(kappa, scheme)
    A_mod, source = _inflated_drift_terms(model, kappa, inflation)
    xi_T = None
    if inflation is not None and inflation.active:
        xi_T = inflation.xi * inflation.ref(d)
    # Sigma_0 = R: its root is the same for every trial and step
    R_root = _symmetric_sqrt_stack(model.R[None]) if kappa == 0.0 else None

    def const(M):
        # a 1x1 constant enters as a 0-d array, which numpy multiplies
        # without the broadcast loop of a (1, 1) array: the same numbers
        return M.reshape(()) if isinstance(M, np.ndarray) and M.size == 1 else M

    A, H, H_T, S, R, R1_inv = map(const, (model.A, model.H, model.H.T, model.S, model.R,
                                          model.R1_inv))
    sqrt_R, sqrt_R1, A_mod, A_mod_T, source, xi_T, R_root = map(
        const, (model.sqrt_R, model.sqrt_R1, A_mod, A_mod.T, source, xi_T, R_root))
    dt = grid.dt
    K = grid.steps
    record_indices, rec_pos = _record_positions(K, record_indices)
    n_rec = len(record_indices)

    Q = np.asarray(Q, dtype=float)
    noise_scale = 2.0 / math.sqrt(N)
    cov = np.full((B, n_rec, d, d), np.nan)
    div = np.full(B, -1, dtype=int)
    acc = np.zeros((B, d, d)) if integral_from is not None else None
    mat = NoiseStream(seed, c, MATRIX_DRIVER)
    P = np.broadcast_to(Q, (B, d, d)).copy()
    eig = None
    mean_drv = t_sig = t_obs = x = truth = None
    if with_mean:
        x0 = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float).reshape(d)
        m0 = np.zeros(d) if m0 is None else np.asarray(m0, dtype=float).reshape(d)
        P0_root = symmetric_sqrt(Q if P0 is None else P0)
        mean_scale = 1.0 / math.sqrt(N + 1)
        mean = np.full((B, n_rec, d), np.nan)
        error = np.full((B, n_rec, d), np.nan)
        mean_drv = NoiseStream(seed, c, MEAN_DRIVER)
        t_init, t_sig, t_obs = _truth_channels(seed, truth_seed, c)
        x = np.broadcast_to(x0[:, None], (B, d, 1)).copy()
        truth = m0[:, None] + _mm(P0_root, t_init.normals((B, d, 1)))

    def rec(k):
        p = rec_pos[k]
        if p >= 0:
            cov[:, p] = P
            if with_mean:
                mean[:, p] = x[..., 0]
                error[:, p] = (x - truth)[..., 0]

    def block_terms(dV, dW, dB, dM):
        if not with_mean:
            return None, None, None, dM
        # at kappa != 0 the root depends on P: the rows stay dB
        return (_mm(sqrt_R, dV), _mm(sqrt_R1, dW),
                dB if R_root is None else mean_scale * _mm(R_root, dB), dM)

    rec(0)
    rows = _step_rows([(t_sig, (B, d, 1)), (t_obs, (B, d_y, 1)), (mean_drv, (B, d, 1)),
                       (mat, (B, d, d))], K, dt, block_terms)
    for k, (sig_k, obs_k, mean_k, dM_k) in enumerate(rows):
        PS = _mm(P, S)
        PSP = _mm(PS, P)
        if acc is not None and k >= integral_from:
            np.add(acc, dt * (A - PS), out=acc, where=(div < 0)[:, None, None])
        if R_root is not None:
            sig_root = R_root
        else:  # Sigma_kappa = R + kappa (P + xi T) S (P + xi T)
            PiSPi = PSP if xi_T is None else _mm(_mm(P + xi_T, S), P + xi_T)
            sig_root = _symmetric_sqrt_stack(R + kappa * PiSPi)
        if with_mean:
            if R_root is None:
                mean_k = mean_scale * _mm(sig_root, mean_k)
            dY = _mm(H, truth) * dt + obs_k
            gain = _mm(_mm(P if xi_T is None else P + xi_T, H_T), R1_inv)
            x = x + dt * _mm(A, x) + _mm(gain, dY - _mm(H, x) * dt) + mean_k
            truth = truth + dt * _mm(A, truth) + sig_k
        drift = _mm(A_mod, P) + _mm(P, A_mod_T) - PSP + R
        if xi_T is not None:
            drift = drift + source
        drift = _sym(drift)
        if scheme is Scheme.TAMED_EULER:
            drift = drift / (1.0 + dt * _frobenius(drift))[:, None, None]
        # the projection's eigh of P serves as the root's wherever it
        # kept P unchanged
        wing = _mm(_mm(_symmetric_sqrt_stack(P, eig), dM_k), sig_root)
        P, eig = _project_psd_stack(P + dt * drift + noise_scale * _sym(wing),
                                    with_eig=True)
        bad = _nonfinite_trials(P, x, truth) if with_mean else _nonfinite_trials(P)
        if _freeze(div, bad, k, P, x):
            break
        rec(k + 1)

    out = {"t": grid.times()[record_indices], "cov": cov, "diverged_step": div}
    if with_mean:
        out["mean"] = mean
        out["error"] = error
    if acc is not None:
        out["integral"] = acc
    return out


def law_cov_paths_1d(model: LinearGaussianModel, kappa: float, N: int, Q: float,
                     grid: TimeGrid, seed: int, trials: int, chunk: int = CHUNK_SIZE,
                     record_indices=None, integral_from: int | None = None,
                     first_chunk: int = 0):
    """:func:`law_cov_paths_nd` at d = 1 without the mean, with scalar
    arguments and outputs (:func:`_scalar_outputs`)."""
    return _scalar_outputs(model, law_cov_paths_nd, kappa=kappa, N=N, Q=np.full((1, 1), float(Q)),
                           grid=grid, seed=seed, trials=trials, chunk=chunk,
                           record_indices=record_indices, first_chunk=first_chunk,
                           with_mean=False, integral_from=integral_from)


# ---------------------------------------------------------------------------
# particle level, every d
# ---------------------------------------------------------------------------

def _trials_last(a, axis: int = 1, drop_one: bool = False):
    """A C-contiguous copy of ``a`` with its trials axis ``axis`` moved
    last: an (n, B, ...) noise block as (n, ..., B), or with ``axis=0`` a
    (B, ...) stack as (..., B).  ``drop_one`` drops a trials axis of length
    1 instead.  None stays None."""
    if a is None:
        return None
    if drop_one and a.shape[axis] == 1:
        return np.take(a, 0, axis)
    n = a.ndim
    out = np.empty(a.shape[:axis] + a.shape[axis + 1:] + a.shape[axis:axis + 1])
    # written through the view of ``out`` in ``a``'s axis order (contiguous reads)
    np.copyto(out.transpose(tuple(range(axis)) + (n - 1,) + tuple(range(axis, n - 1))), a)
    return out


def _const(C):
    """A constant (j, m) matrix as a factor of trials-last (j, m, B) stacks:
    a 1x1 one as a 0-d array, which numpy multiplies without the broadcast
    loop of a (1, 1, 1) array (the same numbers)."""
    return C.reshape(()) if C.size == 1 else C[:, :, None]


def _lin(C, Z, out=None):
    """``C`` times each (k, M) matrix of a trials-last (..., k, M, B) stack
    (into ``out``): one matrix product over all particles of all trials.  At
    one trial the kernels take ``C @ Z`` on their (..., k, M) stacks
    instead.  As in :func:`~kbflow.sde._mm`, a contraction of length 1 (k =
    1) is the broadcast product, the same numbers without the matmul."""
    if C.shape[1] == 1:
        return np.multiply(_const(C), Z, out=out)
    shape = Z.shape
    flat = None if out is None else out.reshape(out.shape[:-2] + (-1,))  # a view of out
    return np.matmul(C, Z.reshape(shape[:-2] + (-1,)), out=flat).reshape(
        shape[:-3] + (len(C),) + shape[-2:])


def _times(C, one: bool):
    """``C`` times the kernels' stacks as one callable, ``(Z, out=None) ->
    C Z``: :func:`_lin`, or ``C @ Z`` for one trial, with the choice of the
    broadcast product made once, for a product taken at every step."""
    if C.shape[1] == 1:
        return functools.partial(np.multiply, C if one else _const(C))
    return functools.partial(np.matmul if one else _lin, C)


def _block_product(C, block):
    """``C`` times each cloud of an (n, B, k, M) noise block, in the
    kernels' layout: (n, j, M, B), or (n, j, M) for one trial.  None stays
    None."""
    if block is None:
        return None
    block = _trials_last(block, drop_one=True)
    return _mm(C, block) if block.ndim == 3 else _lin(C, block)


def _gram(a, b):
    """Per trial ``a b'`` of (i, M) and (j, M) matrices: (i, j).  The
    contraction runs over the M >= 2 particles."""
    if a.ndim == 2:
        return a @ b.T
    return np.einsum("imb,jmb->ijb", a, b)


def _dot(a, b, out=None):
    """Per trial ``a b`` of an (i, k) matrix and a (k, m) matrix of the
    trial or a constant one (2-d while ``a`` has a trials axis): (i, m),
    into ``out``.  A contraction of length 1 is the broadcast product."""
    if a.shape[1] == 1:
        return np.multiply(a, _const(b) if b.ndim < a.ndim else b, out=out)
    if a.ndim == 2:
        return np.matmul(a, b, out=out)
    return np.einsum("ikb,km->imb" if b.ndim == 2 else "ikb,kmb->imb", a, b, out=out)


def _trials_first(a):
    """A (B, ...) view of a stack of per-trial matrices."""
    return a[None] if a.ndim == 2 else a.transpose(2, 0, 1)


def _trials_at_end(out):
    """A trials-first output array as the kernels' stacks: the view with the
    trials axis last, or the only trial."""
    return out[0] if len(out) == 1 else np.moveaxis(out, 0, -1)


def _particle_update(X, aX, hX, dY, noise, dt, variant, R1_inv, obs_noise=None,
                     R=None, inflation=None, dev=None, P_hat=None):
    """One Euler step of an interacting particle system on a batch of
    clouds, (d, M, B) with the trials axis last or (d, M) for one trial.

    ``aX`` and ``hX`` are the drift and the observation evaluated at the
    particles, ``dY`` the (d_y, 1) observation increments, ``noise`` the
    signal-noise term (0 for the transport variant in absolute
    coordinates), ``obs_noise`` the per-particle sensor-noise term
    ``R1^{1/2} dW^i`` of the vanilla variant, and ``R`` the signal noise
    covariance of the transport drift ``(1/2) R P_hat^+ (X^i - X_bar)``.
    The gain is the sample cross-covariance of the particles and ``hX``
    times ``R1^{-1}``; ``inflation = (xi*T, H)`` (linear observation
    ``hX = H X``) makes it ``(P_hat + xi*T) H' R1^{-1}``.

    ``dev`` and ``P_hat`` are the cloud's deviations ``X - X_bar`` and its
    sample covariance ``dev dev' / N``; the kernel passes the ones it
    computed after the previous step, and they are computed here when not
    given.  Sample means are ``np.add.reduce(X, 1) / M``, the arithmetic of
    ``X.mean(1)`` without its Python wrapper.  Each product with a
    constant matrix is one product over all particles of all trials
    (:func:`_lin`), each per-trial product one contraction over the batch
    (:func:`_gram`, :func:`_dot`); one trial takes the matrix products of
    its (d, M) slices.
    """
    M = X.shape[1]
    N = M - 1
    if dev is None:
        dev = X - np.add.reduce(X, 1, keepdims=True) / M
    h_bar = np.add.reduce(hX, 1, keepdims=True) / M
    if (inflation is not None or variant is Variant.TRANSPORT) and P_hat is None:
        P_hat = _gram(dev, dev) / N
    if inflation is None:
        gain = _dot(_gram(dev, hX - h_bar) / N, R1_inv)
    else:
        xi_T, H = inflation
        gain = _dot(_dot(P_hat + (xi_T if P_hat.ndim == 2 else xi_T[..., None]), H.T),
                    R1_inv)
    # dY - hX dt - obs_noise (vanilla) or dY - (1/2) (hX + h_bar) dt, and
    # X + aX dt + noise + gain innov: the operations of these expressions in
    # their order (sums commuted), in place on fresh arrays
    if variant is Variant.VANILLA:
        innov = hX * dt
        np.subtract(dY, innov, out=innov)
        innov -= obs_noise
    else:
        innov = hX + h_bar
        innov *= 0.5
        innov *= dt
        np.subtract(dY, innov, out=innov)
    if variant is Variant.TRANSPORT:
        noise = _transport_drift(P_hat, dev, R, dt) + noise
    step = aX * dt
    step += X
    step += noise
    step += _dot(gain, innov)
    return step


def _transport_drift(P_hat, dev, R, dt):
    """The transport variant's drift ``(1/2) R P_hat^+ (X^i - X_bar) dt``
    of a cloud's deviations ``dev``."""
    # frozen (NaN) trials would make the SVD fail; they stay NaN anyway
    P_hat = np.where(np.isfinite(P_hat), P_hat, 0.0)
    drift = 0.5 * (R @ np.linalg.pinv(_trials_first(P_hat), rcond=PINV_RCOND))
    drift = _dot(drift[0] if P_hat.ndim == 2 else drift.transpose(1, 2, 0), dev)
    drift *= dt
    return drift


def _linear_update(model: LinearGaussianModel, variant, dt: float, shape, xi_T=None):
    """The error frame's Euler step for clouds of ``shape``, (d, M, B) with
    the trials axis last or (d, M) for one trial:
    ``step(X, X_bar, dev, P_hat, noise, sensor, out)`` writes
    ``X + dt A X + noise + G innov`` (plus the transport drift) into ``out``
    and returns it.  ``X`` is the cloud minus the signal, ``X_bar``, ``dev``
    and ``P_hat`` its mean, deviations and sample covariance; the
    state-free terms are ``noise``, ``R^{1/2} (dV^i - dV)`` or
    ``-R^{1/2} dV`` (transport), and ``sensor``, ``R1^{1/2} (dW - dW^i)``
    (vanilla) or ``R1^{1/2} dW``.  The innovation is ``sensor - H X dt``
    (vanilla) or ``sensor - H (X + X_bar) dt / 2``, and the gain the linear
    one, ``G = (P_hat + xi_T) H' R1^{-1}``: the cross-covariance gain of
    :func:`_particle_update` in exact arithmetic, without its second
    contraction over the particles.
    """
    variant = Variant.parse(variant)
    one = len(shape) == 2
    times_A, times_minus_H = (_times(C, one) for C in (dt * model.A, -model.H))
    gain_factor = model.H.T @ model.R1_inv
    if xi_T is not None and not one:
        xi_T = xi_T[..., None]
    innov = np.empty((model.d_y,) + tuple(shape[1:]))
    # at d = d_y = 1 the gain's broadcast product overwrites the innovation
    buffers = innov, innov if model.d == model.d_y == 1 else np.empty(shape)

    def step(X, X_bar, dev, P_hat, noise, sensor, out):
        innov, product = buffers
        if variant is Variant.VANILLA:
            times_minus_H(X, out=innov)
        else:  # out holds X + X_bar until the step is written
            times_minus_H(np.add(X, X_bar, out=out), out=innov)
            innov *= 0.5
        innov *= dt
        innov += sensor
        times_A(X, out=out)
        out += X
        out += noise
        if variant is Variant.TRANSPORT:
            out += _transport_drift(P_hat, dev, model.R, dt)
        gain = _dot(P_hat if xi_T is None else P_hat + xi_T, gain_factor)
        out += _dot(gain, innov, out=product)
        return out

    return step


@_batched
def particle_cov_paths_nd(c, B, row, model: LinearGaussianModel, variant, N: int,
                          grid: TimeGrid, seed: int, trials: int, frame: str = "error",
                          m0=None, P0=None, record_indices=None, init="iid",
                          truth_seed=None, inflation=None, integral_from: int | None = None):
    """Batch of particle-filter paths in dimension d, all three variants.

    ``frame="error"`` steps the truth-relative coordinates ``U^i = X^i -
    signal`` with the linear gain, ``frame="absolute"`` the particles and
    the signal with the cross-covariance gain (see the module docstring).
    The signal starts from N(m0, P0), and so does each particle with
    ``init="iid"``; ``init="matched"`` (N >= d) centres and re-whitens each
    cloud, as :func:`~kbflow.ensemble.moment_matched_init` does, to sample
    mean m0 and sample covariance P0 exactly; ``init`` may instead be an
    array of initial clouds, shape (trials, d, N+1), of which each chunk
    takes its own rows.  ``truth_seed`` addresses the signal/observation
    channels under their own seed, at the chunk index.  ``inflation``
    (vanilla/deterministic only) puts ``P_hat + xi*T`` in the gain.

    Returns ``t``, ``cov`` (trials, n_rec, d, d: the sample covariance with
    divisor N), ``mean`` (trials, n_rec, d; the mean error in the error
    frame) and ``diverged_step``; in the absolute frame also ``error`` (mean
    minus signal); with ``integral_from`` also ``integral`` (trials, d, d),
    ``int (A - P_hat S) du`` from grid node ``integral_from`` on, over the
    steps before the trial diverges.
    """
    variant = Variant.parse(variant)
    if frame not in ("error", "absolute"):
        raise ValueError(f"unknown frame {frame!r}")
    d, d_y = model.d, model.d_y
    A, H, R, R1_inv, S = model.A, model.H, model.R, model.R1_inv, model.S
    sqrt_R, sqrt_R1 = model.sqrt_R, model.sqrt_R1
    xi_T = None
    if inflation is not None and inflation.active:
        if variant is Variant.TRANSPORT:
            raise ValueError("inflation applies to the vanilla/deterministic variants only")
        xi_T = inflation.xi * inflation.ref(d)
    dt = grid.dt
    K = grid.steps
    M = N + 1
    m0 = np.zeros(d) if m0 is None else np.asarray(m0, dtype=float).reshape(d)
    P0 = np.eye(d) if P0 is None else np.asarray(P0, dtype=float)
    P0_root = symmetric_sqrt(P0)
    if isinstance(init, str):
        if init not in ("iid", "matched"):
            raise ValueError(f"unknown init {init!r}; expected 'iid', 'matched' or an "
                             "array of clouds")
        if init == "matched" and N < d:
            raise ValueError(f"moment matching requires N >= d, got N={N}, d={d}")
    elif np.shape(init) != (trials, d, M):
        raise ValueError(f"initial clouds must have shape {(trials, d, M)}, "
                         f"got {np.shape(init)}")
    record_indices, rec_pos = _record_positions(K, record_indices)
    n_rec = len(record_indices)

    cov = np.full((B, n_rec, d, d), np.nan)
    mean = np.full((B, n_rec, d), np.nan)
    error = np.full((B, n_rec, d), np.nan) if frame == "absolute" else None
    integral = np.zeros((B, d, d)) if integral_from is not None else None
    div = np.full(B, -1, dtype=int)

    p_sig = None if variant is Variant.TRANSPORT else NoiseStream(seed, c, PARTICLE_SIGNAL)
    p_obs = NoiseStream(seed, c, PARTICLE_OBS) if variant is Variant.VANILLA else None
    t_init, t_sig, t_obs = _truth_channels(seed, truth_seed, c)
    # clouds are (d, M, B) stacks with the trials axis last, (d, M) for one
    # trial; so are the (d, 1) signal, means and (d, d) covariances
    one = B == 1
    lin = np.matmul if one else _lin
    col = (d, 1) if one else (d, 1, 1)
    if isinstance(init, str):
        G = NoiseStream(seed, c, PARTICLE_INIT).normals((B, d, M))
        if init == "matched":  # centred, then re-whitened: G = U s V' becomes sqrt(N) U V'
            G -= np.add.reduce(G, 2, keepdims=True) / M
            U, _, Vt = np.linalg.svd(G, full_matrices=False)
            G = math.sqrt(N) * _mm(U, Vt)
        X = m0.reshape(col) + lin(P0_root, _trials_last(G, 0, drop_one=True))
    else:
        X = _trials_last(np.asarray(init[row:row + B], dtype=float), 0, drop_one=True)
    truth = m0.reshape(col) + lin(P0_root, _trials_last(t_init.normals((B, d, 1)), 0,
                                                        drop_one=True))
    if frame == "error":
        X = X - truth
    # the records of step p as the kernel's stacks: [p] of these views, and
    # the integral as one
    cov_p, mean_p, error_p, acc = (None if a is None else _trials_at_end(a)
                                   for a in (cov, mean, error, integral))
    A_acc = A if one else A[..., None]
    dev, buf = np.empty_like(X), np.empty_like(X)

    def stats():
        X_bar = np.add.reduce(X, 1, keepdims=True) / M
        np.subtract(X, X_bar, out=dev)
        return X_bar, _gram(dev, dev) / N

    def rec(k, X_bar, P_hat):
        p = rec_pos[k]
        if p >= 0:
            cov_p[p] = P_hat
            mean_p[p] = X_bar[:, 0]
            if error is not None:
                error_p[p] = (X_bar - truth)[:, 0]

    def block_terms(dV, dW, dVi, dWi):
        if frame == "absolute":
            return (_block_product(sqrt_R1, dW), _block_product(sqrt_R, dVi),
                    _block_product(sqrt_R, dV), _block_product(sqrt_R1, dWi))
        # R1^{1/2} (dW - dWi) and R^{1/2} (dVi - dV) in place on the particle
        # blocks' copies, or R1^{1/2} dW and -R^{1/2} dV (transport)
        dV, dW = (a[:, 0] if one else a.transpose(0, 2, 3, 1) for a in (dV, dW))
        dVi, dWi = _trials_last(dVi, drop_one=True), _trials_last(dWi, drop_one=True)
        return (lin(sqrt_R1, dW) if dWi is None else
                lin(sqrt_R1, np.subtract(dW, dWi, out=dWi), out=dWi),
                lin(sqrt_R, -dV) if dVi is None else
                lin(sqrt_R, np.subtract(dVi, dV, out=dVi), out=dVi), None, None)

    X_bar, P_hat = stats()
    rec(0, X_bar, P_hat)
    update = _linear_update(model, variant, dt, X.shape, xi_T) if frame == "error" else None
    rows = _step_rows([(t_sig, (B, d, 1)), (t_obs, (B, d_y, 1)), (p_sig, (B, d, M)),
                       (p_obs, (B, d_y, M))], K, dt, block_terms)
    for k, (obs_k, noise_k, sig_k, obs_noise_k) in enumerate(rows):
        if acc is not None and k >= integral_from:
            np.add(acc, dt * (A_acc - _dot(P_hat, S)), out=acc, where=div < 0)
        if frame == "error":
            X, buf = update(X, X_bar, dev, P_hat, noise_k, obs_k, buf), X
        else:
            dY = lin(H, truth) * dt + obs_k
            truth = truth + dt * lin(A, truth) + sig_k
            X = _particle_update(X, lin(A, X), lin(H, X), dY,
                                 0.0 if noise_k is None else noise_k, dt, variant, R1_inv,
                                 obs_noise_k, R, None if xi_T is None else (xi_T, H), dev,
                                 P_hat)

        # a finite cloud whose second moments overflow counts as diverged
        X_bar, P_hat = stats()
        bad = (_nonfinite_trials(P_hat, view=_trials_first) if error is None
               else _nonfinite_trials(P_hat, truth, view=_trials_first))
        if _freeze(div, bad, k, X, X_bar, dev, P_hat, view=_trials_first):
            break
        rec(k + 1, X_bar, P_hat)

    out = {"t": grid.times()[record_indices], "cov": cov, "mean": mean, "diverged_step": div,
           "error": error, "integral": integral}
    return {key: value for key, value in out.items() if value is not None}


def particle_cov_paths_1d(model: LinearGaussianModel, variant, N: int, grid: TimeGrid,
                          seed: int, trials: int, chunk: int = CHUNK_SIZE, P0: float = 1.0,
                          record_indices=None, integral_from: int | None = None,
                          init: str = "iid", first_chunk: int = 0):
    """:func:`particle_cov_paths_nd` at d = 1 in the error frame, for the
    vanilla and deterministic variants, with a scalar ``P0`` and scalar
    outputs (:func:`_scalar_outputs`)."""
    if Variant.parse(variant) is Variant.TRANSPORT:
        raise ValueError("scalar particle engine covers the noisy variants only")
    return _scalar_outputs(model, particle_cov_paths_nd, variant=variant, N=N, grid=grid,
                           seed=seed, trials=trials, chunk=chunk,
                           P0=np.full((1, 1), float(P0)), record_indices=record_indices,
                           init=init, integral_from=integral_from, first_chunk=first_chunk)
