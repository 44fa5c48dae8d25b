"""Time grids, reproducible noise streams, schemes and PSD projection.

This module owns the plumbing shared by every simulator in the package:

* :class:`TimeGrid` — a uniform grid ``t0 + k*dt``, ``k = 0..steps``.
* :class:`NoiseStream` — a counter-based Gaussian stream addressed by
  ``(master_seed, trial_index, channel_tag)``.  Identical addresses yield
  bitwise identical draws regardless of scheduling, which is what makes
  paired experiments (same truth, different filters) and parallel studies
  reproducible.
* :class:`Scheme` — the time-stepping schemes of the law-level kernels in
  :mod:`kbflow._engines` (Euler-Maruyama and tamed Euler).
* :func:`_spectral_map` — the one symmetrize-and-map-the-spectrum
  arithmetic behind the PSD projection :func:`_project_psd_stack` and the
  square root :func:`_symmetric_sqrt_stack` of (B, d, d) stacks;
  :func:`project_psd` and :func:`kbflow.model.symmetric_sqrt` are these maps
  of a stack of one matrix.
"""

from __future__ import annotations

import enum
import math
import numbers
import zlib
from dataclasses import dataclass, field

import numpy as np

#: Hard floor on adaptive step sizes (see :class:`~kbflow.errors.StepSizeUnderflow`).
DT_MIN = 1e-12

#: Default cap on user-supplied step sizes.
DT_MAX = 1.0


def _as_int(name: str, value) -> int:
    """``value`` as an ``int``; a bool or a non-integral value (1.5, 8.7) is
    a ValueError naming ``name``."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or (
            isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_kappa(name: str, value) -> float:
    """``value`` as the noise intensity ``kappa``, 0 or 1, as a ``float``; a
    bool, a non-number or another value is a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value}")
    return float(value)


def _parse_enum(cls, value, what: str):
    """The member of enum ``cls`` that is ``value`` or has its string as
    value; another value is a ValueError listing the members."""
    if isinstance(value, cls):
        return value
    try:
        return cls(str(value))
    except ValueError:
        names = ", ".join(v.value for v in cls)
        raise ValueError(f"unknown {what} {value!r}; expected one of: {names}")


# ---------------------------------------------------------------------------
# time grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with ``steps`` intervals of width ``dt`` from ``t0``.

    Parameters
    ----------
    t0 : float
        Left endpoint.
    dt : float
        Step size; must be positive and at most ``dt_max``.
    steps : int
        Number of steps (the grid has ``steps + 1`` nodes).
    dt_max : float, optional
        Upper bound on ``dt``; configuration knob, defaults to 1.0.
    """

    t0: float
    dt: float
    steps: int
    dt_max: float = DT_MAX

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.dt > self.dt_max:
            raise ValueError(f"dt={self.dt} exceeds dt_max={self.dt_max}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @classmethod
    def from_horizon(cls, t0: float, horizon: float, dt: float, **kw) -> "TimeGrid":
        """Build a grid covering ``[t0, t0 + horizon]`` with step ``dt``.

        ``horizon`` must be an integer multiple of ``dt`` to a relative
        tolerance of 1e-12, so that ``dt * steps`` reproduces it exactly in
        the sense of the grid invariant.
        """
        steps = int(round(horizon / dt))
        if steps < 1 or abs(steps * dt - horizon) > 1e-12 * max(1.0, abs(horizon)):
            raise ValueError(
                f"horizon {horizon} is not an integer multiple of dt={dt}"
            )
        return cls(t0, dt, steps, **kw)

    @property
    def horizon(self) -> float:
        return self.dt * self.steps

    @property
    def t_end(self) -> float:
        return self.t0 + self.horizon

    def times(self) -> np.ndarray:
        """All ``steps + 1`` node times."""
        return self.t0 + self.dt * np.arange(self.steps + 1)


# ---------------------------------------------------------------------------
# noise streams
# ---------------------------------------------------------------------------

def _channel_key(channel: str) -> int:
    return zlib.crc32(channel.encode("utf-8"))


@dataclass
class NoiseStream:
    """Reproducible Gaussian increment source.

    A stream is addressed by ``(master_seed, trial_index, channel_tag)``.
    The underlying generator is a Philox counter-based bit generator keyed
    through ``SeedSequence(master_seed, spawn_key=(trial_index,
    crc32(channel_tag)))``, so distinct addresses give independent streams
    and the same address always replays the same sequence.  ``cursor``
    counts scalar variates drawn so far.
    """

    master_seed: int
    trial_index: int = 0
    channel_tag: str = "main"
    cursor: int = field(default=0, init=False)

    def __post_init__(self):
        key = np.random.SeedSequence(
            self.master_seed,
            spawn_key=(self.trial_index, _channel_key(self.channel_tag)),
        )
        self._gen = np.random.Generator(np.random.Philox(key))

    def normals(self, shape) -> np.ndarray:
        """Standard normal draws of the given shape."""
        out = self._gen.standard_normal(shape)
        self.cursor += int(out.size)
        return out

    def increments(self, shape, dt: float) -> np.ndarray:
        """Brownian increments: i.i.d. N(0, dt) of the given shape."""
        if not (dt > 0):
            raise ValueError(f"dt must be positive, got {dt}")
        return self.normals(shape) * np.sqrt(dt)


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------

class Scheme(enum.Enum):
    """Time-stepping scheme of the law-level kernel
    :func:`kbflow._engines.law_cov_paths_nd` (and of its d = 1 adapter).

    ``TAMED_EULER`` replaces the drift ``b`` by ``b / (1 + dt*||b||)``,
    which bounds the drift contribution of a single step by ``||b||·dt /
    (1 + dt·||b||) ≤ 1`` and prevents the explosion that a naive Euler step
    can produce under superlinear feedback.  The diffusion term is not
    modified.
    """

    EULER_MARUYAMA = "euler_maruyama"
    TAMED_EULER = "tamed_euler"

    @classmethod
    def parse(cls, value) -> "Scheme":
        return _parse_enum(cls, value, "scheme")


# ---------------------------------------------------------------------------
# PSD projection
# ---------------------------------------------------------------------------

def project_psd(M: np.ndarray) -> np.ndarray:
    """Symmetrize ``M`` and clamp its negative eigenvalues up to zero: the
    stack projection :func:`_project_psd_stack` of the one matrix.

    The projection is total: callers that need a hard failure on a
    negative eigenvalue check the input first, and a non-finite ``M``
    comes out NaN.  The output satisfies ``||out - sym(M)||_F <= |most
    negative eigenvalue|·sqrt(d)``.
    """
    return _project_psd_stack(np.asarray(M, dtype=float)[None])[0]


# ---------------------------------------------------------------------------
# symmetric matrix stacks (the arithmetic of project_psd / symmetric_sqrt /
# log_norm)
# ---------------------------------------------------------------------------

def _swap(M):
    return M.swapaxes(-1, -2)


def _sym(M):
    """Symmetric part of each matrix of a stack; a 1x1 matrix is its own."""
    return M if M.shape[-1] == 1 else 0.5 * (M + _swap(M))


def _mm(a, b):
    """``a @ b``.  A contraction of length 1 is the broadcast product, the
    same numbers without numpy's per-matrix matmul loop (d = 1, d_y = 1);
    a 0-d ``a`` stands for a 1x1 matrix."""
    return a * b if a.ndim == 0 or a.shape[-1] == 1 else a @ b


def _nonfinite_trials(*stacks, view=None):
    """Mask of the trials (leading axis) with a non-finite entry in any of
    the stacks, or None when there is none; ``view`` maps a stack whose
    trials axis is not the leading one to a view where it is.

    One sum over each stack settles the common case: a finite total means
    every entry is finite.  Only a non-finite total (a non-finite entry, or
    finite entries whose sum overflows) builds the per-trial mask.
    """
    total = 0.0
    for s in stacks:
        total += np.add.reduce(s, axis=None)
    if math.isfinite(total):
        return None
    if view is not None:
        stacks = [view(s) for s in stacks]
    bad = np.zeros(len(stacks[0]), dtype=bool)
    for s in stacks:
        bad |= ~np.isfinite(s).all(axis=tuple(range(1, s.ndim)))
    return bad if bad.any() else None


def _spectral_map(M, fn, keep_psd: bool, eig=None):
    """Symmetrize each matrix of a (B, d, d) stack and map its spectrum by
    ``fn``: the PSD projection (``keep_psd``: a matrix with no negative
    eigenvalue is returned symmetrized, unchanged) and the square root (at
    d = 1 the map of the single entry).  Non-finite (frozen) matrices come
    out NaN instead of tripping eigh.

    Returns ``(out, eig)``.  For ``keep_psd`` maps ``eig = (w, V, kept)``:
    the ``eigh`` of each symmetrized matrix, and which finite matrices came
    out unchanged, so that ``(w, V)`` is the ``eigh`` of ``out`` there
    (otherwise, and at d = 1 where no ``eigh`` runs, ``eig`` is None).
    Given such an ``eig``, the map reuses its ``(w, V)`` where ``kept`` and
    runs ``eigh`` only on the other matrices.
    """
    sym = _sym(M)
    if M.shape[-1] == 1:
        return fn(sym), None
    bad = _nonfinite_trials(sym)
    if bad is not None:
        sym = np.where(bad[:, None, None], np.eye(M.shape[-1]), sym)
    if eig is None:
        w, V = np.linalg.eigh(sym)
    else:
        w, V, kept = eig
        if not kept.all():
            w, V = w.copy(), V.copy()
            w[~kept], V[~kept] = np.linalg.eigh(sym[~kept])
    kept = w[:, 0] >= 0.0
    if keep_psd and bad is None and kept.all():
        return sym, (w, V, kept)
    out = (V * fn(w)[:, None, :]) @ _swap(V)
    if keep_psd:
        out = np.where(kept[:, None, None], sym, out)
    if bad is not None:
        out[bad] = np.nan
        kept &= ~bad
    return out, (w, V, kept) if keep_psd else None


def _project_psd_stack(M, with_eig: bool = False):
    """:func:`project_psd` of each matrix of a stack; ``with_eig`` also
    returns the ``eig`` of :func:`_spectral_map`."""
    out, eig = _spectral_map(M, lambda w: np.maximum(w, 0.0), keep_psd=True)
    return (out, eig) if with_eig else out


def _symmetric_sqrt_stack(M, eig=None):
    """:func:`kbflow.model.symmetric_sqrt` of each matrix of a PSD stack,
    reusing a projection's ``eig`` (see :func:`_spectral_map`)."""
    return _spectral_map(M, lambda w: np.sqrt(np.maximum(w, 0.0)), keep_psd=False,
                         eig=eig)[0]
