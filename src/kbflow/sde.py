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
* :func:`project_psd` — symmetrize-and-clamp projection used after every
  covariance update.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field

import numpy as np

#: Hard floor on adaptive step sizes (see :class:`~kbflow.errors.StepSizeUnderflow`).
DT_MIN = 1e-12

#: Default cap on user-supplied step sizes.
DT_MAX = 1.0


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

    A stream is addressed by ``master_seed`` plus a ``stream_id`` of
    ``(trial_index, channel_tag)``.  The underlying generator is a Philox
    counter-based bit generator keyed through ``SeedSequence(master_seed,
    spawn_key=(trial_index, crc32(channel_tag)))``, so distinct addresses
    give independent streams and the same address always replays the same
    sequence.  ``cursor`` counts scalar variates drawn so far.
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

    @property
    def stream_id(self) -> tuple:
        return (self.trial_index, self.channel_tag)

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
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            names = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown scheme {value!r}; expected one of: {names}")


# ---------------------------------------------------------------------------
# PSD projection
# ---------------------------------------------------------------------------

def project_psd(M: np.ndarray, clamp: float = 0.0) -> np.ndarray:
    """Symmetrize ``M`` and clamp eigenvalues below ``-clamp`` up to zero.

    Eigenvalues in ``[-clamp, 0)`` are treated as roundoff and set to zero;
    more negative ones are also clamped (the projection is total), but the
    distance moved is reported by the eigenvalue magnitude, and callers that
    need a hard failure should check the input first.  The output satisfies
    ``||out - sym(M)||_F <= |most negative eigenvalue|·sqrt(d)``.
    """
    M = np.asarray(M, dtype=float)
    sym = 0.5 * (M + M.T)
    if sym.shape == (1, 1):
        return np.array([[max(sym[0, 0], 0.0)]])
    w, V = np.linalg.eigh(sym)
    if w[0] >= 0.0:
        return sym
    w = np.maximum(w, 0.0)
    return (V * w) @ V.T
