"""Classical RK4 steps and adaptive RK4 with step-doubling error control.

Internal helper for the one flow that is not a Riccati flow: the scalar
CLT variance oracle (:func:`adaptive_rk4`).  (Every deterministic Riccati
object uses the exact Hamiltonian propagator of :mod:`kbflow.model`, and
:func:`kbflow.ensemble.stochastic_semigroup` builds its RK4 steps as
matrices.)  The right-hand sides are smooth, so classical
RK4 with Richardson step doubling gives reliable local error estimates: one
step of size ``h`` is compared against two steps of size ``h/2`` and the
difference over 15 estimates the local error of the fine result.  Steps are
accepted when that estimate is below ``tol * h`` (``tol`` is an error budget
per unit time).
"""

from __future__ import annotations

import numpy as np

from .errors import StepSizeUnderflow
from .sde import DT_MIN

_SAFETY = 0.9
_GROW_MAX = 5.0
_SHRINK_MIN = 0.2


def rk4_step(f, t, y, h):
    """One classical Runge-Kutta-4 step of size ``h``."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def adaptive_rk4(f, y0, t0, t1, tol=1e-8):
    """Integrate ``y' = f(t, y)`` from ``t0`` to ``t1`` adaptively.

    Parameters
    ----------
    f : callable
        ``f(t, y) -> dy/dt`` with ``y`` an arbitrary-shape float array.
    y0 : array_like
        Initial value.
    t0, t1 : float
        Integration interval (``t1 >= t0``).
    tol : float
        Error budget per unit time: a step of size ``h`` is accepted when
        the step-doubling estimate is at most ``tol * h``.  The first step
        is the interval length capped at 0.1.

    Raises
    ------
    StepSizeUnderflow
        If error control forces the step below ``DT_MIN`` (1e-12).
    """
    y = np.array(y0, dtype=float)
    t = float(t0)
    span = float(t1) - t
    if span < 0:
        raise ValueError(f"t1={t1} precedes t0={t0}")
    if span == 0:
        return y
    h = min(span, 0.1)
    while t < t1:
        h = min(h, t1 - t)
        if h < DT_MIN:
            raise StepSizeUnderflow(f"step {h:.3e} below floor {DT_MIN:.0e} at t={t:.6g}")
        y_full = rk4_step(f, t, y, h)
        y_half = rk4_step(f, t + 0.5 * h, rk4_step(f, t, y, 0.5 * h), 0.5 * h)
        diff = y_half - y_full
        err = float(np.linalg.norm(diff.ravel(), ord=np.inf)) / 15.0
        budget = tol * h
        if not np.isfinite(err):
            h *= _SHRINK_MIN
            continue
        if err <= budget:
            t += h
            y = y_half
            grow = _GROW_MAX if err == 0.0 else min(_GROW_MAX, _SAFETY * (budget / err) ** 0.25)
            h *= max(grow, _SHRINK_MIN)
        else:
            h *= max(_SHRINK_MIN, _SAFETY * (budget / err) ** 0.25)
    return y
