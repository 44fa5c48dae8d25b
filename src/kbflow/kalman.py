"""Exact Kalman-Bucy filtering for linear-Gaussian models.

Provides the deterministic Riccati flow ``phi_t(Q)``, the filter mean ODE
driven by simulated observations, the exponential semigroup ``E_{s,t}(Q)``
of the linearized error dynamics, and the two-sided Gramian sandwich check
on the Riccati flow.  All three deterministic objects are stepped by the
exact Hamiltonian (Moebius) propagator of the Riccati equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import NonFinite
from .model import (LinearGaussianModel, _hamiltonian_propagator, _mobius_step, _ricc,
                    gramians, solve_are)
from .sde import NoiseStream, TimeGrid, project_psd

# Channel tags for the truth co-simulation.  run_enkf uses the same tags with
# the same seed, so an exact filter and an ensemble filter given equal seeds
# consume bitwise-identical signal/observation paths.
TRUTH_INIT = "truth-init"
TRUTH_SIGNAL = "truth-signal"
TRUTH_OBS = "truth-obs"


@dataclass
class RiccatiState:
    """Riccati flow sample: time ``t`` and covariance ``P`` (symmetrized and
    PSD-clamped at construction)."""

    t: float
    P: np.ndarray

    def __post_init__(self):
        self.P = project_psd(np.asarray(self.P, dtype=float))


@dataclass
class KalmanState:
    """One grid point of an exact filter run.

    ``X`` is the conditional mean, ``P`` the Riccati covariance, and ``Z``
    the realized error ``X - signal`` (None when no truth was simulated).
    """

    t: float
    X: np.ndarray
    P: RiccatiState
    Z: np.ndarray | None = None


@dataclass
class SemigroupMatrix:
    """Fundamental matrix ``E_{s,t}(Q)`` of ``dE = (A - phi_u(Q) S) E du``.

    ``trace_integral`` carries ``int_s^t Tr(A - phi_u S) du`` along the same
    flow; ``exp(trace_integral)`` equals ``det E`` (volume identity).
    """

    s: float
    t: float
    E: np.ndarray
    trace_integral: float = field(default=0.0)


def ricc_drift(model: LinearGaussianModel, P) -> np.ndarray:
    """The Riccati drift ``A P + P A' - P S P + R`` (symmetrized)."""
    return _ricc(model.A, model.S, model.R, np.asarray(P, dtype=float))


def _mobius_flow(A, S, R, Q, grid: TimeGrid) -> list[RiccatiState]:
    """Flow of ``P' = A P + P A' - P S P + R`` from ``Q`` reported on ``grid``.

    One propagator (:func:`~kbflow.model._hamiltonian_propagator`) serves
    every grid step because the grid is uniform; every sub-step is
    symmetrized and PSD-clamped.
    """
    n_sub, phi = _hamiltonian_propagator(A, S, R, grid.dt)
    times = grid.times()
    out = [RiccatiState(t=float(times[0]), P=Q)]
    for t in times[1:]:
        P = out[-1].P
        for _ in range(n_sub - 1):
            P = project_psd(_mobius_step(phi, P)[1])
        # RiccatiState symmetrizes and PSD-clamps the last sub-step
        out.append(RiccatiState(t=float(t), P=_mobius_step(phi, P)[1]))
    return out


def _riccati_endpoint(model: LinearGaussianModel, Q, t: float) -> np.ndarray:
    """``phi_t(Q)`` by the exact propagator over ``[0, t]``."""
    n_sub, phi = _hamiltonian_propagator(model.A, model.S, model.R, t)
    P = Q
    for _ in range(n_sub):
        P = project_psd(_mobius_step(phi, P)[1])
    return P


def riccati_flow(model: LinearGaussianModel, Q, grid: TimeGrid) -> list[RiccatiState]:
    """Deterministic Riccati flow from ``Q`` reported on ``grid``.

    Stepped by the exact Hamiltonian (Moebius) propagator of the Riccati
    equation, so the nodes are exact up to ``expm`` and step roundoff; a
    grid step with ``dt ||Ham||_1 > HAM_STEP_MAX`` is split into equal
    sub-steps.  Every step is symmetrized and PSD-clamped.
    """
    return _mobius_flow(model.A, model.S, model.R, Q, grid)


def semigroup_E(model: LinearGaussianModel, Q, s: float, t: float) -> SemigroupMatrix:
    """Exponential semigroup ``E_{s,t}(Q)`` of the closed-loop linearization.

    The solution of ``dE/du = (A - phi_u(Q) S) E``, ``E_{s,s} = I``, with the
    running trace of the generator.  The Riccati flow is stepped to ``s`` and
    then on to ``t`` by the exact propagator; the factor ``X`` of each
    sub-step gives ``E <- X^{-T} E`` and subtracts ``log det X`` from the
    trace integral (exact up to ``expm`` and step roundoff).
    """
    if not (0 <= s <= t):
        raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
    d = model.d
    P = _riccati_endpoint(model, project_psd(np.asarray(Q, dtype=float)), s)
    E, ell = np.eye(d), 0.0
    if t == s:
        return SemigroupMatrix(s=float(s), t=float(t), E=E, trace_integral=ell)
    n_sub, phi = _hamiltonian_propagator(model.A, model.S, model.R, t - s)
    for _ in range(n_sub):
        X, P = _mobius_step(phi, P)
        P = project_psd(P)
        E = np.linalg.solve(X.T, E)
        ell -= np.linalg.slogdet(X)[1]
    return SemigroupMatrix(s=float(s), t=float(t), E=E, trace_integral=float(ell))


def kalman_run(model: LinearGaussianModel, x0, Q, truth_seed: int, grid: TimeGrid,
               m0=None, P0=None) -> list[KalmanState]:
    """Co-simulate signal, observations, and the exact filter on ``grid``.

    The signal and observation paths are generated internally from
    ``truth_seed`` on dedicated channels (an ensemble run given the same
    seed consumes the identical paths).  SDE parts are stepped by
    Euler-Maruyama on the grid; the covariance is the exact Riccati flow
    of :func:`riccati_flow` (Hamiltonian propagator, exact up to ``expm``
    roundoff, sub-stepped when ``dt ||Ham||_1 > HAM_STEP_MAX``).

    Parameters
    ----------
    x0 : (d,) array_like
        Filter initial mean.
    Q : (d, d) array_like
        Filter initial covariance (PSD).
    truth_seed : int
        Master seed for the truth channels.
    m0, P0 : optional
        Mean/covariance of the simulated signal's Gaussian initial condition;
        default ``m0 = 0`` and ``P0 = Q``.

    Raises
    ------
    NonFinite
        If the filter or signal state stops being finite (catastrophic
        divergence detector; carries the offending step index).
    """
    d = model.d
    x = np.asarray(x0, dtype=float).reshape(d)
    Q = project_psd(np.asarray(Q, dtype=float))
    m0 = np.zeros(d) if m0 is None else np.asarray(m0, dtype=float).reshape(d)
    P0 = Q if P0 is None else project_psd(np.asarray(P0, dtype=float))

    cov_path = riccati_flow(model, Q, grid)

    init = NoiseStream(truth_seed, 0, TRUTH_INIT)
    signal = NoiseStream(truth_seed, 0, TRUTH_SIGNAL)
    obs = NoiseStream(truth_seed, 0, TRUTH_OBS)

    from .model import symmetric_sqrt

    truth = m0 + symmetric_sqrt(P0) @ init.normals(d)
    times = grid.times()
    dt = grid.dt
    out = [KalmanState(t=float(times[0]), X=x.copy(), P=cov_path[0], Z=x - truth)]
    for k in range(grid.steps):
        dV = signal.increments(d, dt)
        dW = obs.increments(model.d_y, dt)
        dY = model.H @ truth * dt + model.sqrt_R1 @ dW
        gain = model.gain(cov_path[k].P)
        x = x + dt * (model.A @ x) + gain @ (dY - model.H @ x * dt)
        truth = truth + dt * (model.A @ truth) + model.sqrt_R @ dV
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(truth))):
            raise NonFinite(k + 1, t=float(times[k + 1]), what="exact filter state")
        out.append(KalmanState(t=float(times[k + 1]), X=x.copy(),
                               P=cov_path[k + 1], Z=x - truth))
    return out


@dataclass
class SandwichReport:
    """Result of the two-sided Riccati bound check.

    ``margins`` holds the smallest eigenvalue of each bound's slack matrix
    (nonnegative up to -1e-8 when the bound holds):

    * ``lower`` — ``phi_t(Q) - (O_tau(C) + C_tau^{-1})^{-1}``
    * ``upper_gramian`` — ``O_tau^{-1} + C_tau(O) - phi_t(Q)``
    * ``upper_fixed_point`` — ``P_inf + e^{(A-P_inf S)t}(Q-P_inf)e^{(A-P_inf S)'t} - phi_t(Q)``
    """

    ok: bool
    margins: dict

    def __bool__(self):
        return self.ok


def check_riccati_sandwich(model: LinearGaussianModel, Q, tau: float, t: float,
                           slack: float = 1e-8) -> SandwichReport:
    """Verify the uniform two-sided bounds on ``phi_t(Q)`` for ``t >= tau``.

    The lower and first upper bound come from the windowed Gramians over
    ``[0, tau]``; the second upper bound transports the initial offset
    ``Q - P_inf`` through the steady closed-loop propagator.  ``phi_t(Q)``
    comes from the exact Hamiltonian propagator.
    """
    if not (0 < tau <= t):
        raise ValueError(f"need 0 < tau <= t, got tau={tau}, t={t}")
    Q = project_psd(np.asarray(Q, dtype=float))
    g = gramians(model, tau)
    lower = np.linalg.inv(g.O_tau_of_C + np.linalg.inv(g.C_tau))
    upper1 = np.linalg.inv(g.O_tau) + g.C_tau_of_O

    P_inf = solve_are(model).P
    prop = expm((model.A - P_inf @ model.S) * t)
    upper2 = P_inf + prop @ (Q - P_inf) @ prop.T
    phi = _riccati_endpoint(model, Q, t)

    margins = {
        "lower": float(np.linalg.eigvalsh(phi - lower)[0]),
        "upper_gramian": float(np.linalg.eigvalsh(upper1 - phi)[0]),
        "upper_fixed_point": float(np.linalg.eigvalsh(upper2 - phi)[0]),
    }
    ok = all(v >= -slack for v in margins.values())
    return SandwichReport(ok=ok, margins=margins)
