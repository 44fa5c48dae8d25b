"""Exact Kalman-Bucy filtering for linear-Gaussian models.

Provides the deterministic Riccati flow ``phi_t(Q)``, the filter mean ODE
driven by simulated observations, the exponential semigroup ``E_{s,t}(Q)``
of the linearized error dynamics, and the two-sided Gramian sandwich check
on the Riccati flow.  All three deterministic objects are stepped by the
exact Hamiltonian (Moebius) propagator of the Riccati equation, a span of
grid nodes at a time (:func:`kbflow.model._riccati_nodes`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from . import _engines
from ._engines import TRUTH_INIT, TRUTH_OBS, TRUTH_SIGNAL
from .errors import NonFinite
from .model import (LinearGaussianModel, _check_covariance, _hamiltonian_propagator,
                    _mobius_spans, _ricc, _riccati_nodes, gramians, log_norm,
                    solve_are, symmetric_sqrt)
from .sde import NoiseStream, TimeGrid, _as_int


@dataclass
class RiccatiState:
    """Riccati flow sample: time ``t`` and covariance ``P`` (PSD-projected
    by its producer, not here)."""

    t: float
    P: np.ndarray


@dataclass
class RiccatiPath:
    """A Riccati flow on a grid: node times ``t`` (K+1,) and covariances
    ``P`` (K+1, d, d).  ``path[k]`` and iteration give :class:`RiccatiState`
    nodes, built on access; a slice gives a shorter path."""

    t: np.ndarray
    P: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return RiccatiPath(self.t[k], self.P[k])
        return RiccatiState(float(self.t[k]), self.P[k])

    def __iter__(self):
        return map(RiccatiState, self.t.tolist(), self.P)


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
class TrajectoryRecord:
    """Per-grid-point records of a filter run (exact, ensemble or law-level).

    ``mean``/``cov``/``error`` hold the (sample) mean, (sample) covariance
    and realized error ``mean - signal``; ``mu_closed_loop`` is the
    logarithmic norm of ``A - P S`` along the run.  After a catastrophic
    divergence at ``diverged_at``, remaining rows are NaN.  ``record[k]``
    and iteration give grid points as :class:`KalmanState`; no slicing.
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

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, k) -> KalmanState:
        k = operator.index(k)
        t = float(self.t[k])
        return KalmanState(t=t, X=self.mean[k], P=RiccatiState(t, self.cov[k]),
                           Z=self.error[k])


@_engines._quiet_divergence
def _kernel_record(model, grid, mean, cov, error, **fields) -> TrajectoryRecord:
    """Record of a B = 1 run.  From the first node whose mean or
    closed-loop matrix ``A - P S`` is not finite (the divergence) on, rows
    are NaN; a finite covariance that overflows here counts as diverged."""
    times = grid.times()
    closed = model.A - cov @ model.S
    ok = np.all(np.isfinite(closed), axis=(1, 2)) & np.all(np.isfinite(mean), axis=1)
    k = len(times) if ok.all() else int(np.argmin(ok))
    closed = closed[:k]
    mu = np.full(len(times), np.nan)
    mu[:k] = log_norm(closed)
    for rows in (mean, cov, error):
        rows[k:] = np.nan
    return TrajectoryRecord(t=times, mean=mean, cov=cov, error=error, mu_closed_loop=mu,
                            diverged_at=None if k == len(times) else float(times[k]),
                            **fields)


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


def _riccati_endpoint(model: LinearGaussianModel, Q, t: float) -> np.ndarray:
    """``phi_t(Q)`` by the exact propagator over ``[0, t]``."""
    return _riccati_nodes(model.A, model.S, model.R, Q, t, 1)[-1]


def riccati_flow(model: LinearGaussianModel, Q, grid: TimeGrid) -> RiccatiPath:
    """Deterministic Riccati flow from ``Q`` reported on ``grid``.

    Stepped by the exact Hamiltonian (Moebius) propagator of the Riccati
    equation, so the nodes are exact up to ``expm`` and step roundoff.  A
    grid step with ``dt ||Ham||_1 > HAM_STEP_MAX`` is split into equal
    sub-steps; otherwise the nodes are mapped a span at a time, each node
    ``j`` of a span straight from the span's first node by ``Phi^j`` (one
    stacked solve and one stacked PSD projection per span).  Every node is
    symmetrized and PSD-clamped.  Returns the nodes as a :class:`RiccatiPath`.

    Raises
    ------
    ValueError, NotPSD
        If ``Q`` is not a d x d PSD matrix (see
        :func:`~kbflow.model._check_covariance`).
    """
    Q = _check_covariance(Q, model.d)
    return RiccatiPath(grid.times(), _riccati_nodes(model.A, model.S, model.R, Q,
                                                    grid.dt, grid.steps))


def semigroup_E(model: LinearGaussianModel, Q, s: float, t: float) -> SemigroupMatrix:
    """Exponential semigroup ``E_{s,t}(Q)`` of the closed-loop linearization.

    The solution of ``dE/du = (A - phi_u(Q) S) E``, ``E_{s,s} = I``, with the
    running trace of the generator.  The Riccati flow is stepped to ``s`` and
    then on to ``t`` by the exact propagator; the factor ``X`` of each span
    gives ``E <- X^{-T} E`` and subtracts ``log det X`` from the trace
    integral (exact up to ``expm`` and step roundoff).  ``Q`` is checked as
    in :func:`riccati_flow`.
    """
    if not (0 <= s <= t):
        raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
    d = model.d
    P = _riccati_endpoint(model, _check_covariance(Q, d), s)
    E, ell = np.eye(d), 0.0
    if t == s:
        return SemigroupMatrix(s=float(s), t=float(t), E=E, trace_integral=ell)
    n_sub, powers = _hamiltonian_propagator(model.A, model.S, model.R, t - s)
    for X, _ in _mobius_spans(powers, P, n_sub):
        E = np.linalg.solve(X.T, E)
        ell -= np.linalg.slogdet(X)[1]
    return SemigroupMatrix(s=float(s), t=float(t), E=E, trace_integral=float(ell))


def kalman_run(model: LinearGaussianModel, x0, Q, truth_seed: int, grid: TimeGrid,
               m0=None, P0=None) -> TrajectoryRecord:
    """Co-simulate signal, observations, and the exact filter on ``grid``.

    The signal and observation paths are generated internally from
    ``truth_seed`` on dedicated channels (an ensemble run given the same
    seed consumes the identical paths), drawn a block of steps at a time as
    the ensemble kernels draw them.  SDE parts are stepped by
    Euler-Maruyama on the grid; the covariance is the exact Riccati flow
    of :func:`riccati_flow`, computed first, and the gains
    ``P H' R1^{-1}`` of all nodes are one stacked product.

    Parameters
    ----------
    x0 : (d,) array_like
        Filter initial mean.
    Q : (d, d) array_like
        Filter initial covariance (PSD).
    truth_seed : int
        Master seed for the truth channels; an integral float (``2.0``) is
        taken as that integer.
    m0, P0 : optional
        Mean/covariance of the simulated signal's Gaussian initial condition;
        default ``m0 = 0`` and ``P0 = Q``.

    Returns
    -------
    TrajectoryRecord
        Variant ``"exact"``, ``seed = truth_seed``, ``cov`` the flow's nodes.

    Raises
    ------
    ValueError, NotPSD
        If ``truth_seed`` is a bool or not integral, or ``Q`` or ``P0`` is
        not a d x d PSD matrix.
    NonFinite
        If the filter or signal state stops being finite (catastrophic
        divergence detector; carries the offending step index).
    """
    d, K, dt = model.d, grid.steps, grid.dt
    truth_seed = _as_int("truth_seed", truth_seed)
    x = np.asarray(x0, dtype=float).reshape(d)
    Q = _check_covariance(Q, d)
    m0 = np.zeros(d) if m0 is None else np.asarray(m0, dtype=float).reshape(d)
    P0 = Q if P0 is None else _check_covariance(P0, d, "P0")

    nodes = _riccati_nodes(model.A, model.S, model.R, Q, dt, K)
    gains = model.gain(nodes[:-1])

    init = NoiseStream(truth_seed, 0, TRUTH_INIT)
    signal = NoiseStream(truth_seed, 0, TRUTH_SIGNAL)
    obs = NoiseStream(truth_seed, 0, TRUTH_OBS)

    A, H, sqrt_R, sqrt_R1 = model.A, model.H, model.sqrt_R, model.sqrt_R1
    xs = np.empty((K + 1, d))
    truths = np.empty((K + 1, d))
    xs[0] = x
    truths[0] = truth = m0 + symmetric_sqrt(P0) @ init.normals(d)
    # a divergence is found after the loop, at the first non-finite node
    with np.errstate(over="ignore", invalid="ignore"):
        draws = _engines._step_rows([(signal, (d,)), (obs, (model.d_y,))], K, dt)
        for k, (dV, dW) in enumerate(draws):
            dY = H @ truth * dt + sqrt_R1 @ dW
            x = x + dt * (A @ x) + gains[k] @ (dY - H @ x * dt)
            truth = truth + dt * (A @ truth) + sqrt_R @ dV
            xs[k + 1], truths[k + 1] = x, truth
    bad = ~(np.isfinite(xs[1:]).all(axis=1) & np.isfinite(truths[1:]).all(axis=1))
    if bad.any():
        k = int(np.argmax(bad)) + 1
        raise NonFinite(k, t=float(grid.times()[k]), what="exact filter state")
    return _kernel_record(model, grid, xs, nodes, xs - truths, variant="exact",
                          seed=truth_seed)


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
    Q = _check_covariance(Q, model.d)
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
