"""Model definition and structural analysis.

A :class:`LinearGaussianModel` couples a linear signal diffusion with a
linear sensor:

    dX_t = A X_t dt + R^{1/2} dV_t,        dY_t = H X_t dt + R1^{1/2} dW_t,

where ``R`` is the signal noise covariance and ``R1`` the (positive
definite) sensor noise covariance.  Everything downstream — exact filters,
ensemble filters, Riccati flows — consumes this object.  The module also
provides the structural checks (controllability/observability), the
observability/controllability Gramians over a window, the algebraic Riccati
fixed point, and small spectral utilities.  The matrix maps have one
implementation each: :func:`symmetric_sqrt` is the stack square root of
:mod:`kbflow.sde` applied to one matrix, and :func:`log_norm` takes one
matrix or a stack.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

from .errors import NoStabilizingSolution, NotPSD, SingularGramian
from .sde import (_mm, _project_psd_stack, _spectral_map, _swap, _sym, _symmetric_sqrt_stack,
                  project_psd)

#: Relative singular-value threshold for rank decisions.
RANK_TOL = 1e-10

#: Condition-number ceiling beyond which a Gramian is declared singular.
COND_MAX = 1e12

#: Largest ``h * ||Ham||_1`` of one Riccati propagator sub-step: a step longer
#: than this is split into equal sub-steps, so ``expm(h * Ham)`` and the
#: linear-fractional step stay well scaled (no overflow for stiff models).
HAM_STEP_MAX = 1.0

#: Most sub-steps one span of the Riccati propagator maps with one stacked
#: solve (it keeps the span's powers of the propagator: O(SPAN_MAX d^2)
#: memory).
SPAN_MAX = 1024


# ---------------------------------------------------------------------------
# model types
# ---------------------------------------------------------------------------

def _check_symmetric(M, name, tol=1e-12):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > tol * scale:
        raise ValueError(f"{name} is not symmetric")
    return 0.5 * (M + M.T)


class LinearGaussianModel:
    """Linear-Gaussian signal/observation model.

    Parameters
    ----------
    A : (d, d) array_like
        Signal drift matrix.
    H : (d_y, d) array_like
        Sensor matrix.
    R : (d, d) array_like
        Signal noise covariance; symmetric PSD (``R = 0`` is allowed).
    R1 : (d_y, d_y) array_like
        Sensor noise covariance; symmetric positive definite.

    Attributes
    ----------
    d, d_y : int
        State and observation dimensions.
    S : (d, d) ndarray
        The information-rate matrix ``H' R1^{-1} H`` (derived, never
        serialized).
    """

    def __init__(self, A, H, R, R1):
        A = np.asarray(A, dtype=float)
        H = np.asarray(H, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        d = A.shape[0]
        if H.ndim != 2 or H.shape[1] != d:
            raise ValueError(f"H must be d_y x {d}, got shape {H.shape}")
        d_y = H.shape[0]
        R = _check_symmetric(R, "R")
        if R.shape != (d, d):
            raise ValueError(f"R must be {d} x {d}, got shape {R.shape}")
        R1 = _check_symmetric(R1, "R1")
        if R1.shape != (d_y, d_y):
            raise ValueError(f"R1 must be {d_y} x {d_y}, got shape {R1.shape}")
        for name, M in (("A", A), ("H", H), ("R", R), ("R1", R1)):
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} contains non-finite entries")

        w_R = np.linalg.eigvalsh(R)
        if w_R[0] < -1e-10 * max(1.0, w_R[-1]):
            raise NotPSD(f"R has negative eigenvalue {w_R[0]:.3e}")
        w_R1 = np.linalg.eigvalsh(R1)
        if w_R1[0] <= 1e-12 * max(1.0, w_R1[-1]):
            raise NotPSD(f"R1 must be positive definite (min eigenvalue {w_R1[0]:.3e})")

        self.A = A
        self.H = H
        self.R = project_psd(R)
        self.R1 = R1
        self.d = d
        self.d_y = d_y
        self.R1_inv = np.linalg.inv(R1)
        self.R1_inv = 0.5 * (self.R1_inv + self.R1_inv.T)
        S = H.T @ self.R1_inv @ H
        self.S = 0.5 * (S + S.T)
        self._sqrt_R = None
        self._sqrt_R1 = None

    @property
    def sqrt_R(self) -> np.ndarray:
        """Symmetric PSD square root of R (cached)."""
        if self._sqrt_R is None:
            self._sqrt_R = symmetric_sqrt(self.R)
        return self._sqrt_R

    @property
    def sqrt_R1(self) -> np.ndarray:
        if self._sqrt_R1 is None:
            self._sqrt_R1 = symmetric_sqrt(self.R1)
        return self._sqrt_R1

    def closed_loop(self, P) -> np.ndarray:
        """The filter feedback matrix ``A - P S``."""
        return self.A - np.asarray(P) @ self.S

    def gain(self, P) -> np.ndarray:
        """The filter gain ``P H' R1^{-1}`` (of each P of a stack)."""
        return np.asarray(P) @ self.H.T @ self.R1_inv

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "d_y": self.d_y,
            "A": self.A.tolist(),
            "H": self.H.tolist(),
            "R": self.R.tolist(),
            "R1": self.R1.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LinearGaussianModel":
        required = {"d", "d_y", "A", "H", "R", "R1"}
        keys = set(doc)
        if keys != required:
            extra = sorted(keys - required)
            missing = sorted(required - keys)
            parts = []
            if missing:
                parts.append(f"missing keys {missing}")
            if extra:
                parts.append(f"unknown keys {extra}")
            raise ValueError("model document: " + "; ".join(parts))
        model = cls(doc["A"], doc["H"], doc["R"], doc["R1"])
        if model.d != doc["d"] or model.d_y != doc["d_y"]:
            raise ValueError(
                f"declared dimensions (d={doc['d']}, d_y={doc['d_y']}) do not match "
                f"matrix shapes (d={model.d}, d_y={model.d_y})"
            )
        return model

    def __repr__(self):
        return f"LinearGaussianModel(d={self.d}, d_y={self.d_y})"


def save_model(model: LinearGaussianModel, path) -> None:
    """Write a model to a JSON document (row-major matrices; S is derived)."""
    with open(path, "w") as fh:
        json.dump(model.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> LinearGaussianModel:
    """Load a model from its JSON document; rejects unknown keys."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    return LinearGaussianModel.from_dict(doc)


@dataclass(frozen=True)
class ScalarModel:
    """One-dimensional model in reduced form: drift A, noise R > 0, and
    information rate S > 0.

    The pair ``(R, S)`` is what the scalar theory depends on; a full model
    with ``H = sqrt(S)``, ``R1 = 1`` realizes it.
    """

    A: float
    R: float
    S: float

    def __post_init__(self):
        if not (self.R > 0 and self.S > 0):
            raise ValueError(f"scalar models require R > 0 and S > 0, got R={self.R}, S={self.S}")

    def to_model(self) -> LinearGaussianModel:
        return LinearGaussianModel(
            [[self.A]], [[math.sqrt(self.S)]], [[self.R]], [[1.0]]
        )


@dataclass(frozen=True)
class GramianSet:
    """The four windowed Gramians over ``[0, tau]``.

    ``O_tau``/``C_tau`` are the observability and controllability Gramians;
    ``C_tau_of_O`` and ``O_tau_of_C`` are their dual composites entering the
    two-sided Riccati bounds.
    """

    tau: float
    O_tau: np.ndarray
    C_tau: np.ndarray
    C_tau_of_O: np.ndarray
    O_tau_of_C: np.ndarray


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def _rank(M: np.ndarray) -> int:
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_TOL * sv[0]))


def check_controllability(model: LinearGaussianModel) -> bool:
    """True iff ``[R^{1/2}, A R^{1/2}, ..., A^{d-1} R^{1/2}]`` has full rank."""
    B = model.sqrt_R
    blocks = [B]
    for _ in range(model.d - 1):
        blocks.append(model.A @ blocks[-1])
    return _rank(np.hstack(blocks)) == model.d


def check_observability(model: LinearGaussianModel) -> bool:
    """True iff the stacked ``[H; HA; ...; H A^{d-1}]`` has full rank."""
    blocks = [model.H]
    for _ in range(model.d - 1):
        blocks.append(blocks[-1] @ model.A)
    return _rank(np.vstack(blocks)) == model.d


# ---------------------------------------------------------------------------
# Gramians
# ---------------------------------------------------------------------------

def _powers(Phi, count: int) -> np.ndarray:
    """``Phi^1 .. Phi^count``, stacked: products of ``Phi`` by doubling
    (``Phi^(m+i) = Phi^m Phi^i``), about ``log2 count`` roundings deep."""
    powers = np.empty((count,) + Phi.shape)
    powers[0] = Phi
    m = 1
    while m < count:
        k = min(m, count - m)
        np.matmul(powers[m - 1], powers[:k], out=powers[m:m + k])
        m += k
    return powers


def _simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson over axis 0 (even number of intervals)."""
    n = values.shape[0] - 1
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (h / 3.0) * np.tensordot(w, values, axes=(0, 0))


def _van_loan(X, Q, h: float, n: int):
    """``(F, G)`` at the nodes ``s_i = i h``, ``i = 0 .. n``: ``F[i] = e^{X s_i}``
    and ``G[i] = int_0^{s_i} e^{Xu} Q e^{X'u} du``.  The top blocks of
    ``Psi^i``, ``Psi = expm(h [[X, Q], [0, -X']])``, are ``F[i]`` and
    ``G[i] F[i]^{-T}`` (C. Van Loan, IEEE TAC 23, 1978)."""
    d = X.shape[0]
    psi = expm(h * np.block([[X, Q], [np.zeros((d, d)), -X.T]]))
    powers = np.concatenate([np.eye(2 * d)[None], _powers(psi, n)])
    F = powers[:, :d, :d]
    return F, powers[:, :d, d:] @ _swap(F)


def _gramians_at(model: LinearGaussianModel, tau: float, n: int):
    """All four Gramian integrals on ``n`` (even) intervals, the two
    composites by Simpson over every node."""
    h = tau / n
    E_obs, O = _van_loan(-model.A.T, model.S, h, n)   # e^{-A's}, O_s
    E_con, C = _van_loan(model.A, model.R, h, n)      # e^{As}, C_s
    # the propagators at tau - s_i are the node values at index n - i
    E_obs, E_con = E_obs[::-1], E_con[::-1]
    f_CO = E_obs @ O @ model.R @ O @ _swap(E_obs)   # e^{-(tau-s)A'} O_s R O_s e^{-(tau-s)A}
    f_OC = E_con @ C @ model.S @ C @ _swap(E_con)   # e^{(tau-s)A} C_s S C_s e^{(tau-s)A'}
    return O[-1], C[-1], _simpson(f_CO, h), _simpson(f_OC, h)


def gramians(model: LinearGaussianModel, tau: float, rel_tol: float = 1e-8) -> GramianSet:
    """Windowed Gramians over ``[0, tau]``.

    ``O_tau`` and ``C_tau`` are exact up to rounding on every grid; the two
    composites are Simpson sums over it.  The grid is refined (doubling the
    interval count) until each of the four integrals changes by at most
    ``rel_tol`` times its own Frobenius norm; an integral that is exactly
    zero (``C_tau`` at R = 0) has converged once it stops changing.  The
    change between levels bottoms out at rounding, about 1e-13 to 2.5e-12
    of an integral's norm, so a ``rel_tol`` near 1e-13 may never be met
    (a SingularGramian at 2^14 intervals).

    Raises
    ------
    SingularGramian
        If ``O_tau`` or ``C_tau`` has 2-norm condition number above 1e12
        (their inverses enter the composite Gramians).
    """
    if not (tau > 0):
        raise ValueError(f"tau must be positive, got {tau}")
    prev = None
    n = 32
    while True:
        cur = _gramians_at(model, tau, n)
        if prev is not None and all(np.linalg.norm(c - p) <= rel_tol * np.linalg.norm(c)
                                    for c, p in zip(cur, prev)):
            break
        if n >= 2 ** 14:
            raise SingularGramian(
                f"Gramian quadrature did not converge by n={n} intervals "
                f"(likely extreme dynamic range in e^(A s) over [0, {tau}])"
            )
        prev = cur
        n *= 2

    O_tau, C_tau, I_CO, I_OC = cur
    O_tau = 0.5 * (O_tau + O_tau.T)
    C_tau = 0.5 * (C_tau + C_tau.T)
    for name, M in (("O_tau", O_tau), ("C_tau", C_tau)):
        if np.linalg.cond(M) > COND_MAX:
            raise SingularGramian(f"{name} condition number exceeds {COND_MAX:.0e}")
    O_inv = np.linalg.inv(O_tau)
    C_inv = np.linalg.inv(C_tau)
    C_of_O = O_inv @ I_CO @ O_inv
    O_of_C = C_inv @ I_OC @ C_inv
    return GramianSet(
        tau=float(tau),
        O_tau=O_tau,
        C_tau=C_tau,
        C_tau_of_O=0.5 * (C_of_O + C_of_O.T),
        O_tau_of_C=0.5 * (O_of_C + O_of_C.T),
    )


# ---------------------------------------------------------------------------
# algebraic Riccati fixed point
# ---------------------------------------------------------------------------

def _ricc(A, S, R, P):
    out = A @ P + P @ A.T - P @ S @ P + R
    return 0.5 * (out + out.T)


def _hamiltonian_propagator(A, S, R, dt, steps: int = 1):
    """``(n, powers)``: the exact propagator of ``P' = A P + P A' - P S P + R``
    over ``dt`` is ``n`` sub-steps ``h = dt / n`` of ``Phi = expm(h Ham)``,
    and ``powers`` stacks ``Phi^1 .. Phi^J``, the maps of one span of
    :func:`_mobius_span`, for a grid of ``steps`` steps of ``dt``.

    ``P_t = Y_t X_t^{-1}`` where ``[X; Y]' = Ham [X; Y]``, ``Ham = [[-A', S],
    [R, A]]``, ``X_0 = I``, ``Y_0 = P_0``.  ``n`` is the fewest equal
    sub-steps with ``h ||Ham||_1 <= HAM_STEP_MAX``, and the span ``J`` the
    most sub-steps with ``J h ||Ham||_1 <= HAM_STEP_MAX``, so every power
    obeys the sub-step's growth bound; ``J`` is also at most ``SPAN_MAX``
    and the grid's ``n * steps`` sub-steps, and ``J = 1`` whenever ``n > 1``.
    """
    ham = np.block([[-A.T, S], [R, A]])
    growth = dt * float(np.linalg.norm(ham, 1))
    n_sub = max(1, math.ceil(growth / HAM_STEP_MAX))
    span = min(SPAN_MAX, n_sub * steps)
    if growth * span > HAM_STEP_MAX * n_sub:
        span = max(1, math.floor(HAM_STEP_MAX * n_sub / growth))
    return n_sub, _powers(expm((dt / n_sub) * ham), span)


def _mobius_span(powers, P):
    """``(X, P_span)``: the ``J = len(powers)`` sub-steps after ``P``.

    ``X[j-1] = (Phi^j)_11 + (Phi^j)_12 P`` and ``P_span[j-1] = ((Phi^j)_21 +
    (Phi^j)_22 P) X[j-1]^{-1}``, PSD-projected: one stacked solve and one
    stacked projection for the whole span.  ``X' = -(A - P S)' X`` along the
    flow, so ``X[-1]`` also steps the closed-loop semigroup over the span,
    ``E <- X^{-T} E``, and ``log det E`` by ``-log det X``.
    """
    d = P.shape[-1]
    XY = powers[:, :, :d] + _mm(powers[:, :, d:], P)
    X, Y = XY[:, :d], XY[:, d:]
    # P_new = Y X^{-1} is symmetric, so solving X' P_new = Y' gives it too;
    # at d = 1 a division does it without the solve's per-call overhead,
    # which dominates spans of one sub-step
    P_new = Y / X if d == 1 else np.linalg.solve(_swap(X), _swap(Y))
    return X, _project_psd_stack(P_new)


def _mobius_spans(powers, P, sub_steps: int):
    """Step ``P`` over ``sub_steps`` sub-steps, a span at a time: yields
    :func:`_mobius_span`'s ``(X[-1], P_span)`` per span."""
    J = len(powers)
    for a in range(0, sub_steps, J):
        X, P_span = _mobius_span(powers[:min(J, sub_steps - a)], P)
        yield X[-1], P_span
        P = P_span[-1]


def _riccati_nodes(A, S, R, Q, dt, steps: int) -> np.ndarray:
    """The flow of ``P' = A P + P A' - P S P + R`` from ``Q`` at the
    ``steps + 1`` nodes ``k dt``, a (steps + 1, d, d) stack.  Sub-step ``i``
    of :func:`_hamiltonian_propagator` is node ``i / n`` where ``n``
    divides it."""
    n_sub, powers = _hamiltonian_propagator(A, S, R, dt, steps)
    nodes = np.empty((steps + 1,) + Q.shape)
    nodes[0] = Q
    a = 0
    for _, P_span in _mobius_spans(powers, Q, n_sub * steps):
        first, a_next = -(-(a + 1) // n_sub), a + len(P_span)
        nodes[first:a_next // n_sub + 1] = P_span[first * n_sub - a - 1::n_sub]
        a = a_next
    return nodes


def solve_are(model: LinearGaussianModel, max_newton: int = 60):
    """Stabilizing fixed point P∞ of ``A P + P A' - P S P + R = 0``.

    Strategy: reject a model without a stabilizing solution by PBH rank
    tests on the modes of ``A``; otherwise step the exact Riccati propagator
    from ``Q = I``, squaring it after every step (doubling: each step spans
    twice the previous one), until the closed loop ``A - P S`` is stable,
    then polish with Newton steps (each solves a Lyapunov equation for the
    correction).  The result satisfies the residual bound
    ``|Ricc(P)|_F <= 1e-8 (1 + |P|_F^2)``, has a strictly stable closed
    loop and is symmetric bit for bit.

    Returns
    -------
    RiccatiState
        With ``t = inf`` (the infinite-horizon fixed point) and ``P = P∞``.

    Raises
    ------
    NoStabilizingSolution
        If a mode of ``A`` fails a PBH test, the doubling flow diverges or
        finds no stabilizing iterate, the residual tolerance is unreachable
        within the iteration budget, or the closed loop fails to stabilize.
    """
    from .kalman import RiccatiState

    if not check_controllability(model):
        warnings.warn("model is not controllable; ARE solution may not exist", stacklevel=2)
    if not check_observability(model):
        warnings.warn("model is not observable; ARE solution may not exist", stacklevel=2)

    # PBH: a stabilizing solution exists iff every mode of A with Re >= 0 is
    # observable through H and every mode on the imaginary axis is reachable
    # through R^{1/2} (real parts within RANK_TOL |A| of 0 count as on it)
    A, S, R, d = model.A, model.S, model.R, model.d
    axis_tol = RANK_TOL * max(1.0, float(np.linalg.norm(A, 2)))
    for lam in np.linalg.eigvals(A):
        shifted = A - lam * np.eye(d)
        if lam.real >= -axis_tol and _rank(np.vstack([shifted, model.H])) < d:
            raise NoStabilizingSolution(f"mode {lam:.6g} of A with Re >= 0 is "
                                        "unobservable through H")
        if abs(lam.real) <= axis_tol and _rank(np.hstack([shifted, model.sqrt_R])) < d:
            raise NoStabilizingSolution(f"mode {lam:.6g} of A on the imaginary axis "
                                        "is unreachable through R^(1/2)")

    _, phi = _hamiltonian_propagator(A, S, R, 1.0)
    P = np.eye(d)
    for _ in range(200):
        if spectral_abscissa(model.closed_loop(P)) < 0:
            break
        P = _mobius_span(phi, P)[1][0]
        if not np.all(np.isfinite(P)) or np.linalg.norm(P) > 1e12:
            raise NoStabilizingSolution(
                "Riccati flow is diverging; no stabilizing iterate exists")
        # squaring stops at |Phi|_1 ~ 1e150, where a step on |P| <= 1e12
        # cannot overflow; the steps then repeat
        if np.linalg.norm(phi[0], 1) < 1e75:
            phi = phi @ phi
    else:
        raise NoStabilizingSolution("Riccati flow failed to reach a stabilizing iterate")

    # Newton (Kleinman) polish.  From a barely stabilizing iterate the first
    # step may overshoot in residual norm before the quadratic phase, so a
    # bounded residual hump is tolerated as long as the iterate stays
    # stabilizing.
    res_norm = np.linalg.norm(_ricc(A, S, R, P))
    stall = 0
    for _ in range(max_newton):
        tol = 1e-11 * (1.0 + float(np.sum(P * P)))
        if res_norm <= tol:
            break
        A_cl = model.closed_loop(P)
        delta = solve_continuous_lyapunov(A_cl, -_ricc(A, S, R, P))
        P_new = 0.5 * (P + delta + (P + delta).T)
        new_norm = np.linalg.norm(_ricc(A, S, R, P_new))
        if not np.isfinite(new_norm):
            break
        if new_norm >= res_norm:
            stall += 1
            if stall > 2 or spectral_abscissa(model.closed_loop(P_new)) >= 0:
                break
        else:
            stall = 0
        P, res_norm = P_new, new_norm

    # project_psd's clamp product is symmetric only to rounding
    P = _sym(project_psd(P))
    res = np.linalg.norm(_ricc(A, S, R, P))
    if res > 1e-8 * (1.0 + float(np.sum(P * P))):
        raise NoStabilizingSolution(f"ARE residual {res:.3e} above tolerance")
    if spectral_abscissa(model.closed_loop(P)) >= 0:
        raise NoStabilizingSolution("closed loop A - P S is not Hurwitz at the fixed point")
    return RiccatiState(t=math.inf, P=P)


# ---------------------------------------------------------------------------
# spectral utilities
# ---------------------------------------------------------------------------

def spectral_abscissa(M) -> float:
    """Largest real part of the eigenvalues of M."""
    M = np.asarray(M, dtype=float)
    return float(np.max(np.linalg.eigvals(M).real))


def log_norm(M) -> float | np.ndarray:
    """Logarithmic norm: largest eigenvalue of the symmetric part of M.

    Always at least the spectral abscissa; governs the growth bound
    ``|e^{Mt}| <= e^{mu(M) t}``.  A float for one matrix, an array of one
    value per matrix for a (B, d, d) stack.
    """
    M = np.asarray(M, dtype=float)
    mu = np.linalg.eigvalsh(_sym(M))[..., -1]
    return float(mu) if M.ndim == 2 else mu


def _check_clamp(w, name: str) -> None:
    """NotPSD unless the ascending eigenvalues ``w`` are >= -1e-10 max |w|."""
    clamp_tol = 1e-10 * max(abs(w[0]), abs(w[-1]))
    if w[0] < -clamp_tol:
        raise NotPSD(f"{name} has eigenvalue {w[0]:.3e} below -{clamp_tol:.3e}")


def symmetric_sqrt(Q) -> np.ndarray:
    """Unique symmetric PSD square root of a symmetric PSD matrix.

    Eigenvalues in ``[-clamp_tol, 0)`` with ``clamp_tol = 1e-10 |Q|`` are
    treated as roundoff and clamped to zero.

    Raises
    ------
    NotPSD
        If an eigenvalue falls below ``-clamp_tol``.
    """
    Q = _check_symmetric(Q, "Q", tol=1e-10)
    w, V = np.linalg.eigh(Q)
    _check_clamp(w, "matrix")
    return _symmetric_sqrt_stack(Q[None], eig=(w[None], V[None], np.ones(1, bool)))[0]


def _check_covariance(Q, d: int, name: str = "Q") -> np.ndarray:
    """``Q`` as a d x d covariance, symmetrized and PSD-projected.

    ``Q`` is a (d, d) array (or a number at d = 1).  Eigenvalues within the
    clamp tolerance of :func:`symmetric_sqrt`, ``1e-10 max |lambda|``, below
    zero are treated as roundoff and clamped.

    Raises
    ------
    ValueError
        If ``Q`` has another shape.
    NotPSD
        If ``Q`` has a non-finite entry or an eigenvalue below the tolerance.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (d, d) and not (d == 1 and Q.ndim == 0):
        raise ValueError(f"{name} must be a {d} x {d} matrix (d = {d}), got shape {Q.shape}")
    Q = Q.reshape(d, d)
    if not np.isfinite(Q).all():
        raise NotPSD(f"{name} has non-finite entries")
    # one eigh serves the clamp check and the projection
    w, V = np.linalg.eigh(_sym(Q[None]))
    _check_clamp(w[0], name)
    return _spectral_map(Q[None], lambda w: np.maximum(w, 0.0), keep_psd=True,
                         eig=(w, V, np.ones(1, bool)))[0][0]


def _bottleneck_match(D: np.ndarray) -> float:
    """Smallest v such that the bipartite graph {D <= v} has a perfect matching."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    values = np.unique(D)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        graph = csr_matrix(D <= values[mid])
        match = maximum_bipartite_matching(graph, perm_type="column")
        if np.all(match >= 0):
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


def spectral_matching_distance(M1, M2) -> float:
    """Optimal matching distance between the spectra of two square matrices.

    Minimizes, over pairings of the two eigenvalue multisets, the largest
    pairwise distance ``|lambda_i - mu_{perm(i)}|``: the bottleneck
    assignment value, found by a binary search over the distinct pairwise
    distances with a bipartite matching test at each.
    """
    M1 = np.asarray(M1, dtype=float)
    M2 = np.asarray(M2, dtype=float)
    if M1.shape != M2.shape or M1.ndim != 2 or M1.shape[0] != M1.shape[1]:
        raise ValueError("spectral_matching_distance requires two square matrices of equal size")
    lam = np.linalg.eigvals(M1)
    mu = np.linalg.eigvals(M2)
    return _bottleneck_match(np.abs(lam[:, None] - mu[None, :]))
