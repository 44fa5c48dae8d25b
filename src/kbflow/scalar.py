"""One-dimensional closed forms for the Riccati flow and its diffusion.

For scalar models (``R, S > 0``) the Riccati drift ``Ricc(x) = R + 2Ax -
Sx^2`` is the derivative of a cubic double well, the flow has an explicit
solution, and the sample-covariance diffusion

    dP = Ricc(P) dt + (2/sqrt(N)) sqrt(P Sigma_kappa(P)) dM,
    Sigma_kappa(x) = R + kappa S x^2,

is reversible with an explicit invariant density on (0, inf).  This module
evaluates those densities (in log space), their moments and
moment-existence thresholds, the first-order CLT variance oracle, Lyapunov
exponents with their finite-N bounds, and the exact contraction rate.  The
normalization and every moment of a density integrate one integrand,
``x^n`` times the density in ``u = log x`` (``n = 0`` for the mass).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import KBFlowError
from .model import ScalarModel
from .sde import _as_kappa

#: Returned by invariant_moment when the moment does not exist.
Divergent = math.inf

_QUAD_KW = dict(limit=400, epsabs=0.0, epsrel=1e-10)


# ---------------------------------------------------------------------------
# equilibria and closed-form flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarEquilibria:
    """Roots of the Riccati drift and of its cubic primitive.

    ``rho_minus < 0 < rho_plus`` solve ``R + 2Ax - Sx^2 = 0``;
    ``zeta_minus < 0 < zeta_plus`` are the nonzero roots of the double well
    ``F(x) = Rx + Ax^2 - (S/3)x^3`` (whose derivative is the Riccati
    drift), so F's roots are {0, zeta_minus, zeta_plus}.
    """

    rho_plus: float
    rho_minus: float
    zeta_plus: float
    zeta_minus: float


def equilibria(m: ScalarModel) -> ScalarEquilibria:
    """Closed-form Riccati and double-well roots of a scalar model."""
    lam = math.sqrt(m.A * m.A + m.R * m.S)
    mu = math.sqrt(9.0 * m.A * m.A + 12.0 * m.R * m.S)
    return ScalarEquilibria(
        rho_plus=(m.A + lam) / m.S,
        rho_minus=(m.A - lam) / m.S,
        zeta_plus=(3.0 * m.A + mu) / (2.0 * m.S),
        zeta_minus=(3.0 * m.A - mu) / (2.0 * m.S),
    )


def contraction_rate(m: ScalarModel) -> float:
    """sqrt(A^2 + RS): the exact decay rate of the steady-state semigroup,
    equal to -(A - rho_plus S)."""
    return math.sqrt(m.A * m.A + m.R * m.S)


def double_well(m: ScalarModel, x):
    """The cubic primitive F with F' = Ricc; roots 0 and zeta_-/zeta_+."""
    x = np.asarray(x, dtype=float)
    return m.R * x + m.A * x * x - (m.S / 3.0) * x ** 3


def ricc(m: ScalarModel, x):
    """Scalar Riccati drift R + 2Ax - Sx^2."""
    x = np.asarray(x, dtype=float)
    return m.R + 2.0 * m.A * x - m.S * x * x


def riccati_closed_form(m: ScalarModel, Q: float, t):
    """Exact scalar Riccati flow phi_t(Q), vectorized over t >= 0.

    Uses the Moebius representation w_t = e^{-2 lambda t} (Q - rho_+)/(Q -
    rho_-), phi_t = (rho_+ - rho_- w_t)/(1 - w_t), lambda = sqrt(A^2+RS).
    """
    if Q < 0:
        raise ValueError(f"Q must be >= 0, got {Q}")
    t = np.asarray(t, dtype=float)
    eq = equilibria(m)
    lam = contraction_rate(m)
    w0 = (Q - eq.rho_plus) / (Q - eq.rho_minus)
    w = w0 * np.exp(-2.0 * lam * t)
    return (eq.rho_plus - eq.rho_minus * w) / (1.0 - w)


# ---------------------------------------------------------------------------
# invariant densities
# ---------------------------------------------------------------------------

def sigma_kappa_scalar(m: ScalarModel, kappa: float, x):
    """Sigma_kappa(x) = R + kappa S x^2."""
    x = np.asarray(x, dtype=float)
    return m.R + kappa * m.S * x * x


class InvariantDensity:
    """Invariant density of the scalar sample-covariance diffusion.

    Supported on (0, inf).  For ``kappa = 1`` (vanilla noise) the density
    is, up to normalization,

        exp(N A/sqrt(RS) * arctan(x sqrt(S/R)))
            * (x/(R+Sx^2))^{N/2} / (x (R+Sx^2)),

    with power-law tail ``x^{-(N/2+3)}``; for ``kappa = 0`` it is

        x^{N/2-1} exp(-(SN/4R) (x - 2A/S)^2),

    with Gaussian tails.  Evaluation is in log space; the normalization is
    computed once by adaptive quadrature on a window whose truncated mass
    is below 1e-10 (kappa=0) or whose analytic tail estimate is below 1e-8
    (kappa=1).  Moments integrate the same integrand times ``x^n`` on that
    window, extended at kappa=1 until the tail estimate of ``x^n`` is
    negligible.

    Use :func:`invariant_density` to obtain cached instances.
    """

    def __init__(self, m: ScalarModel, kappa: float, N: int):
        from scipy import integrate

        kappa = _as_kappa("kappa", kappa)
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        self.m = m
        self.kappa = kappa
        self.N = int(N)
        self.support = (0.0, math.inf)
        self._center = self._peak_location()
        u_mode = math.log(self._center)
        self._shift = float(self._log_unnorm(np.asarray(self._center)))

        # quadrature window in u = log x; the integrand decays at least
        # like e^{(N/2) u} as u -> -inf and like a power/Gaussian above
        u_lo = u_mode - 2.0
        while self._mass_integrand(u_lo) > 1e-18:
            u_lo -= 3.0
        u_hi = u_mode + 2.0
        while self._mass_integrand(u_hi) > 1e-18:
            u_hi += 3.0 if self.kappa == 1.0 else 1.0
        val, _ = integrate.quad(self._mass_integrand, u_lo, u_hi,
                                points=[u_mode], **_QUAD_KW)
        self._log_norm = math.log(val) + self._shift
        self._u_lo, self._u_hi = u_lo, u_hi
        self.x_max = math.exp(u_hi)
        if self.kappa == 1.0 and not self._tail_mass(self.x_max) < 1e-8:
            raise KBFlowError(f"invariant density tail mass beyond x={self.x_max:.3e} "
                              "is not below 1e-8")
        self._cdf_x = None

    # -- raw log density -------------------------------------------------

    def _log_unnorm(self, x):
        A, R, S = self.m.A, self.m.R, self.m.S
        N = self.N
        with np.errstate(divide="ignore"):
            log_x = np.log(x)
            if self.kappa == 1.0:
                log_q = np.logaddexp(math.log(R), math.log(S) + 2.0 * log_x)
                return (N * A / math.sqrt(R * S)) * np.arctan(x * math.sqrt(S / R)) \
                    + (0.5 * N) * (log_x - log_q) - log_x - log_q
            return (0.5 * N - 1.0) * log_x - (S * N / (4.0 * R)) * (x - 2.0 * A / S) ** 2

    def _mass_integrand(self, u, n=0):
        """``x^n`` times the unnormalized density in ``u = log x``, times ``e^{-shift}``."""
        x = np.exp(u)
        return np.exp(self._log_unnorm(x) + (n + 1) * u - self._shift)

    def _peak_location(self) -> float:
        """Interior stationary point of the log-density (or a fallback
        center when the density is monotone near 0)."""
        A, R, S = self.m.A, self.m.R, self.m.S
        N = self.N
        if self.kappa == 1.0:
            a = S * (0.5 * N + 3.0)
            b = -N * A
            c = -R * (0.5 * N - 1.0)
        else:
            a = S * N / (2.0 * R)
            b = -A * N / R
            c = -(0.5 * N - 1.0)
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            root = (-b + math.sqrt(disc)) / (2.0 * a)
            if root > 0.0:
                return root
        return max(A / S, math.sqrt(R / S)) if A > 0 else math.sqrt(R / S)

    @property
    def mode(self):
        """Interior maximum of the density, or None when the density is
        monotone decreasing towards 0+ (small N)."""
        x = self._peak_location()
        eps = 1e-6 * x
        left = self._log_unnorm(np.asarray(x - eps))
        right = self._log_unnorm(np.asarray(x + eps))
        mid = self._log_unnorm(np.asarray(x))
        if mid >= left and mid >= right:
            return x
        return None

    # -- public evaluation ----------------------------------------------

    def log_pdf(self, x):
        """Log-density at x > 0 (vectorized; -inf outside the support)."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        out = np.full(xv.shape, -math.inf)
        pos = xv > 0
        out[pos] = self._log_unnorm(xv[pos]) - self._log_norm
        return float(out[0]) if scalar else out

    def pdf(self, x):
        out = np.exp(self.log_pdf(x))
        return out if out.shape else float(out)

    def dlog_pdf(self, x):
        """d/dx log density (analytic), for Fokker-Planck flux checks."""
        A, R, S = self.m.A, self.m.R, self.m.S
        N = self.N
        x = np.asarray(x, dtype=float)
        q = R + S * x * x
        if self.kappa == 1.0:
            return N * A / q + (0.5 * N) * (1.0 / x - 2.0 * S * x / q) \
                - 1.0 / x - 2.0 * S * x / q
        return (0.5 * N - 1.0) / x - (S * N / (2.0 * R)) * (x - 2.0 * A / S)

    def _log_tail_const(self) -> float:
        """Log of c in the unnormalized kappa=1 tail ``c x^{-(N/2+3)}``."""
        A, R, S = self.m.A, self.m.R, self.m.S
        return self.N * A * math.pi / (2.0 * math.sqrt(R * S)) \
            - (0.5 * self.N + 1.0) * math.log(S)

    def _tail_mass(self, x0: float) -> float:
        """Analytic power-law estimate of the mass beyond x0 (kappa=1)."""
        p = 0.5 * self.N + 2.0
        return math.exp(self._log_tail_const() - self._log_norm - p * math.log(x0)) / p

    def _build_cdf_table(self):
        u = np.linspace(self._u_lo, self._u_hi, 4001)
        x_u = np.exp(u)
        # refine around the peak, where a log grid may be too coarse
        curv = self._curvature_width()
        x_fine = np.linspace(max(self._center - 12 * curv, x_u[0]),
                             self._center + 12 * curv, 4001)
        x = np.unique(np.concatenate([x_u, x_fine]))
        f = self.pdf(x)
        F = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(x))])
        total = F[-1] + (self._tail_mass(x[-1]) if self.kappa == 1.0 else 0.0)
        self._cdf_x = x
        self._cdf_F = np.minimum(F / total, 1.0)

    def _curvature_width(self) -> float:
        eps = 1e-5 * self._center
        x = self._center
        d2 = (self._log_unnorm(np.asarray(x + eps)) - 2 * self._log_unnorm(np.asarray(x))
              + self._log_unnorm(np.asarray(x - eps))) / (eps * eps)
        if d2 < 0:
            return 1.0 / math.sqrt(-d2)
        return self._center

    def cdf(self, x):
        """Distribution function (vectorized, via a dense graded table;
        beyond the table the remaining mass is below 1e-8)."""
        if self._cdf_x is None:
            self._build_cdf_table()
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self._cdf_x, self._cdf_F, left=0.0, right=1.0)
        return out if out.shape else float(out)

    def moment(self, n: int) -> float:
        """E[x^n] under the density; Divergent (math.inf) when it does not
        exist (kappa=1 with N <= 2(n-2); the boundary diverges
        logarithmically)."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if self.kappa == 1.0 and self.N <= 2 * (n - 2):
            return Divergent
        from scipy import integrate

        u_mode = math.log(self._center)
        u_hi = self._u_hi
        p = 0.5 * self.N + 2.0 - n
        while True:
            val, _ = integrate.quad(self._mass_integrand, self._u_lo, u_hi, args=(n,),
                                    points=[u_mode], **_QUAD_KW)
            if self.kappa == 0.0:
                break
            # kappa=1: extend the window until the analytic tail of x^n is
            # negligible, compared in log space (the unnormalized constant
            # can exceed the float range); val carries a factor e^{-shift}
            log_tail = self._log_tail_const() - p * u_hi - math.log(p) - self._shift
            if log_tail < math.log(val) - 9.0 * math.log(10.0):
                break
            u_hi += 2.0
        return float(val * math.exp(self._shift - self._log_norm))


@functools.lru_cache(maxsize=64, typed=True)
def invariant_density(m: ScalarModel, kappa: float, N: int) -> InvariantDensity:
    """Cached invariant density for the scalar covariance diffusion.  The
    cache is typed, so a bool ``kappa`` (``True == 1``) is not a hit on
    ``kappa = 1`` and reaches the check."""
    return InvariantDensity(m, _as_kappa("kappa", kappa), int(N))


def invariant_moment(m: ScalarModel, kappa: float, N: int, n: int) -> float:
    """n-th moment of the invariant density; Divergent when nonexistent.

    The analytic existence rule (kappa=1 requires N > 2(n-2)) takes
    precedence over quadrature; kappa=0 moments are always finite.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if float(kappa) == 1.0 and N <= 2 * (n - 2):
        return Divergent
    return invariant_density(m, kappa, N).moment(n)


def moment_threshold(n: int) -> int:
    """Smallest integer N for which the kappa=1 invariant n-th moment is
    finite: (2n-4)/N < 1, i.e. max(1, 2n-3)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return max(1, 2 * n - 3)


# ---------------------------------------------------------------------------
# CLT variance oracle and Lyapunov exponents
# ---------------------------------------------------------------------------

def clt_variance_oracle(m: ScalarModel, kappa: float, Q: float, t: float,
                        tol: float = 1e-8) -> float:
    """Variance of the first-order fluctuation field at time t.

    By Ito isometry, Var(phi_t) = int_0^t [E^2_{s->t}]^2 * 4 phi_s
    Sigma_kappa(phi_s) ds where E^2_{s->t} is the linearized Riccati
    semigroup (rate 2(A - S phi)); equivalently V' = 4(A - S phi)V +
    4 phi Sigma_kappa(phi), V(0) = 0, integrated jointly with the flow.
    The empirical target is Var(sqrt(N)(P_hat_t - phi_t)) -> Var(phi_t).
    """
    if Q < 0:
        raise ValueError(f"Q must be >= 0, got {Q}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0:
        return 0.0
    from ._ode import adaptive_rk4

    A, R, S = m.A, m.R, m.S
    kappa = float(kappa)

    def f(_, y):
        phi, V = y
        sig = R + kappa * S * phi * phi
        return np.array([R + 2.0 * A * phi - S * phi * phi,
                         4.0 * (A - S * phi) * V + 4.0 * phi * sig])

    y = adaptive_rk4(f, np.array([float(Q), 0.0]), 0.0, float(t), tol=tol)
    return float(y[1])


def lyapunov_exponent(m: ScalarModel, kappa: float, N: int) -> float:
    """A - S * E[x] under the invariant density (by quadrature)."""
    return m.A - m.S * invariant_density(m, kappa, N).moment(1)


def lyapunov_bounds(m: ScalarModel, N: int, kappa: float = 0.0) -> tuple[float, float]:
    """Finite-N bracket for the Lyapunov exponent, valid for N > 4.

    The lower bound -sqrt(A^2+RS) (the exact filter's rate) holds for both
    noise intensities by the under-bias property; the upper bound is
    -sqrt(A^2+RS(1-4/N)) for kappa=0 and the weaker
    -(sqrt(A^2+RS(1-(4/N)^2)) - 4A/N)/(1+4/N) for kappa=1.
    """
    if N <= 4:
        raise ValueError(f"bounds require N > 4, got N={N}")
    kappa = _as_kappa("kappa", kappa)
    lo = -math.sqrt(m.A * m.A + m.R * m.S)
    if kappa == 0.0:
        hi = -math.sqrt(m.A * m.A + m.R * m.S * (1.0 - 4.0 / N))
    else:
        r = 4.0 / N
        hi = -(math.sqrt(m.A * m.A + m.R * m.S * (1.0 - r * r)) - r * m.A) / (1.0 + r)
    return lo, hi
