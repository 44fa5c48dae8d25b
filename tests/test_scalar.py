"""Scalar closed forms: equilibria, invariant densities, moments, Lyapunov."""
import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from kbflow import TimeGrid, riccati_flow
from kbflow.errors import KBFlowError
from kbflow.model import ScalarModel
from kbflow.scalar import (
    Divergent,
    InvariantDensity,
    clt_variance_oracle,
    contraction_rate,
    double_well,
    equilibria,
    invariant_density,
    invariant_moment,
    lyapunov_bounds,
    lyapunov_exponent,
    moment_threshold,
    ricc,
    riccati_closed_form,
    sigma_kappa_scalar,
)

M1 = ScalarModel(A=1.0, R=1.0, S=1.0)
M20 = ScalarModel(A=20.0, R=1.0, S=1.0)


# ---------------------------------------------------------------------------
# equilibria and closed-form flow
# ---------------------------------------------------------------------------

def test_equilibria_closed_forms():
    eq0 = equilibria(ScalarModel(A=0.0, R=1.0, S=1.0))
    assert eq0.rho_plus == pytest.approx(1.0, abs=1e-14)
    assert eq0.rho_minus == pytest.approx(-1.0, abs=1e-14)
    eq = equilibria(M20)
    assert eq.rho_plus == pytest.approx(20 + math.sqrt(401), abs=1e-10)
    # Vieta: product of the Riccati roots is -R/S
    for A, R, S in [(1.0, 1.0, 1.0), (-2.0, 3.0, 0.5), (5.0, 0.1, 2.0)]:
        e = equilibria(ScalarModel(A=A, R=R, S=S))
        assert e.rho_plus * e.rho_minus == pytest.approx(-R / S, rel=1e-12)
        assert e.rho_plus + e.rho_minus == pytest.approx(2 * A / S, rel=1e-12)


def test_drift_vanishes_at_equilibria():
    for m in (M1, M20, ScalarModel(A=-3.0, R=2.0, S=0.7)):
        eq = equilibria(m)
        assert abs(ricc(m, eq.rho_plus)) < 1e-10
        assert abs(ricc(m, eq.rho_minus)) < 1e-10
        # the double well has roots exactly {0, zeta_-, zeta_+}
        assert double_well(m, 0.0) == 0.0
        assert abs(double_well(m, eq.zeta_plus)) < 1e-8
        assert abs(double_well(m, eq.zeta_minus)) < 1e-8
        # and its critical points are the Riccati roots
        h = 1e-6
        slope = (double_well(m, eq.rho_plus + h) - double_well(m, eq.rho_plus - h)) / (2 * h)
        assert abs(slope) < 1e-4


def test_contraction_rate_identity():
    for m in (M1, M20):
        eq = equilibria(m)
        assert contraction_rate(m) == pytest.approx(-(m.A - eq.rho_plus * m.S), rel=1e-12)


def test_closed_form_flow():
    # A=0, R=S=1, Q=0 gives phi_t = tanh(t)
    m0 = ScalarModel(A=0.0, R=1.0, S=1.0)
    t = np.array([0.25, 0.5, 1.0, 2.0, 5.0])
    np.testing.assert_allclose(riccati_closed_form(m0, 0.0, t), np.tanh(t), atol=1e-12)
    # t=0 returns Q; t->inf tends to rho_plus
    assert riccati_closed_form(M20, 3.7, 0.0) == pytest.approx(3.7, abs=1e-12)
    assert riccati_closed_form(M20, 3.7, 10.0) == pytest.approx(
        equilibria(M20).rho_plus, abs=1e-10)
    with pytest.raises(ValueError):
        riccati_closed_form(M1, -0.5, 1.0)


def test_closed_form_matches_matrix_flow():
    grid = TimeGrid.from_horizon(0.0, 1.0, 1e-3)
    states = riccati_flow(M20.to_model(), np.array([[3.7]]), grid)
    exact = riccati_closed_form(M20, 3.7, grid.times())
    numeric = np.array([s.P[0, 0] for s in states])
    assert np.max(np.abs(numeric - exact)) < 1e-6


def test_sigma_kappa_scalar():
    x = np.array([0.0, 1.0, 3.0])
    np.testing.assert_allclose(sigma_kappa_scalar(M1, 0.0, x), [1.0, 1.0, 1.0])
    np.testing.assert_allclose(sigma_kappa_scalar(M1, 1.0, x), [1.0, 2.0, 10.0])


# ---------------------------------------------------------------------------
# invariant densities
# ---------------------------------------------------------------------------

def test_invariant_density_normalized():
    for kappa in (0.0, 1.0):
        g = invariant_density(M20, kappa, 6)
        val, _ = quad(lambda u: float(np.exp(g.log_pdf(math.exp(u)) + u)),
                      math.log(1e-8), math.log(g.x_max), limit=400,
                      points=[math.log(max(g.mode, 1e-6))])
        assert val == pytest.approx(1.0, abs=1e-6)


def test_invariant_density_support_and_positivity():
    g = invariant_density(M1, 1.0, 6)
    assert g.pdf(-1.0) == 0.0
    assert g.pdf(0.0) == 0.0
    assert g.log_pdf(-1.0) == -math.inf
    x = np.linspace(0.05, 20.0, 50)
    assert np.all(g.pdf(x) > 0)


def test_vanilla_density_zero_limit_depends_on_N():
    # density ~ x^{N/2 - 1} near 0: integrable blow-up at N=1, flat at
    # N=2, vanishing for N >= 3
    g1 = invariant_density(M1, 1.0, 1)
    assert g1.pdf(1e-10) > 1e3
    g2 = invariant_density(M1, 1.0, 2)
    assert g2.pdf(1e-10) == pytest.approx(g2.pdf(1e-4), rel=1e-2)
    for N in (3, 4, 6):
        g = invariant_density(M1, 1.0, N)
        assert g.pdf(1e-10) < 1e-4


def test_gaussian_type_mode_closed_form():
    # kappa=0 stationarity: (N/2-1)/x = (SN/2R)(x - 2A/S) at the mode
    g = invariant_density(M20, 0.0, 6)
    expected = 20.0 + math.sqrt(400.0 + 4.0 / 6.0)
    assert g.mode == pytest.approx(expected, rel=1e-12)
    assert abs(g.dlog_pdf(g.mode)) < 1e-10


def test_vanilla_tail_exponent():
    # kappa=1 tail is x^{-(N/2+3)}: slope -6 at N=6
    g = invariant_density(M20, 1.0, 6)
    x = np.logspace(3, 5, 50)
    slope = np.polyfit(np.log(x), g.log_pdf(x), 1)[0]
    assert slope == pytest.approx(-6.0, abs=0.05)


def test_stationary_flux_vanishes():
    # Fokker-Planck check: drift flux equals half the divergence of the
    # diffusion flux, a(x) gamma = (1/2) d/dx [sigma^2(x) gamma], with
    # sigma^2(x) = (4/N) x Sigma_kappa(x)
    N = 6
    for kappa in (0.0, 1.0):
        g = invariant_density(M20, kappa, N)
        x = np.linspace(5.0, 80.0, 2001)
        gam = g.pdf(x)
        sig2 = (4.0 / N) * x * sigma_kappa_scalar(M20, kappa, x)
        dsig2 = (4.0 / N) * (sigma_kappa_scalar(M20, kappa, x)
                             + x * (2.0 * kappa * M20.S * x))
        flux = ricc(M20, x) * gam - 0.5 * (dsig2 * gam + sig2 * gam * g.dlog_pdf(x))
        scale = np.max(np.abs(ricc(M20, x) * gam))
        assert np.max(np.abs(flux)) / scale < 1e-6


def test_cdf_monotone_and_consistent():
    g = invariant_density(M20, 1.0, 6)
    x = np.linspace(0.0, g.x_max, 500)
    F = g.cdf(x)
    assert np.all(np.diff(F) >= -1e-12)
    assert F[0] == 0.0
    assert F[-1] == pytest.approx(1.0, abs=1e-6)
    # midpoint value against direct quadrature of the density
    x0 = g.mode
    val, _ = quad(g.pdf, 0.0, x0, limit=200)
    assert g.cdf(x0) == pytest.approx(val, abs=1e-4)


def test_invariant_density_validation(monkeypatch):
    # a cache hit skips the check: no other test caches this model's densities
    m = ScalarModel(A=3.0, R=1.0, S=1.0)
    for kappa in (0.5, True, "1"):
        for make in (InvariantDensity, invariant_density):
            with pytest.raises(ValueError, match="^kappa must be 0 or 1"):
                make(m, kappa, 5)
    with pytest.raises(ValueError):
        invariant_density(M1, 1.0, 0)
    # a quadrature window that leaves too much tail mass is a typed failure
    monkeypatch.setattr(InvariantDensity, "_tail_mass", lambda self, x0: 1.0)
    with pytest.raises(KBFlowError, match="tail mass"):
        InvariantDensity(M1, 1.0, 6)


def test_invariant_density_cache_does_not_take_a_bool_for_one():
    # True == 1 hashes alike: an untyped cache returns the cached kappa = 1
    # density for kappa = True without reaching the check
    m = ScalarModel(A=2.5, R=1.0, S=1.0)
    assert invariant_density(m, 1, 6) is invariant_density(m, 1, 6)
    with pytest.raises(ValueError, match="^kappa must be 0 or 1"):
        invariant_density(m, True, 6)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moment_existence_rule():
    # kappa=1: n-th moment finite iff N > 2(n-2); the boundary diverges
    assert invariant_moment(M20, 1.0, 6, 4) < math.inf
    assert invariant_moment(M20, 1.0, 6, 5) is Divergent
    assert invariant_moment(M20, 1.0, 2, 3) is Divergent  # boundary N = 2(n-2)
    assert invariant_moment(M20, 1.0, 3, 3) < math.inf
    # kappa=0 has Gaussian tails: every moment is finite
    for n in range(1, 11):
        assert invariant_moment(M20, 0.0, 6, n) < math.inf
    with pytest.raises(ValueError):
        invariant_moment(M20, 1.0, 6, 0)


def test_moment_threshold_values():
    assert moment_threshold(1) == 1
    assert moment_threshold(2) == 1
    assert moment_threshold(3) == 3
    assert moment_threshold(4) == 5
    assert moment_threshold(5) == 7
    # consistency with the existence rule on either side
    for n in (3, 4, 5):
        N = moment_threshold(n)
        assert invariant_moment(M20, 1.0, N, n) < math.inf
        assert invariant_moment(M20, 1.0, N - 1, n) is Divergent
    with pytest.raises(ValueError):
        moment_threshold(0)


def test_first_moment_sits_between_mean_field_limits():
    # E[x] under-biases rho_plus for kappa=0 and lies far below it for
    # kappa=1 at small N; both approach rho_plus from below as N grows
    rho = equilibria(M20).rho_plus
    m0_small = invariant_moment(M20, 0.0, 6, 1)
    m0_big = invariant_moment(M20, 0.0, 500, 1)
    assert m0_small < m0_big < rho
    assert rho - m0_big < rho - m0_small < 1e-3 * rho


def test_exponential_moments_diverge_for_vanilla():
    # power-law tail: int e^{alpha x} gamma(x) dx = inf for every alpha>0.
    # The partial integrals in log space grow without bound.
    g = invariant_density(M20, 1.0, 6)
    alpha = 0.01

    def log_partial(X):
        u = np.linspace(math.log(1.0), math.log(X), 4000)
        x = np.exp(u)
        log_f = g.log_pdf(x) + alpha * x + u
        peak = np.max(log_f)
        w = np.exp(log_f - peak)
        return peak + math.log(np.trapezoid(w, u))

    assert log_partial(1e5) - log_partial(1e4) > 100.0


# ---------------------------------------------------------------------------
# CLT variance oracle and Lyapunov exponents
# ---------------------------------------------------------------------------

def test_clt_variance_oracle_values():
    assert clt_variance_oracle(M1, 0.0, 0.0, 0.0) == 0.0
    v0 = clt_variance_oracle(M1, 0.0, 0.0, 1.0)
    v1 = clt_variance_oracle(M1, 1.0, 0.0, 1.0)
    assert v0 == pytest.approx(2.3200457484, abs=1e-7)
    assert v1 == pytest.approx(5.7088096268, abs=1e-7)
    assert v1 > v0  # extra multiplicative noise at kappa=1
    with pytest.raises(ValueError):
        clt_variance_oracle(M1, 0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        clt_variance_oracle(M1, 0.0, 0.0, -1.0)


def test_clt_variance_oracle_against_generic_ode_solver():
    for kappa in (0.0, 1.0):
        def f(_, y, kappa=kappa):
            phi, V = y
            sig = 1.0 + kappa * phi * phi
            return [1.0 + 2.0 * phi - phi * phi, 4.0 * (1.0 - phi) * V + 4.0 * phi * sig]

        sol = solve_ivp(f, (0.0, 1.0), [0.0, 0.0], rtol=1e-10, atol=1e-12)
        v = clt_variance_oracle(M1, kappa, 0.0, 1.0)
        assert v == pytest.approx(sol.y[1, -1], abs=1e-6)


def test_lyapunov_exponent_bracketed():
    lam = lyapunov_exponent(M20, 0.0, 6)
    assert -math.sqrt(401.0) <= lam <= -math.sqrt(400.0 + 1.0 / 3.0)
    # approaches the exact filter's rate from above as N grows
    lam_big = lyapunov_exponent(M20, 0.0, 1000)
    assert lam < 0 and lam_big < lam < 0
    assert abs(lam_big + math.sqrt(401.0)) < 1e-3 * math.sqrt(401.0)


def test_lyapunov_bounds_contain_exponent():
    for kappa in (0.0, 1.0):
        for N in (6, 12, 50):
            lo, hi = lyapunov_bounds(M20, N, kappa=kappa)
            lam = lyapunov_exponent(M20, kappa, N)
            assert lo <= lam <= hi, (kappa, N, lo, lam, hi)
    lo, hi = lyapunov_bounds(M20, 6, kappa=0.0)
    assert lo == pytest.approx(-math.sqrt(401.0), rel=1e-12)
    assert hi == pytest.approx(-math.sqrt(400.0 + 1.0 / 3.0), rel=1e-12)
    with pytest.raises(ValueError):
        lyapunov_bounds(M20, 4)
    for kappa in (0.5, True):
        with pytest.raises(ValueError, match="^kappa must be 0 or 1"):
            lyapunov_bounds(M20, 8, kappa=kappa)
