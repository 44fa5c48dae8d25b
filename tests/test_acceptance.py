"""Acceptance harness: one numbered pass/fail line per guaranteed behavior.

Each test prints its verdict line even under ``pytest -q`` (via
``capsys.disabled``) and then asserts, so the printed table and the pytest
outcome always agree.  Tolerances and runtime budgets are part of the
package contract and are asserted, not just reported.
"""
import math
import time

import numpy as np
import pytest

from conftest import random_model, random_psd, scalar_lg
from kbflow import (
    Inflation,
    TimeGrid,
    check_controllability,
    check_observability,
    clt_variance_oracle,
    hill_tail_index,
    inflated_riccati_flow,
    invariant_density,
    ks_distance,
    lyapunov_exponent,
    moment_doubling_ratios,
    moment_matched_init,
    ricc_drift,
    riccati_flow,
    run_enkf,
    semigroup_E,
    solve_are,
    spectral_abscissa,
    stationary_covariance_samples,
    stochastic_semigroup,
)
from kbflow._engines import law_cov_paths_1d, particle_cov_paths_1d
from kbflow.model import LinearGaussianModel, ScalarModel
from kbflow.stats import StudySpec, run_study


def _report(capsys, idx: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"\n[{idx:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. scalar Riccati fixed point
# ---------------------------------------------------------------------------

def test_01_scalar_riccati_fixed_point(capsys):
    start = time.perf_counter()
    m = scalar_lg(A=20.0)
    grid = TimeGrid.from_horizon(0.0, 1.0, 1e-4)
    P1 = riccati_flow(m, np.zeros((1, 1)), grid)[-1].P[0, 0]
    target = 20.0 + math.sqrt(401.0)
    err = abs(P1 - target)
    elapsed = time.perf_counter() - start
    _report(capsys, 1, err < 1e-8 and elapsed < 1.0,
            f"scalar Riccati flow at t=1: |P - (20+sqrt(401))| = {err:.2e} "
            f"(< 1e-8), {elapsed:.2f}s (< 1s)")


# ---------------------------------------------------------------------------
# 2. algebraic Riccati equation in d = 4
# ---------------------------------------------------------------------------

def test_02_are_residual_and_flow_convergence(capsys):
    start = time.perf_counter()
    m = random_model(4, seed=2024)
    assert check_observability(m) and check_controllability(m)
    P_inf = solve_are(m).P
    residual = float(np.linalg.norm(ricc_drift(m, P_inf)))
    absc = spectral_abscissa(m.closed_loop(P_inf))
    horizon = 20.0 / abs(absc)
    grid = TimeGrid.from_horizon(0.0, horizon, horizon / 4000)
    worst = 0.0
    for k in range(5):
        Q = random_psd(4, seed=900 + k, scale=2.0)
        P_end = riccati_flow(m, Q, grid)[-1].P
        worst = max(worst, float(np.linalg.norm(P_end - P_inf)))
    elapsed = time.perf_counter() - start
    _report(capsys, 2, residual < 1e-8 and worst < 1e-6 and elapsed < 10.0,
            f"d=4 ARE residual {residual:.2e} (< 1e-8); flow-to-fixed-point "
            f"gap {worst:.2e} (< 1e-6) over 5 random starts; "
            f"{elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 3. steady-state semigroup rate
# ---------------------------------------------------------------------------

def test_03_semigroup_rate_at_fixed_point(capsys):
    worst = 0.0
    for A in (1.0, 20.0):
        m = scalar_lg(A=A)
        P_inf = solve_are(m).P
        rate = math.sqrt(A * A + 1.0)
        for t in (0.1, 1.0):
            E = semigroup_E(m, P_inf, 0.0, t).E[0, 0]
            worst = max(worst, abs(E - math.exp(-rate * t)))
    _report(capsys, 3, worst < 1e-8,
            f"d=1 semigroup from Q=P_inf matches exp(-t*sqrt(A^2+RS)) to "
            f"{worst:.2e} (< 1e-8) at t in {{0.1, 1}}, A in {{1, 20}}")


# ---------------------------------------------------------------------------
# 4. sample covariance under-bias
# ---------------------------------------------------------------------------

def test_04_under_bias_one_sided_ci(capsys):
    start = time.perf_counter()
    details = []
    all_ok = True
    for model, tag in ((scalar_lg(), "d=1"),
                       (random_model(2, seed=404, stabilize=0.5), "d=2")):
        spec = StudySpec(kind="bias", model=model.to_dict(),
                         grid={"dt": 1e-3, "steps": 2000}, master_seed=41,
                         trials=10_000, N=(10,), variant="vanilla",
                         options={"record_every": 100})
        summary = run_study(spec)
        oks = [bool(r["ci_ok"]) for r in summary.per_point]
        all_ok &= all(oks)
        details.append(f"{tag}: {sum(oks)}/{len(oks)} grid points accept")
    elapsed = time.perf_counter() - start
    _report(capsys, 4, all_ok and elapsed < 120.0,
            f"one-sided 99% CI keeps E[P_hat] <= phi on t in [0,2], N=10, "
            f"1e4 trials ({'; '.join(details)}); {elapsed:.0f}s (< 120s)")


# ---------------------------------------------------------------------------
# 5. 1/sqrt(N) fluctuation rate
# ---------------------------------------------------------------------------

def test_05_fluctuation_rate_slope(capsys):
    start = time.perf_counter()
    slopes = {}
    ok = True
    for kappa in (1, 0):
        spec = StudySpec(kind="fluctuation_rate", model=scalar_lg().to_dict(),
                         grid={"dt": 1e-3, "steps": 1000}, master_seed=55,
                         trials=4000, N=(8, 16, 32, 64, 128, 256),
                         kappa=kappa, options={"Q": 1.0})
        fits = run_study(spec).fits
        slopes[kappa] = fits["slope"]
        ok &= -0.6 < fits["slope"] < -0.4
    elapsed = time.perf_counter() - start
    _report(capsys, 5, ok and elapsed < 300.0,
            f"log-log L2 error slope over N in 8..256: kappa=1 "
            f"{slopes[1]:+.3f}, kappa=0 {slopes[0]:+.3f} (both in "
            f"[-0.6, -0.4]); {elapsed:.0f}s (< 300s)")


# ---------------------------------------------------------------------------
# 6. CLT variance oracle
# ---------------------------------------------------------------------------

def test_06_clt_variance_matches_oracle(capsys):
    start = time.perf_counter()
    spec = StudySpec(kind="clt_variance", model=scalar_lg().to_dict(),
                     grid={"dt": 1e-3, "steps": 1000}, master_seed=66,
                     trials=10_000, N=(256,), kappa=0, options={"Q": 0.0})
    row = run_study(spec).per_point[0]
    elapsed = time.perf_counter() - start
    _report(capsys, 6, row["rel_err"] < 0.05 and elapsed < 180.0,
            f"Var(sqrt(N)(P_hat - phi)) = {row['var']:.4f} vs oracle "
            f"{row['oracle']:.4f}: rel err {row['rel_err']:.3f} (< 0.05); "
            f"{elapsed:.0f}s (< 180s)")


# ---------------------------------------------------------------------------
# 7 + 8. stationary occupation statistics at A=20, N=6
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stationary_pools():
    m = scalar_lg(A=20.0)
    pools = {}
    start = time.perf_counter()
    for variant, kappa in (("vanilla", 1.0), ("deterministic", 0.0)):
        pools[kappa] = stationary_covariance_samples(
            m, variant, 6, 2024, dt=1e-4, replicas=250, horizon=5.0)
    pools["elapsed"] = time.perf_counter() - start
    return pools


def test_07_invariant_density_ks(capsys, stationary_pools):
    m = ScalarModel(A=20.0, R=1.0, S=1.0)
    details = []
    ok = True
    for kappa in (1.0, 0.0):
        pool = stationary_pools[kappa]
        dens = invariant_density(m, kappa, 6)
        ks = ks_distance(pool["samples"], dens.cdf)
        ok &= ks < 0.02 and pool["effective"] >= 10_000
        details.append(f"kappa={kappa:g}: {pool['effective']} effective, "
                       f"KS={ks:.4f}")
    elapsed = stationary_pools["elapsed"]
    ok &= elapsed < 600.0
    _report(capsys, 7, ok,
            f"stationary samples vs closed-form densities ({'; '.join(details)}; "
            f"KS < 0.02, >= 1e4 effective); sampling {elapsed:.0f}s (< 600s)")


def test_08_moment_existence_boundary(capsys, stationary_pools):
    heavy = stationary_pools[1.0]["samples"]
    hill = [hill_tail_index(heavy, k) for k in (100, 200)]
    hill_ok = all(4.0 <= h <= 6.0 for h in hill)
    _, _, r4 = moment_doubling_ratios(heavy, 4)
    _, _, r6 = moment_doubling_ratios(heavy, 6)
    m4_ok = max(abs(r - 1.0) for r in r4) <= 0.5
    m6_ok = max(r6) > 1.5
    light = stationary_pools[0.0]["samples"]
    light_ok = True
    for n in range(1, 10):
        _, _, rn = moment_doubling_ratios(light, n)
        light_ok &= max(abs(r - 1.0) for r in rn) <= 0.5
    _report(capsys, 8, hill_ok and m4_ok and m6_ok and light_ok,
            f"kappa=1 at N=6: Hill index {hill[0]:.2f}/{hill[1]:.2f} "
            f"(in 5+-1), 4th moment stabilizes (max doubling ratio "
            f"{max(r4):.2f}), 6th does not (max ratio {max(r6):.2f} > 1.5); "
            f"kappa=0: moments 1-9 stabilize")


# ---------------------------------------------------------------------------
# 9. Lyapunov exponent: quadrature vs ergodic average
# ---------------------------------------------------------------------------

def test_09_lyapunov_quadrature_vs_ergodic(capsys):
    start = time.perf_counter()
    m = scalar_lg(A=20.0)
    sm = ScalarModel(A=20.0, R=1.0, S=1.0)
    lam = lyapunov_exponent(sm, 0.0, 6)
    lo, hi = -math.sqrt(401.0), -math.sqrt(400.0 + 1.0 / 3.0)
    in_bounds = lo <= lam <= hi
    spec = StudySpec(kind="lyapunov", model=m.to_dict(),
                     grid={"dt": 1e-4, "horizon": 52.0}, master_seed=99,
                     trials=64, N=(6,), kappa=0, options={"burn_in": 2.0})
    row = run_study(spec).per_point[0]
    elapsed = time.perf_counter() - start
    _report(capsys, 9,
            in_bounds and row["rel_err"] < 0.02 and elapsed < 300.0,
            f"quadrature exponent {lam:.5f} in [{lo:.5f}, {hi:.5f}]; ergodic "
            f"average {row['mean']:.5f} within {100 * row['rel_err']:.2f}% "
            f"(< 2%); {elapsed:.0f}s (< 300s)")


# ---------------------------------------------------------------------------
# 10. transport-variant exactness
# ---------------------------------------------------------------------------

def test_10_transport_follows_riccati_flow(capsys):
    A = np.array([[-0.3, 0.1], [0.0, -0.4]])
    H = np.eye(2)
    R = 0.01 * np.eye(2)
    R1 = 100.0 * np.eye(2)
    m = LinearGaussianModel(A=A, H=H, R=R, R1=R1)
    P0 = 1.5 * solve_are(m).P
    grid = TimeGrid(0.0, 1e-4, 10_000)
    rec = run_enkf(m, "transport", N=4, grid=grid, seeds=7,
                   x_init_sampler=moment_matched_init(np.zeros(2), P0))
    flow = riccati_flow(m, P0, grid)
    sup = max(float(np.linalg.norm(rec.cov[k] - flow[k].P))
              for k in range(grid.steps + 1))
    _report(capsys, 10, sup < 1e-6,
            f"transport run at N=2d stays on the deterministic flow: "
            f"sup_t ||P_hat - phi|| = {sup:.2e} (< 1e-6) over 1e4 steps")


# ---------------------------------------------------------------------------
# 11. particle/law distributional equivalence
# ---------------------------------------------------------------------------

def test_11_particle_vs_law_moments(capsys):
    m = scalar_lg()
    grid = TimeGrid(0.0, 1e-3, 1000)
    trials = 10_000
    worst = 0.0
    details = []
    for variant, kappa in (("vanilla", 1), ("deterministic", 0)):
        p = particle_cov_paths_1d(m, variant, N=10, grid=grid, seed=700,
                                  trials=trials, record_indices=[1000],
                                  init="matched", P0=1.0)
        l = law_cov_paths_1d(m, kappa=kappa, N=10, Q=1.0, grid=grid, seed=701,
                             trials=trials, record_indices=[1000])
        pv = p["cov"][np.isfinite(p["cov"][:, 0]), 0]
        lv = l["cov"][np.isfinite(l["cov"][:, 0]), 0]
        zs = []
        for order in (1, 2):
            a, b = pv ** order, lv ** order
            se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
            zs.append(abs(a.mean() - b.mean()) / se)
        worst = max(worst, *zs)
        details.append(f"kappa={kappa}: z = {zs[0]:.2f}/{zs[1]:.2f}")
    _report(capsys, 11, worst < 3.0,
            f"first two moments of P_hat at t=1 agree between particle and "
            f"law runs ({'; '.join(details)}; all < 3 MC sigma)")


# ---------------------------------------------------------------------------
# 12. determinant identity along a stochastic path
# ---------------------------------------------------------------------------

def test_12_determinant_identity(capsys):
    A = np.array([[-0.5, 0.3], [0.0, -0.8]])
    m = LinearGaussianModel(A=A, H=np.eye(2), R=np.eye(2), R1=np.eye(2))
    grid = TimeGrid.from_horizon(0.0, 1.0, 1e-3)
    rec = run_enkf(m, "vanilla", N=8, grid=grid, seeds=12)
    sg = stochastic_semigroup(m, rec, 0.0, 1.0)
    residual = abs(float(np.linalg.det(sg.E_hat)) - math.exp(sg.trace_integral))
    _report(capsys, 12, residual < 1e-6,
            f"|det E - exp(int Tr(A - P_hat S))| = {residual:.2e} (< 1e-6) "
            f"along a d=2 sample-covariance path")


# ---------------------------------------------------------------------------
# 13. semigroup contraction event frequency
# ---------------------------------------------------------------------------

def test_13_contraction_event_frequency(capsys):
    start = time.perf_counter()
    m = scalar_lg(A=20.0)
    spec = StudySpec(kind="semigroup_contraction", model=m.to_dict(),
                     grid={"dt": 1e-4, "horizon": 20.0}, master_seed=1313,
                     trials=200, N=(40,), variant="vanilla")
    row = run_study(spec).per_point[0]
    elapsed = time.perf_counter() - start
    _report(capsys, 13, row["mean"] >= 0.9 and elapsed < 300.0,
            f"freq((1/t) log E < mu/2) = {row['mean']:.3f} (>= 0.9) over 200 "
            f"trials at N=40, t=20 (threshold {row['threshold']:.2f}, mean "
            f"rate {row['rate_mean']:.2f}); {elapsed:.0f}s (< 300s)")


# ---------------------------------------------------------------------------
# 14. inflation ordering in the deterministic limit
# ---------------------------------------------------------------------------

def test_14_inflation_ordering(capsys):
    infl = Inflation(xi=0.5)
    worst = math.inf
    for model, Q in ((scalar_lg(), np.eye(1)),
                     (random_model(2, seed=14, stabilize=0.5), np.eye(2))):
        grid = TimeGrid.from_horizon(0.0, 2.0, 1e-3)
        base = riccati_flow(model, Q, grid)
        for kappa in (1.0, 0.0):
            inflated = inflated_riccati_flow(model, kappa, Q, grid, infl)
            for k in range(grid.steps + 1):
                diff = inflated[k].P - base[k].P if kappa == 1.0 \
                    else base[k].P - inflated[k].P
                worst = min(worst, float(np.linalg.eigvalsh(
                    0.5 * (diff + diff.T))[0]))
    _report(capsys, 14, worst >= -1e-8,
            f"xi=0.5 ordering (inflated above nominal for kappa=1, below for "
            f"kappa=0) holds in d=1 and d=2: smallest eigenvalue margin "
            f"{worst:.2e} (>= -1e-8)")
