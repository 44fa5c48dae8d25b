"""Exact filter: Riccati drift/flow, co-simulated runs, semigroup E."""
import math

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_model, random_psd, scalar_lg
from kbflow import (
    Inflation,
    LinearGaussianModel,
    NonFinite,
    NotPSD,
    ScalarModel,
    TimeGrid,
    check_riccati_sandwich,
    contraction_rate,
    inflated_riccati_flow,
    kalman_run,
    law_level_run,
    ricc_drift,
    riccati_closed_form,
    riccati_flow,
    run_enkf,
    semigroup_E,
    slope_fit,
    solve_are,
)
from kbflow import model as kbmodel
from kbflow.kalman import RiccatiPath, RiccatiState, TrajectoryRecord
from kbflow.model import _hamiltonian_propagator


def test_ricc_drift_examples():
    m = scalar_lg(A=0.0)
    np.testing.assert_allclose(ricc_drift(m, [[1.0]]), [[0.0]], atol=1e-14)
    m20 = scalar_lg(A=20.0)
    np.testing.assert_allclose(ricc_drift(m20, [[0.0]]), [[1.0]], atol=1e-14)


def test_ricc_drift_matches_dense_arithmetic():
    m = random_model(2, seed=4)
    P = random_psd(2, seed=5)
    direct = m.A @ P + P @ m.A.T - P @ m.S @ P + m.R
    direct = 0.5 * (direct + direct.T)
    np.testing.assert_allclose(ricc_drift(m, P), direct, atol=1e-12)


def test_riccati_flow_fixed_point():
    m = scalar_lg(A=0.0)
    states = riccati_flow(m, [[1.0]], TimeGrid(0.0, 0.01, 200))
    for s in states:
        assert abs(s.P[0, 0] - 1.0) < 1e-10


def test_riccati_flow_tanh():
    # A=0, R=S=1, Q=0: P_t = tanh(t)
    m = scalar_lg(A=0.0)
    grid = TimeGrid(0.0, 0.01, 200)
    states = riccati_flow(m, [[0.0]], grid)
    by_t = {round(s.t, 6): s.P[0, 0] for s in states}
    for t in (0.5, 1.0, 2.0):
        assert abs(by_t[t] - math.tanh(t)) < 1e-7


def test_riccati_flow_reaches_stiff_fixed_point():
    m = scalar_lg(A=20.0)
    states = riccati_flow(m, [[0.0]], TimeGrid(0.0, 1e-3, 1000))
    assert abs(states[-1].P[0, 0] - (20 + math.sqrt(401))) < 1e-8


@pytest.mark.parametrize("dt", [25.0, 40.0])
def test_riccati_flow_large_steps_stay_exact(dt):
    # one unsplit propagator step expm(dt * Ham) overflows at A=20 from
    # dt ~ 36 on; sub-stepping keeps every node on the closed form
    grid = TimeGrid(0.0, dt, 2, dt_max=dt)
    states = riccati_flow(scalar_lg(A=20.0), [[3.7]], grid)
    numeric = np.array([s.P[0, 0] for s in states])
    assert np.all(np.isfinite(numeric))
    exact = riccati_closed_form(ScalarModel(A=20.0, R=1.0, S=1.0), 3.7, grid.times())
    np.testing.assert_allclose(numeric, exact, rtol=0.0, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(A=st.floats(-20.0, 20.0), R=st.floats(0.1, 5.0), S=st.floats(0.1, 5.0),
       Q=st.floats(0.0, 10.0), log_dt=st.floats(-4.0, 0.0), steps=st.integers(1, 1500))
@example(A=20.0, R=1.0, S=1.0, Q=0.0, log_dt=-4.0, steps=10000)  # test 01's flow
@example(A=20.0, R=1.0, S=1.0, Q=3.7, log_dt=0.0, steps=30)      # 21 sub-steps per node
def test_riccati_flow_is_the_closed_form_at_d1(A, R, S, Q, log_dt, steps):
    # every node, whether it ends a span, lies inside one, or ends one of
    # several sub-steps (dt ||Ham||_1 > 1)
    sm, grid = ScalarModel(A=A, R=R, S=S), TimeGrid(0.0, 10.0 ** log_dt, steps)
    numeric = np.array([s.P[0, 0] for s in riccati_flow(scalar_lg(A, R, S), [[Q]], grid)])
    exact = riccati_closed_form(sm, Q, grid.times())
    scale = max(1.0, Q, float(exact.max()))
    np.testing.assert_allclose(numeric, exact, rtol=1e-10, atol=1e-12 * scale)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_riccati_flow_does_not_depend_on_the_span(d, monkeypatch):
    # 2001 nodes: spans of the default length end with a partial span
    m = random_model(d, seed=40 + d)
    grid = TimeGrid(0.0, 2e-3, 2001)
    n_sub, powers = _hamiltonian_propagator(m.A, m.S, m.R, grid.dt, grid.steps)
    assert n_sub == 1 and 1 < len(powers) and grid.steps % len(powers)
    Q = random_psd(d, seed=50 + d)
    spans = np.array([s.P for s in riccati_flow(m, Q, grid)])
    monkeypatch.setattr(kbmodel, "SPAN_MAX", 1)
    steps = np.array([s.P for s in riccati_flow(m, Q, grid)])
    gap = np.linalg.norm(spans - steps, axis=(1, 2)) / np.linalg.norm(steps, axis=(1, 2))
    assert gap.max() <= 1e-12


def test_riccati_flow_emits_psd_states():
    m = random_model(3, seed=8)
    for s in riccati_flow(m, np.zeros((3, 3)), TimeGrid(0.0, 0.01, 100)):
        np.testing.assert_allclose(s.P, s.P.T, atol=1e-10)
        assert np.linalg.eigvalsh(s.P)[0] >= -1e-10 * (1 + np.linalg.norm(s.P))


def test_riccati_flow_monotone_in_initial_condition():
    m = random_model(2, seed=14)
    rng = np.random.default_rng(15)
    grid = TimeGrid(0.0, 0.01, 100)
    for trial in range(5):
        Q1 = random_psd(2, seed=100 + trial)
        Q2 = Q1 + random_psd(2, seed=200 + trial)  # Q1 <= Q2
        flow1 = riccati_flow(m, Q1, grid)
        flow2 = riccati_flow(m, Q2, grid)
        for s1, s2 in zip(flow1[::10], flow2[::10]):
            gap = np.linalg.eigvalsh(s2.P - s1.P)[0]
            assert gap >= -1e-8


def test_flow_differences_contract_at_twice_the_rate():
    # scalar: |phi_t(Q1) - phi_t(Q2)| decays like e^{-2 sqrt(A^2+RS) t}
    sm_A = 1.0
    m = scalar_lg(A=sm_A)
    rate = math.sqrt(sm_A ** 2 + 1)
    grid = TimeGrid(0.0, 0.01, 300)
    f1 = riccati_flow(m, [[0.5]], grid)
    f2 = riccati_flow(m, [[4.0]], grid)
    ts = np.array([s.t for s in f1])
    diff = np.array([abs(a.P[0, 0] - b.P[0, 0]) for a, b in zip(f1, f2)])
    sel = ts >= 1.0  # past the nonlinear transient
    slope, _ = slope_fit(ts[sel], np.log(diff[sel]))
    assert slope == pytest.approx(-2 * rate, rel=0.1)


@pytest.mark.parametrize("d", [1, 3])
def test_riccati_path_is_the_node_stack(d):
    # the flow is _riccati_nodes' stack; nodes are built on access
    m, Q = random_model(d, seed=8, stabilize=1.0), random_psd(d, seed=9)
    grid = TimeGrid(0.0, 0.01, 40)
    path = riccati_flow(m, Q, grid)
    nodes = kbmodel._riccati_nodes(m.A, m.S, m.R, kbmodel._check_covariance(Q, d),
                                   grid.dt, grid.steps)
    assert isinstance(path, RiccatiPath) and len(path) == 41
    assert path.P.tobytes() == nodes.tobytes()
    np.testing.assert_array_equal(path.t, grid.times())
    for k in (0, 17, -1):
        node = path[k]
        assert isinstance(node, RiccatiState)
        assert node.t == grid.times()[k] and isinstance(node.t, float)
        np.testing.assert_array_equal(node.P, nodes[k])
    sub = path[::10]
    assert isinstance(sub, RiccatiPath) and len(sub) == 5
    np.testing.assert_array_equal(sub.P, nodes[::10])
    np.testing.assert_array_equal(sub.t, grid.times()[::10])
    states = list(path)
    assert [s.t for s in states] == grid.times().tolist()
    np.testing.assert_array_equal(np.array([s.P for s in states]), nodes)


def test_kalman_run_record_rows_are_the_node_states():
    m = random_model(2, seed=31, stabilize=1.0)
    grid = TimeGrid(0.0, 0.01, 30)
    rec = kalman_run(m, np.zeros(2), np.eye(2), 6, grid)
    assert isinstance(rec, TrajectoryRecord) and len(rec) == 31
    assert (rec.variant, rec.seed, rec.N, rec.xi, rec.kappa, rec.diverged_at) == \
        ("exact", 6, None, 0.0, None, None)
    np.testing.assert_array_equal(rec.t, grid.times())
    assert rec.cov.tobytes() == riccati_flow(m, np.eye(2), grid).P.tobytes()
    for k in (0, 12, -1):
        s = rec[k]
        assert s.t == s.P.t == rec.t[k]
        np.testing.assert_array_equal(s.X, rec.mean[k])
        np.testing.assert_array_equal(s.P.P, rec.cov[k])
        np.testing.assert_array_equal(s.Z, rec.error[k])
    assert [s.t for s in rec] == grid.times().tolist()
    with pytest.raises(TypeError):
        rec[1:3]
    # the closed-loop log-norm: lambda_max of sym(A - P S) at each node
    mu = [np.linalg.eigvalsh(0.5 * (G + G.T))[-1] for G in m.A - rec.cov @ m.S]
    np.testing.assert_array_equal(rec.mu_closed_loop, mu)


def test_kalman_run_noiseless_exact_init():
    # no signal noise, tiny sensor noise, truth pinned at the filter mean
    m = LinearGaussianModel([[0.0]], [[1.0]], [[0.0]], [[1e-6]])
    out = kalman_run(m, x0=[0.0], Q=[[0.0]], truth_seed=0,
                     grid=TimeGrid(0.0, 1e-3, 200), m0=[0.0], P0=[[0.0]])
    for s in out:
        assert abs(s.Z[0]) < 1e-9


@pytest.mark.parametrize("A, H, R1, dt, steps, step", [
    ([[50.0]], [[1.0]], [[1.0]], 1.0, 300, 181),
    ([[3.0, 1.0], [0.0, 2.0]], [[1.0, 0.0]], [[1.0]], 1.0, 2000, 512),
    ([[0.5, 0.0], [0.0, 600.0]], [[1.0, 1.0]], [[0.01]], 0.05, 400, 207),
])
def test_kalman_run_divergence_step(A, H, R1, dt, steps, step):
    # the step at which the signal or the filter overflows, as the per-step
    # check of the earlier implementation found it; no warning on the way
    m = LinearGaussianModel(A, H, np.eye(len(A)), R1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite) as info:
            kalman_run(m, np.zeros(m.d), np.eye(m.d), 3, TimeGrid(0.0, dt, steps))
    assert info.value.step == step
    assert info.value.t == pytest.approx(step * dt)


@pytest.mark.parametrize("truth_seed", [1.7, True, 2.0])
def test_kalman_run_truth_seed_must_be_an_integer(truth_seed):
    m, grid = scalar_lg(), TimeGrid(0.0, 0.01, 20)
    if truth_seed != 2.0:
        with pytest.raises(ValueError, match="^truth_seed must be an integer"):
            kalman_run(m, [0.0], [[1.0]], truth_seed, grid)
        return
    run = kalman_run(m, [0.0], [[1.0]], truth_seed, grid)
    ref = kalman_run(m, [0.0], [[1.0]], 2, grid)
    assert type(run.seed) is int and run.seed == 2
    assert run.error.tobytes() == ref.error.tobytes()
    assert run.mean.tobytes() == ref.mean.tobytes()


_Q_ENTRY_POINTS = {
    "riccati_flow": lambda m, Q: riccati_flow(m, Q, TimeGrid(0.0, 0.01, 5)),
    "inflated_riccati_flow": lambda m, Q: inflated_riccati_flow(
        m, 1.0, Q, TimeGrid(0.0, 0.01, 5), Inflation(xi=0.5)),
    "kalman_run": lambda m, Q: kalman_run(m, np.zeros(2), Q, 0, TimeGrid(0.0, 0.01, 5)),
    "kalman_run_P0": lambda m, Q: kalman_run(m, np.zeros(2), np.eye(2), 0,
                                             TimeGrid(0.0, 0.01, 5), P0=Q),
    "semigroup_E": lambda m, Q: semigroup_E(m, Q, 0.0, 0.5),
    "check_riccati_sandwich": lambda m, Q: check_riccati_sandwich(m, Q, tau=1.0, t=2.0),
    "law_level_run": lambda m, Q: law_level_run(m, 1.0, Q, np.zeros(2),
                                                TimeGrid(0.0, 0.01, 5), 5, streams=1),
    "run_enkf": lambda m, Q: run_enkf(m, "vanilla", 4, TimeGrid(0.0, 0.01, 5), seeds=1, P0=Q),
}


@pytest.mark.parametrize("entry", sorted(_Q_ENTRY_POINTS))
def test_initial_covariance_is_checked(entry):
    call, m = _Q_ENTRY_POINTS[entry], random_model(2, seed=60, stabilize=0.5)
    with pytest.raises(NotPSD, match="eigenvalue"):
        call(m, np.diag([1.0, -5.0]))
    with pytest.raises(NotPSD, match="non-finite"):
        call(m, np.full((2, 2), np.nan))
    for bad in (1.0, np.eye(3)):
        with pytest.raises(ValueError, match=r"2 x 2 matrix \(d = 2\), got shape"):
            call(m, bad)
    # a negative eigenvalue within the clamp tolerance is roundoff
    call(m, np.diag([1.0, -1e-12]))


def test_kalman_run_stationary_error_variance():
    # error Z is stationary OU-like with variance P_inf
    m = scalar_lg(A=-1.0)
    P_inf = solve_are(m).P[0, 0]
    grid = TimeGrid(0.0, 0.01, 2000)
    out = kalman_run(m, x0=[0.0], Q=[[P_inf]], truth_seed=11, grid=grid)
    z = np.array([s.Z[0] for s in out])
    tail = z[len(z) // 2:]
    v = tail.var()
    # effective sample count is reduced by autocorrelation (time constant
    # ~ 1/(2 rate)); budget 3 MC sigmas on that basis
    rate = contraction_rate(ScalarModel(A=-1.0, R=1.0, S=1.0))
    n_eff = (len(tail) * grid.dt) * 2 * rate / 2
    assert abs(v - P_inf) < 3 * P_inf * math.sqrt(2 / n_eff)


def test_kalman_run_mean_error_decays():
    # filter started offset from the truth mean: E[Z_t] decays like c e^{-a t}
    m = scalar_lg(A=-1.0)
    offset = 1.0
    grid = TimeGrid(0.0, 0.01, 200)  # t = 2
    trials = 300
    zs = np.array([
        kalman_run(m, x0=[offset], Q=[[1.0]], truth_seed=seed, grid=grid)[-1].Z[0]
        for seed in range(trials)
    ])
    rate = contraction_rate(ScalarModel(A=-1.0, R=1.0, S=1.0))
    envelope = offset * math.exp(-rate * grid.horizon) + 3 * zs.std() / math.sqrt(trials)
    assert abs(zs.mean()) < envelope
    assert abs(zs.mean()) < offset / 2  # the offset has visibly decayed


def test_semigroup_identity_at_s_equals_t():
    m = random_model(2, seed=6)
    E = semigroup_E(m, random_psd(2, seed=7), 1.0, 1.0)
    np.testing.assert_allclose(E.E, np.eye(2), atol=1e-12)


def test_semigroup_scalar_rate_at_fixed_point():
    for A in (1.0, 20.0):
        m = scalar_lg(A=A)
        P_inf = solve_are(m).P
        rate = math.sqrt(A ** 2 + 1)
        for t in (0.1, 1.0):
            E = semigroup_E(m, P_inf, 0.0, t)
            assert abs(E.E[0, 0] - math.exp(-t * rate)) < 1e-8


def test_semigroup_cocycle():
    m = random_model(2, seed=9)
    Q = random_psd(2, seed=10)
    E_02 = semigroup_E(m, Q, 0.0, 2.0).E
    E_01 = semigroup_E(m, Q, 0.0, 1.0).E
    E_12 = semigroup_E(m, Q, 1.0, 2.0).E
    np.testing.assert_allclose(E_02, E_12 @ E_01, atol=1e-7)


def test_semigroup_determinant_identity():
    # det E_t(Q) = exp(int_0^t Tr(A - phi_s S) ds)
    m = random_model(2, seed=16)
    Q = random_psd(2, seed=17)
    E = semigroup_E(m, Q, 0.0, 1.5)
    assert np.linalg.det(E.E) == pytest.approx(math.exp(E.trace_integral), rel=1e-7)


def test_riccati_sandwich_scalar():
    m = scalar_lg(A=0.0)
    report = check_riccati_sandwich(m, [[5.0]], tau=1.0, t=2.0)
    assert report.ok
    assert all(v >= -1e-8 for v in report.margins.values())


def test_riccati_sandwich_at_fixed_point():
    m = scalar_lg(A=1.0)
    P_inf = solve_are(m).P
    report = check_riccati_sandwich(m, P_inf, tau=1.0, t=2.0)
    assert report.ok
    # the fixed-point upper bound is tight at Q = P_inf
    assert report.margins["upper_fixed_point"] == pytest.approx(0.0, abs=1e-7)


def test_riccati_sandwich_random_models():
    for seed in range(100):
        m = random_model(2, seed=3000 + seed)
        Q = random_psd(2, seed=4000 + seed, scale=2.0)
        report = check_riccati_sandwich(m, Q, tau=1.0, t=2.0)
        assert report.ok, (seed, report.margins)


def test_sandwich_validates_times():
    with pytest.raises(ValueError):
        check_riccati_sandwich(scalar_lg(), [[1.0]], tau=2.0, t=1.0)
