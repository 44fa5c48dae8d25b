"""Particle systems, law-level SDEs, semigroups, inflation, bounds."""
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import random_model, random_psd, scalar_lg
from kbflow import (
    BoundNotApplicable,
    Inflation,
    LinearGaussianModel,
    TimeGrid,
    inflated_riccati_flow,
    kalman_run,
    law_level_run,
    liouville_bound,
    riccati_flow,
    run_enkf,
    slope_fit,
    solve_are,
    stochastic_semigroup,
)
from kbflow.ensemble import (
    Variant,
    _kernel_record,
    iid_gaussian_init,
    moment_matched_init,
    run_nonlinear,
)
from kbflow.kalman import TRUTH_INIT, TRUTH_OBS
from kbflow.sde import NoiseStream, project_psd


def test_variant_parsing_and_kappa():
    assert Variant.parse("vanilla").kappa == 1
    assert Variant.parse("deterministic").kappa == 0
    assert Variant.parse("transport").kappa is None
    with pytest.raises(ValueError, match="^unknown variant 'bogus'; expected one of: "
                                         "vanilla, deterministic, transport$"):
        Variant.parse("bogus")


def test_sample_covariance_rank_bound():
    # N + 1 = 3 particles in d = 5: the sample covariance has rank <= 2 at
    # every node
    m = random_model(5, seed=1, stabilize=1.0)
    rec = run_enkf(m, "vanilla", N=2, grid=TimeGrid(0.0, 1e-2, 20), seeds=1)
    w = np.linalg.eigvalsh(rec.cov)
    assert np.all((w > 1e-10 * w[:, -1:]).sum(axis=1) <= 2)


def test_moment_matched_init_is_exact():
    P0 = random_psd(2, seed=2) + np.eye(2)
    cloud = moment_matched_init([1.0, -1.0], P0)(NoiseStream(0, 0, "init"), 6)
    np.testing.assert_allclose(cloud.mean(axis=1), [1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(np.cov(cloud), P0, atol=1e-10)  # divisor N


def test_single_particle_deterministic_runs():
    m = scalar_lg(A=0.5)
    rec = run_enkf(m, "deterministic", N=1, grid=TimeGrid(0.0, 1e-2, 200), seeds=3)
    assert rec.diverged_at is None
    assert np.all(rec.cov[:, 0, 0] >= -1e-12)


def test_transport_requires_enough_particles_or_pinv():
    # N < d exercises the pseudo-inverse fallback without error
    m = random_model(3, seed=30, stabilize=1.0)
    rec = run_enkf(m, "transport", N=2, grid=TimeGrid(0.0, 1e-3, 100), seeds=4)
    assert rec.diverged_at is None


def test_transport_covariance_follows_riccati_flow():
    m = scalar_lg(A=1.0)
    sups = []
    for dt, steps in [(2e-3, 500), (1e-3, 1000)]:
        grid = TimeGrid(0.0, dt, steps)
        rec = run_enkf(m, "transport", N=2, grid=grid, seeds=42)
        flow = riccati_flow(m, rec.cov[0], grid)
        sups.append(max(abs(s.P[0, 0] - c[0, 0]) for s, c in zip(flow, rec.cov)))
    assert sups[1] < 5e-3
    # first-order scheme: halving dt roughly halves the defect
    assert sups[1] < 0.7 * sups[0]


def test_paired_truth_identity():
    # Zhat - Z = Xhat - X when the exact and ensemble runs share the truth
    m = scalar_lg(A=1.0)
    grid = TimeGrid(0.0, 1e-2, 100)
    ks = kalman_run(m, x0=[0.0], Q=[[1.0]], truth_seed=7, grid=grid)
    rec = run_enkf(m, "vanilla", N=5, grid=grid, seeds=(7, 8))
    lhs = np.array([rec.error[k] - ks[k].Z for k in range(grid.steps + 1)])
    rhs = np.array([rec.mean[k] - ks[k].X for k in range(grid.steps + 1)])
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_ensemble_mean_converges_to_kalman_mean():
    # L2 error of the ensemble mean against the paired exact filter decays
    # like 1/sqrt(N): fitted slope -0.5 +- 0.1
    m = scalar_lg(A=1.0)
    grid = TimeGrid(0.0, 1e-2, 100)
    seeds = range(100)
    kal = {s: kalman_run(m, x0=[0.0], Q=[[1.0]], truth_seed=s, grid=grid)[-1].X[0]
           for s in seeds}
    Ns = [8, 32, 128, 512]
    l2 = []
    for N in Ns:
        errs = [run_enkf(m, "vanilla", N, grid, seeds=(s, 1000 + s)).mean[-1][0] - kal[s]
                for s in seeds]
        l2.append(math.sqrt(np.mean(np.square(errs))))
    slope, _ = slope_fit(np.log(Ns), np.log(l2))
    assert -0.6 <= slope <= -0.4


def test_divergence_is_recorded_not_raised():
    # an aggressive step size makes the stiff vanilla system explode
    m = scalar_lg(A=20.0)
    rec = run_enkf(m, "vanilla", N=2, grid=TimeGrid(0.0, 5e-2, 200), seeds=1)
    assert rec.diverged_at is not None
    k = np.searchsorted(rec.t, rec.diverged_at)
    assert np.all(np.isnan(rec.cov[k:, 0, 0]))
    assert np.all(np.isfinite(rec.cov[:k, 0, 0]))


def test_overflowing_record_counts_as_divergence():
    # a finite covariance whose closed loop overflows ends the record at
    # that node, quietly, as a divergence of the kernel itself would
    m = LinearGaussianModel([[1.0]], [[1.0]], [[1.0]], [[1e-10]])  # S = 1e10
    grid = TimeGrid(0.0, 1e-2, 3)
    cov = np.array([1.0, 2.0, 1e300, 3.0]).reshape(4, 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = _kernel_record(m, grid, np.zeros((4, 1)), cov, np.zeros((4, 1)),
                             variant="vanilla")
    assert rec.diverged_at == grid.times()[2]
    assert np.all(np.isnan(rec.cov[2:])) and np.all(np.isnan(rec.mu_closed_loop[2:]))
    assert np.all(np.isfinite(rec.mu_closed_loop[:2]))


def test_law_level_large_n_tracks_deterministic_flow():
    m = scalar_lg(A=1.0)
    grid = TimeGrid(0.0, 1e-3, 1000)
    rec = law_level_run(m, kappa=0, Q=[[0.0]], x0=[0.0], grid=grid, N=10_000,
                        truth_seed=3)
    flow = riccati_flow(m, [[0.0]], grid)
    sup = max(abs(s.P[0, 0] - c[0, 0]) for s, c in zip(flow, rec.cov))
    assert sup < 5e-2


def test_law_level_validates_kappa():
    m = scalar_lg()
    grid = TimeGrid(0.0, 1e-2, 10)
    for kappa in (0.5, True):
        with pytest.raises(ValueError, match="^kappa must be 0 or 1"):
            law_level_run(m, kappa=kappa, Q=[[1.0]], x0=[0.0], grid=grid, N=10,
                          truth_seed=0)
    # a bool or a non-integral count or seed is refused, naming the argument
    for key, value in [("N", 4.5), ("N", True), ("truth_seed", 1.7), ("truth_seed", True)]:
        kw = {"N": 10, "truth_seed": 0, key: value}
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            law_level_run(m, 1, [[1.0]], [0.0], grid, **kw)
    # an integral float is that integer
    rec = law_level_run(m, 1, [[1.0]], [0.0], grid, N=10.0, truth_seed=3.0)
    ref = law_level_run(m, 1, [[1.0]], [0.0], grid, N=10, truth_seed=3)
    assert type(rec.N) is int and type(rec.seed) is int
    np.testing.assert_array_equal(rec.cov, ref.cov)


def test_law_level_streams_are_addresses():
    # the streams seed picks the ensemble noise; the truth stays that of
    # truth_seed, so runs on different streams seeds share the signal exactly
    m = random_model(2, seed=12, stabilize=0.5)
    grid = TimeGrid(0.0, 1e-2, 50)
    recs = [law_level_run(m, 1, np.eye(2), np.zeros(2), grid, 8, streams=streams,
                          truth_seed=5)
            for streams in (11, 12)]
    # mean - error is the signal up to one rounding
    np.testing.assert_allclose(recs[0].mean - recs[0].error,
                               recs[1].mean - recs[1].error, rtol=0, atol=1e-12)
    assert not np.array_equal(recs[0].cov, recs[1].cov)
    for streams in (1.5, "11", None):
        with pytest.raises(ValueError):
            law_level_run(m, 1, np.eye(2), np.zeros(2), grid, 8, streams=streams)


def test_seeded_single_runs_reproduce_pinned_values():
    # final rows of seeded runs, as stepped before run_enkf/law_level_run
    # became B = 1 calls of the batch kernels
    m = random_model(2, seed=12, stabilize=0.5)
    grid = TimeGrid(0.0, 1e-2, 100)
    cases = [
        (run_enkf(m, "vanilla", 8, grid, seeds=(5, 9)),
         [0.37556842012033426, 0.1897080840164876],
         [0.7844633617154743, 0.43257126245683336, 1.582557343770748],
         -0.3569218220756457),
        (run_enkf(m, "transport", 6, grid, seeds=3,
                  x_init_sampler=moment_matched_init([0.0, 1.0], np.eye(2))),
         [1.7406616486270716, 1.3187057742245607],
         [0.9959967686114727, 0.8321388391380641, 1.4017326385651436],
         -0.45743465963230673),
        (run_enkf(m, "deterministic", 6, grid, seeds=2, inflation=Inflation(xi=0.3)),
         [1.939318796280784, 1.1926304555294234],
         [0.8500133190691517, 0.7092577515948396, 0.9549944598050245],
         -0.25166921558808947),
        (law_level_run(m, 1, np.eye(2), np.zeros(2), grid, 8, streams=11, truth_seed=5),
         [-0.07295411239235419, -0.4165995457436361],
         [0.18273837660203365, 0.1775921019177961, 1.2507817438769864],
         0.019541150033495214),
    ]
    for rec, mean, cov, mu in cases:
        assert rec.diverged_at is None
        np.testing.assert_allclose(rec.mean[-1], mean, rtol=1e-12)
        np.testing.assert_allclose(rec.cov[-1][np.triu_indices(2)], cov, rtol=1e-12)
        np.testing.assert_allclose(rec.mu_closed_loop[-1], mu, rtol=1e-12)
    rec = law_level_run(scalar_lg(A=1.0), 0, [[1.0]], [0.0], grid, 10, truth_seed=3)
    np.testing.assert_allclose([rec.mean[-1, 0], rec.cov[-1, 0, 0], rec.mu_closed_loop[-1]],
                               [1.238019194068906, 1.7446262980395573, -0.7446262980395573],
                               rtol=1e-12)


def test_stochastic_semigroup_identity_at_equal_times():
    m = random_model(2, seed=12, stabilize=0.5)
    rec = run_enkf(m, "vanilla", N=8, grid=TimeGrid(0.0, 1e-2, 100), seeds=5)
    sg = stochastic_semigroup(m, rec, 0.5, 0.5)
    np.testing.assert_allclose(sg.E_hat, np.eye(2), atol=1e-12)


def test_stochastic_semigroup_determinant_identity():
    # det E_hat equals exp of the integrated closed-loop trace
    A = np.array([[-0.5, 0.3], [0.0, -0.8]])
    m = LinearGaussianModel(A, np.eye(2), np.eye(2), np.eye(2))
    rec = run_enkf(m, "vanilla", N=8, grid=TimeGrid(0.0, 1e-3, 1000), seeds=21)
    sg = stochastic_semigroup(m, rec, 0.0, 1.0)
    assert abs(np.linalg.det(sg.E_hat) - math.exp(sg.trace_integral)) < 1e-6


def test_stochastic_semigroup_accepts_plain_path():
    m = scalar_lg(A=0.0)
    times = np.linspace(0.0, 1.0, 101)
    covs = np.ones((101, 1, 1))
    sg = stochastic_semigroup(m, (times, covs), 0.0, 1.0)
    # frozen P=1=P_inf: E = e^{-t}
    assert sg.E_hat[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)
    assert sg.log_rate == pytest.approx(-1.0, abs=1e-6)


def _semigroup_by_interval(model, times, covs, s, t):
    """Reference: one RK4 step of E, one Simpson sum of log-norms and one
    trace term per interval of the interpolated path, accumulated in order."""
    def P_at(u):
        i = min(max(np.searchsorted(times, u, side="right") - 1, 0), len(times) - 2)
        w = (u - times[i]) / (times[i + 1] - times[i])
        return (1.0 - w) * covs[i] + w * covs[i + 1]

    def log_norm(M):
        return np.linalg.eigvalsh(0.5 * (M + M.T))[-1]

    A, S = model.A, model.S
    nodes = np.concatenate([[s], times[(times > s) & (times < t)], [t]])
    E, mu_int, tr_int = np.eye(model.d), 0.0, 0.0
    for u0, u1 in zip(nodes[:-1], nodes[1:]):
        h = u1 - u0
        P0, P1 = P_at(u0), P_at(u1)
        Pm = 0.5 * (P0 + P1)
        G0, Gm, G1 = A - P0 @ S, A - Pm @ S, A - P1 @ S
        k1 = G0 @ E
        k2 = Gm @ (E + 0.5 * h * k1)
        k3 = Gm @ (E + 0.5 * h * k2)
        k4 = G1 @ (E + h * k3)
        E = E + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        mu_int += (h / 6.0) * (log_norm(G0) + 4.0 * log_norm(Gm) + log_norm(G1))
        tr_int += h * (np.trace(A) - 0.5 * np.trace((P0 + P1) @ S))
    return E, mu_int, tr_int


@pytest.mark.parametrize("s, t", [(0.0, 1.0), (0.1234, 0.87777), (0.305, 0.3051), (0.0, 0.5)])
def test_stochastic_semigroup_matches_the_interval_loop(s, t):
    # s and t on or off the path's nodes, and both inside one interval
    m = random_model(2, seed=12, stabilize=0.5)
    rec = run_enkf(m, "vanilla", N=8, grid=TimeGrid(0.0, 1e-2, 100), seeds=5)
    sg = stochastic_semigroup(m, rec, s, t)
    E, mu_int, tr_int = _semigroup_by_interval(m, rec.t, rec.cov, s, t)
    np.testing.assert_allclose(sg.E_hat, E, rtol=1e-12, atol=1e-12 * np.abs(E).max())
    assert sg.log_norm_integral == pytest.approx(mu_int, rel=1e-12, abs=1e-15)
    assert sg.trace_integral == pytest.approx(tr_int, rel=1e-12, abs=1e-15)
    assert (sg.s, sg.t) == (s, t)


def test_stochastic_semigroup_on_a_constant_path_is_the_matrix_exponential():
    # with P constant the generator is constant and E = expm((A - P S) t);
    # RK4 steps of h = 0.01 leave an error of order h^4
    m = random_model(2, seed=8, stabilize=0.5)
    P = random_psd(2, seed=9)
    times = np.linspace(0.0, 2.0, 201)
    sg = stochastic_semigroup(m, (times, np.broadcast_to(P, (201, 2, 2))), 0.0, 2.0)
    exact = expm((m.A - P @ m.S) * 2.0)
    np.testing.assert_allclose(sg.E_hat, exact, rtol=0, atol=1e-8 * np.abs(exact).max())
    G = m.A - P @ m.S
    assert sg.trace_integral == pytest.approx(2.0 * np.trace(G), rel=1e-12)
    mu = np.linalg.eigvalsh(0.5 * (G + G.T))[-1]
    assert sg.log_norm_integral == pytest.approx(2.0 * mu, rel=1e-12)


def test_liouville_bound_values():
    m = scalar_lg(A=0.0)
    # d=1, n=1: correction (2n+d+1)/N = 4/N
    assert liouville_bound(m, n=1, N=8, kappa=0) == pytest.approx(math.sqrt(0.5))
    assert liouville_bound(m, n=1, N=8, kappa=1) == pytest.approx(0.5)
    # N -> infinity recovers sqrt(Tr(RS)) = 1 = sqrt(A^2 + RS) at A=0
    assert liouville_bound(m, n=1, N=10 ** 9, kappa=0) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(BoundNotApplicable):
        liouville_bound(m, n=1, N=4, kappa=0)  # boundary N = 2n+d+1
    with pytest.raises(ValueError):
        liouville_bound(m, n=0, N=8, kappa=0)
    for kappa in (True, 0.5, "1"):
        with pytest.raises(ValueError, match="^kappa must be 0 or 1"):
            liouville_bound(m, n=1, N=8, kappa=kappa)


def test_run_nonlinear_linear_specialization_is_bitwise():
    # with linear evaluators, one step of one cloud is one run_enkf step: same
    # cloud, same particle streams, the observation increment of run_enkf's
    # truth
    m = random_model(2, seed=9, d_y=1, stabilize=0.5)
    dt = 0.01
    cloud = iid_gaussian_init([0.0, 0.0], np.eye(2))(NoiseStream(3, 0, "init"), 4)
    truth = NoiseStream(7, 0, TRUTH_INIT).normals(2)
    dY = m.H @ truth * dt + m.sqrt_R1 @ NoiseStream(7, 0, TRUTH_OBS).increments(1, dt)
    for variant in ("vanilla", "deterministic", "transport"):
        rec = run_enkf(m, variant, 4, TimeGrid(0.0, dt, 1), seeds=(7, 77),
                       x_init_sampler=lambda stream, N: cloud.copy())
        X, div = run_nonlinear(lambda X: m.A @ X, lambda X: m.H @ X, (m.R, m.R1),
                               cloud[None], dY[None, None], dt, variant, seed=77)
        assert div.tolist() == [-1]
        dev = X[0] - X[0].mean(axis=1)[:, None]
        np.testing.assert_array_equal(X[0].mean(axis=1), rec.mean[1])
        np.testing.assert_array_equal(project_psd(dev @ dev.T / 4), rec.cov[1])


def test_nonlinear_dissipative_drift_stays_bounded():
    # a(x) = x - x^3 with identity observation: no blow-up over long runs of
    # 100 clouds
    R = np.array([[0.5]])
    R1 = np.array([[1.0]])
    dt = 1e-2
    clouds = NoiseStream(901, 0, "init").normals((100, 1, 5))
    dY = NoiseStream(900, 0, "obs-path").increments((1000, 100, 1), dt)  # pure sensor noise
    X, div = run_nonlinear(lambda X: X - X ** 3, lambda X: X, (R, R1), clouds, dY, dt,
                           Variant.DETERMINISTIC, seed=500)
    assert np.all(div == -1)
    assert np.all(np.isfinite(X))
    assert np.all(np.abs(X.mean(axis=(1, 2))) < 5.0)


def _diverging_batch():
    # a(x) = x^3 - x is stable near 0 and explodes beyond |x| = 1: the cloud
    # started at 3 blows up, the three near 0 do not
    dt = 1e-2
    X0 = 0.1 * NoiseStream(1, 0, "init").normals((4, 1, 5))
    X0[2] += 3.0
    dY = NoiseStream(2, 0, "obs").increments((200, 4, 1), dt)
    return X0, dY, dt


@pytest.mark.parametrize("variant", ["vanilla", "deterministic", "transport"])
def test_run_nonlinear_divergence_is_recorded_not_raised(variant):
    X0, dY, dt = _diverging_batch()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X, div = run_nonlinear(lambda X: X ** 3 - X, lambda X: X, (0.1 * np.eye(1), np.eye(1)),
                               X0, dY, dt, variant, seed=3)
    assert 0 < div[2] < 200 and np.all(np.isnan(X[2]))
    survivors = [0, 1, 3]
    assert np.all(div[survivors] == -1) and np.all(np.isfinite(X[survivors]))


def test_run_nonlinear_transport_draws_no_noise(monkeypatch):
    # the transport update is deterministic given the observations: no
    # channel is drawn, the seed plays no part, and the steps are one block
    def no_draws(*args, **kwargs):
        raise AssertionError("the transport variant drew noise")

    monkeypatch.setattr(NoiseStream, "normals", no_draws)
    monkeypatch.setattr(NoiseStream, "increments", no_draws)
    m = random_model(2, seed=9, d_y=1, stabilize=0.5)
    X0 = np.random.default_rng(4).normal(size=(3, 2, 5))
    dY = np.random.default_rng(5).normal(scale=0.1, size=(50, 3, 1))

    def run(X, dY, seed):
        return run_nonlinear(lambda X: m.A @ X - X ** 3, lambda X: m.H @ X, (m.R, m.R1),
                             X, dY, 0.01, "transport", seed)

    X, div = run(X0, dY, 1)
    assert np.all(div == -1) and not np.array_equal(X, X0)
    np.testing.assert_array_equal(run(X0, dY, 2)[0], X)
    # all 50 steps ran: 20 steps, then 30 more from there, end at the same cloud
    np.testing.assert_array_equal(run(run(X0, dY[:20], 1)[0], dY[20:], 1)[0], X)


@pytest.mark.parametrize("X0_shape, dY_shape", [
    ((2, 5), (10, 2, 1)),       # X0 is not a stack of clouds
    ((2, 1, 1), (10, 2, 1)),    # one particle per cloud (N = 0)
    ((2, 1, 5), (10, 2)),       # dY without its observation axis
    ((2, 1, 5), (10, 3, 1)),    # dY for three clouds
    ((2, 1, 5), (10, 2, 2)),    # dY of the wrong observation dimension
])
def test_run_nonlinear_rejects_misshapen_inputs(X0_shape, dY_shape):
    def run(X0, dY, seed):
        return run_nonlinear(lambda X: -X, lambda X: X, (np.eye(1), np.eye(1)), X0, dY,
                             0.01, "vanilla", seed=seed)

    with pytest.raises(ValueError):
        run(np.zeros(X0_shape), np.zeros(dY_shape), 0)
    # on well-shaped inputs, a bool or non-integral seed is refused and an
    # integral float is that integer
    X0, dY = np.zeros((2, 1, 5)), np.zeros((10, 2, 1))
    for seed in (1.7, True, "0"):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            run(X0, dY, seed)
    np.testing.assert_array_equal(run(X0, dY, 2.0)[0], run(X0, dY, 2)[0])


def test_inflation_requires_vanilla_or_deterministic():
    with pytest.raises(ValueError):
        run_enkf(scalar_lg(), "transport", N=4, grid=TimeGrid(0.0, 0.01, 10), seeds=1,
                 inflation=Inflation(xi=0.5))
    with pytest.raises(ValueError):
        Inflation(xi=-0.1)


def test_inflated_flow_ordering_scalar():
    m = scalar_lg(A=1.0)
    grid = TimeGrid(0.0, 1e-2, 200)
    base = riccati_flow(m, [[0.2]], grid)
    infl = Inflation(xi=0.5)
    up = inflated_riccati_flow(m, kappa=1, Q=[[0.2]], grid=grid, inflation=infl)
    down = inflated_riccati_flow(m, kappa=0, Q=[[0.2]], grid=grid, inflation=infl)
    for b, u, d_ in zip(base, up, down):
        assert u.P[0, 0] >= b.P[0, 0] - 1e-8
        assert d_.P[0, 0] <= b.P[0, 0] + 1e-8
    for kappa in (True, 0.5):
        with pytest.raises(ValueError, match="^kappa must be 0 or 1"):
            inflated_riccati_flow(m, kappa, [[0.2]], grid, infl)


def test_inflated_run_with_reference_matrix():
    m = random_model(2, seed=40, stabilize=0.5)
    infl = Inflation(xi=0.3, T=np.eye(2))
    rec = run_enkf(m, "deterministic", N=6, grid=TimeGrid(0.0, 1e-2, 50),
                   seeds=2, inflation=infl)
    assert rec.diverged_at is None
    assert rec.xi == pytest.approx(0.3)


def test_run_enkf_validates_ensemble_size():
    m, grid = scalar_lg(), TimeGrid(0.0, 1e-2, 10)
    with pytest.raises(ValueError):
        run_enkf(m, "vanilla", N=0, grid=grid, seeds=0)
    # a bool or a non-integral count or seed is refused, naming the argument,
    # before the initial cloud is drawn
    def sampler(stream, N):
        raise AssertionError("drew the initial cloud")

    for key, value in [("N", 4.5), ("N", True), ("seeds", 1.7), ("seeds", True),
                       ("seeds", (1, 2.5)), ("seeds", (False, 2))]:
        kw = {"N": 4, "seeds": 1, key: value}
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            run_enkf(m, "vanilla", grid=grid, x_init_sampler=sampler, **kw)
    # an integral float is that integer
    rec = run_enkf(m, "vanilla", N=4.0, grid=grid, seeds=(3.0, 5))
    ref = run_enkf(m, "vanilla", N=4, grid=grid, seeds=(3, 5))
    assert type(rec.N) is int and type(rec.seed) is int
    np.testing.assert_array_equal(rec.cov, ref.cov)
