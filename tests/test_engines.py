"""Batch trial engines: stream layout, determinism, divergence handling."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, mutually_broadcastable_shapes

from conftest import random_model, random_psd, scalar_lg
from kbflow import (Inflation, LinearGaussianModel, NoiseStream, TimeGrid, _engines, kalman_run,
                    project_psd, riccati_flow, run_nonlinear, sde, symmetric_sqrt)
from kbflow._engines import (
    _mm,
    _nonfinite_trials,
    _project_psd_stack,
    _symmetric_sqrt_stack,
    law_cov_paths_1d,
    law_cov_paths_nd,
    particle_cov_paths_1d,
    particle_cov_paths_nd,
)

M = scalar_lg(A=1.0)
GRID = TimeGrid(0.0, 1e-2, 100)


def test_law_engine_shapes_and_determinism():
    out = law_cov_paths_1d(M, kappa=0, N=10, Q=1.0, grid=GRID, seed=99, trials=5)
    assert out["cov"].shape == (5, 101)
    assert out["diverged_step"].shape == (5,)
    again = law_cov_paths_1d(M, kappa=0, N=10, Q=1.0, grid=GRID, seed=99, trials=5)
    np.testing.assert_array_equal(out["cov"], again["cov"])


def test_chunk_layout_is_part_of_the_result():
    # the chunk size addresses the noise streams, so it is part of the
    # reproducibility contract rather than a performance knob
    a = law_cov_paths_1d(M, kappa=0, N=8, Q=1.0, grid=GRID, seed=5, trials=8, chunk=4)
    b = law_cov_paths_1d(M, kappa=0, N=8, Q=1.0, grid=GRID, seed=5, trials=8, chunk=8)
    assert not np.array_equal(a["cov"], b["cov"])


def test_first_chunk_gives_disjoint_continuations():
    # two offset calls reproduce one longer run chunk-for-chunk
    kw = dict(kappa=1, N=8, Q=1.0, grid=GRID, seed=5, chunk=4)
    whole = law_cov_paths_1d(M, trials=8, **kw)
    part0 = law_cov_paths_1d(M, trials=4, first_chunk=0, **kw)
    part1 = law_cov_paths_1d(M, trials=4, first_chunk=1, **kw)
    np.testing.assert_array_equal(
        whole["cov"], np.concatenate([part0["cov"], part1["cov"]]))


def test_record_indices_subsets_full_path():
    kw = dict(kappa=0, N=10, Q=1.0, grid=GRID, seed=7, trials=4)
    full = law_cov_paths_1d(M, **kw)
    sub = law_cov_paths_1d(M, record_indices=[0, 50, 100], **kw)
    np.testing.assert_array_equal(sub["cov"], full["cov"][:, [0, 50, 100]])
    np.testing.assert_array_equal(sub["t"], full["t"][[0, 50, 100]])


def test_with_mean_and_integral_outputs():
    out = law_cov_paths_1d(M, kappa=0, N=10, Q=1.0, grid=GRID, seed=3, trials=4,
                           integral_from=0)
    assert out["integral"].shape == (4,)
    # closed-loop integrand A - S P is bounded by A: integral < A * horizon
    assert np.all(out["integral"] < M.A[0, 0] * GRID.horizon)


def test_divergence_freezes_trial_to_nan():
    # a stiff signal with a tiny ensemble blows up some trials but not all;
    # the engine must freeze the casualties without touching the survivors
    stiff = scalar_lg(A=20.0)
    out = particle_cov_paths_1d(stiff, "vanilla", N=2,
                                grid=TimeGrid(0.0, 1e-2, 200), seed=11, trials=32)
    diverged = out["diverged_step"] >= 0
    assert diverged.any(), "expected at least one divergent trial"
    assert not diverged.all(), "expected at least one surviving trial"
    for i in np.flatnonzero(diverged):
        k = out["diverged_step"][i]
        assert np.all(np.isnan(out["cov"][i, k:]))
        assert np.all(np.isfinite(out["cov"][i, :k]))
    for i in np.flatnonzero(~diverged):
        assert np.all(np.isfinite(out["cov"][i]))


def test_particle_engine_mean_cov_tracks_law():
    # weak agreement of E[P_hat] between the particle and law engines
    n = 512
    p = particle_cov_paths_1d(M, "deterministic", N=10, grid=GRID, seed=21,
                              trials=n, record_indices=[100])
    l = law_cov_paths_1d(M, kappa=0, N=10, Q=1.0, grid=GRID, seed=22,
                         trials=n, record_indices=[100])
    mp, ml = p["cov"][:, 0], l["cov"][:, 0]
    se = np.sqrt(mp.var() / n + ml.var() / n)
    assert abs(mp.mean() - ml.mean()) < 4 * se


def test_particle_engine_matched_init_is_exact():
    p = particle_cov_paths_1d(M, "vanilla", N=6, grid=GRID, seed=2, trials=8,
                              init="matched", P0=1.0, record_indices=[0])
    np.testing.assert_allclose(p["cov"][:, 0], 1.0, atol=1e-10)


@pytest.mark.parametrize("A, N", [(1.0, 4), (1.0, 10), (1.0, 40), (20.0, 4)])
@pytest.mark.parametrize("variant", ["vanilla", "deterministic"])
def test_scalar_particle_kernel_is_the_nd_kernel_at_d1(variant, A, N):
    # the d = 1 adapter returns the nd kernel's outputs from the same seed,
    # bit for bit, diverged trials included
    m = scalar_lg(A=A)
    kw = dict(grid=GRID, seed=11, trials=32, chunk=16)
    fast = particle_cov_paths_1d(m, variant, N, **kw)
    ref = particle_cov_paths_nd(m, variant, N, **kw)
    np.testing.assert_array_equal(fast["diverged_step"], ref["diverged_step"])
    diverged = ref["diverged_step"] >= 0
    assert diverged.any() == (A == 20.0 and variant == "vanilla") and not diverged.all()
    assert fast["cov"].tobytes() == ref["cov"][:, :, 0, 0].tobytes()


def _blowup(d):
    """A d-dimensional model with one unstable mode, observed in it alone."""
    return LinearGaussianModel(np.diag([3.0] + [-1.0] * (d - 1)), np.eye(d)[:1], np.eye(d),
                               [[1.0]])


@pytest.mark.parametrize("d", [2, 3])
def test_nd_integral_sums_the_closed_loop_matrix_until_divergence(d):
    # integral = sum over the steps k >= k0 of dt (A - P_hat_k S), node k's
    # covariance entering step k; a trial that diverges at step j adds the
    # nodes before j only
    m, k0, grid = _blowup(d), 30, TimeGrid(0.0, 5e-2, 200)
    out = particle_cov_paths_nd(m, "vanilla", N=d + 2, grid=grid, seed=3, trials=8, chunk=5,
                                integral_from=k0)
    div = out["diverged_step"]
    assert (div < 0).any() and ((div >= 0) & (div <= k0)).any() and (div > k0).any()
    for cov, j, got in zip(out["cov"], div, out["integral"]):
        expected = np.zeros((d, d))
        for k in range(k0, grid.steps if j < 0 else j):
            expected += grid.dt * (m.A - cov[k] @ m.S)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("N_over_d", [1, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_nd_matched_init_has_the_exact_moments(d, N_over_d):
    m0, P0 = np.linspace(-1.0, 2.0, d), random_psd(d, seed=d) + 0.5 * np.eye(d)
    out = particle_cov_paths_nd(random_model(d, seed=40 + d, stabilize=1.0), "vanilla",
                                N=d * N_over_d, grid=GRID, seed=2, trials=6, chunk=4,
                                frame="absolute", m0=m0, P0=P0, init="matched",
                                record_indices=[0])
    assert np.abs(out["cov"][:, 0] - P0).max() <= 1e-12 * np.abs(P0).max()
    assert np.abs(out["mean"][:, 0] - m0).max() <= 1e-12 * np.abs(m0).max()


def test_nd_matched_init_needs_N_at_least_d(monkeypatch):
    def no_draws(self, shape):
        raise AssertionError("drew noise before rejecting N < d")

    monkeypatch.setattr(NoiseStream, "normals", no_draws)
    with pytest.raises(ValueError, match="N >= d"):
        particle_cov_paths_nd(random_model(3, seed=43), "vanilla", N=2, grid=GRID, seed=1,
                              trials=2, init="matched")


_STEP_CASES = [(variant, False) for variant in ("vanilla", "deterministic", "transport")] + [
    ("vanilla", True), ("deterministic", True)]


@pytest.mark.parametrize("B", [1, 5])
@pytest.mark.parametrize("d, d_y", [(2, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("variant, inflated", _STEP_CASES)
def test_error_frame_linear_step_is_the_cross_covariance_step(variant, inflated, d, d_y, B):
    # the error frame's linear gain (P_hat + xi T) H' R1^-1 against the
    # sample cross-covariance gain of _particle_update, from one cloud and
    # one set of increments: the same step up to rounding of its increment
    m, dt, M_ = random_model(d, seed=50 + d, d_y=d_y, stabilize=0.5), 5e-2, 7
    rng = np.random.default_rng([d, d_y, B])
    trials = () if B == 1 else (B,)
    lin = np.matmul if B == 1 else _engines._lin

    def draw(k, n, scale=1.0):
        return scale * rng.normal(size=(k, n) + trials)

    X = draw(d, M_)
    X_bar = np.add.reduce(X, 1, keepdims=True) / M_
    dev = X - X_bar
    P_hat = _engines._gram(dev, dev) / (M_ - 1)
    dW, dWi, dV, dVi = (draw(k, n, np.sqrt(dt)) for k, n in ((d_y, 1), (d_y, M_), (d, 1),
                                                             (d, M_)))
    xi_T = 0.5 * random_psd(d, seed=d) if inflated else None
    noise = lin(m.sqrt_R, -dV if variant == "transport" else dVi - dV)
    obs_noise = lin(m.sqrt_R1, dWi) if variant == "vanilla" else None
    sensor = lin(m.sqrt_R1, dW) - (0.0 if obs_noise is None else obs_noise)
    step = _engines._linear_update(m, variant, dt, X.shape, xi_T)
    got = step(X, X_bar, dev, P_hat, noise, sensor, np.empty_like(X))
    ref = _engines._particle_update(X, lin(m.A, X), lin(m.H, X), lin(m.sqrt_R1, dW), noise, dt,
                                    _engines.Variant.parse(variant), m.R1_inv, obs_noise, m.R,
                                    None if xi_T is None else (xi_T, m.H), dev, P_hat)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref - X).max()


@pytest.mark.parametrize("init", ["sobol", np.zeros((3, 2, 5))], ids=["matched", "shape"])
def test_particle_nd_init_is_iid_or_clouds(init, monkeypatch):
    # an init that is not "iid", "matched" or clouds of the batch's shape
    # fails before the first draw
    def no_draws(self, shape):
        raise AssertionError("drew noise before rejecting init")

    monkeypatch.setattr(NoiseStream, "normals", no_draws)
    with pytest.raises(ValueError, match="init|initial clouds"):
        particle_cov_paths_nd(_D2, "vanilla", N=4, grid=GRID, seed=1, trials=2, init=init)


def test_nd_law_engine_large_N_tracks_flow():
    # fluctuations scale like 1/sqrt(N); at N = 1e6 the batch paths sit on
    # the deterministic Riccati flow up to time-discretisation error
    m = random_model(2, seed=31, stabilize=1.0)
    grid = TimeGrid(0.0, 1e-3, 500)
    out = law_cov_paths_nd(m, kappa=1, N=10**6, Q=np.eye(2), grid=grid,
                           seed=9, trials=3)
    target = np.stack([s.P for s in riccati_flow(m, np.eye(2), grid)])
    for i in range(3):
        assert np.max(np.abs(out["cov"][i] - target)) < 1e-2


def test_nd_transport_batch_draws_no_particle_noise():
    # given the truth and the initial clouds, transport is deterministic: the
    # particle seed, which addresses only per-particle noise, changes nothing
    m = random_model(2, seed=31, stabilize=1.0)
    clouds = np.random.default_rng(4).normal(size=(3, 2, 5))
    runs = [particle_cov_paths_nd(m, "transport", N=4, grid=GRID, seed=seed, trials=3,
                                  frame="absolute", init=clouds, truth_seed=8)
            for seed in (0, 1, 2)]
    assert np.all(np.isfinite(runs[0]["cov"]))
    for other in runs[1:]:
        for key in ("cov", "mean", "error"):
            np.testing.assert_array_equal(other[key], runs[0][key])


def test_psd_stacks_match_single_matrix_functions():
    # the law kernel's batched projections are project_psd / symmetric_sqrt,
    # bit for bit, and pass frozen (non-finite) matrices through as NaN
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        mats = [random_psd(d, seed=s) for s in range(4)]
        mats += [M - 0.3 * np.trace(M) * np.eye(d) for M in mats[:2]]   # negative modes
        mats += [np.outer(v, v) for v in rng.normal(size=(2, d))]        # rank one
        stack = np.array(mats + [np.full((d, d), np.nan)])
        proj = _project_psd_stack(stack)
        root = _symmetric_sqrt_stack(proj)
        for i, M in enumerate(mats):
            np.testing.assert_array_equal(proj[i], project_psd(M))
            np.testing.assert_array_equal(root[i], symmetric_sqrt(project_psd(M)))
        assert np.all(np.isnan(proj[-1])) and np.all(np.isnan(root[-1]))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=st.integers(1, 3), n=st.integers(1, 3),
       batch=mutually_broadcastable_shapes(num_shapes=2, max_dims=2, max_side=3))
def test_length_one_contraction_is_the_matmul(data, m, n, batch):
    # the law kernel multiplies by a 1x1 matrix (and contracts over d = 1 or
    # d_y = 1) with a broadcast product; it must give the matmul's numbers
    values = st.floats(-1e6, 1e6)
    a = data.draw(arrays(float, batch.input_shapes[0] + (m, 1), elements=values))
    b = data.draw(arrays(float, batch.input_shapes[1] + (1, n), elements=values))
    assert np.array_equal(_mm(a, b), a @ b)
    if a.shape == (1, 1):
        assert np.array_equal(_mm(a.reshape(()), b), a @ b)


_D2 = random_model(2, seed=31, stabilize=1.0)


@pytest.mark.parametrize("kappa", [0, 1])
@pytest.mark.parametrize("model", [M, _D2], ids=["d1", "d2"])
def test_law_mean_channels_leave_the_covariance_alone(model, kappa):
    kw = dict(kappa=kappa, N=8, Q=np.eye(model.d), grid=GRID, seed=5, trials=5, chunk=3)
    full = law_cov_paths_nd(model, **kw)
    bare = law_cov_paths_nd(model, with_mean=False, **kw)
    assert "mean" in full and "mean" not in bare and "error" not in bare
    np.testing.assert_array_equal(bare["cov"], full["cov"])
    np.testing.assert_array_equal(bare["diverged_step"], full["diverged_step"])


def test_law_integral_sums_the_closed_loop_matrix_over_the_steps():
    out = law_cov_paths_nd(_D2, kappa=1, N=8, Q=np.eye(2), grid=GRID, seed=5, trials=4,
                           with_mean=False, integral_from=20)
    assert np.all(out["diverged_step"] < 0)
    P = out["cov"][:, 20:-1]   # the covariance at the start of steps 20 .. K-1
    expected = (GRID.dt * (_D2.A - P @ _D2.S)).sum(axis=1)
    np.testing.assert_allclose(out["integral"], expected, rtol=0, atol=1e-12)


def test_nd_engine_divergence_freeze():
    stiff = scalar_lg(A=20.0)
    out = particle_cov_paths_nd(stiff, "vanilla", N=2,
                                grid=TimeGrid(0.0, 1e-2, 200), seed=11, trials=16)
    diverged = out["diverged_step"] >= 0
    assert diverged.any()
    assert not diverged.all()
    for i in np.flatnonzero(diverged):
        k = out["diverged_step"][i]
        assert np.all(np.isnan(out["cov"][i, k:, 0, 0]))
    for i in np.flatnonzero(~diverged):
        assert np.all(np.isfinite(out["cov"][i]))


# ---------------------------------------------------------------------------
# block noise
# ---------------------------------------------------------------------------

def test_step_noise_equals_per_step_increments():
    # 14 + 9 + 14 normals per step give L = 885 steps per block; 3000 steps
    # end with a partial block
    shapes = [(2, 7), (9,), None, (2, 7)]
    steps, dt = 3000, 0.01
    L = _engines.NOISE_BLOCK // 37
    assert steps % L
    blocked = [None if s is None else NoiseStream(3, 1, f"c{i}") for i, s in enumerate(shapes)]
    plain = [None if s is None else NoiseStream(3, 1, f"c{i}") for i, s in enumerate(shapes)]
    blocks = _engines._step_noise([(st, s or ()) for st, s in zip(blocked, shapes)], steps, dt)
    k = 0
    for k0, arrays in blocks:
        assert k0 == k
        # only the block from step k0 on has been drawn
        assert blocked[0].cursor == min(steps, k0 + L) * 14
        for draw in _engines._rows(arrays):
            for stream, s, got in zip(plain, shapes, draw):
                if stream is None:
                    assert got is None
                else:
                    np.testing.assert_array_equal(got, stream.increments(s, dt))
            k += 1
    assert k == steps
    assert [s.cursor for s in blocked if s] == [s.cursor for s in plain if s]
    # without a live channel the steps are one block of None arrays
    assert list(_engines._step_noise([(None, (2, 7)), (None, (9,))], steps, dt)) == [
        (0, [None, None])]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", [0, 1])
def test_nonfinite_trials_flags_exactly_the_bad_trial(value, which):
    stacks = [np.ones((5, 2, 2)), np.ones((5, 2, 1))]
    assert _nonfinite_trials(*stacks) is None
    stacks[which][3, 1, 0] = value
    np.testing.assert_array_equal(_nonfinite_trials(*stacks), [0, 0, 0, 1, 0])


def test_nonfinite_trials_overflowing_sum_flags_nothing():
    # every entry is finite but their sum overflows: the exact mask decides
    huge = np.full((4, 2, 2), 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(np.add.reduce(huge, axis=None))
        assert _nonfinite_trials(huge) is None
        assert _nonfinite_trials(np.ones((4, 1, 1)), huge) is None
        huge[2, 0, 1] = -np.inf
        np.testing.assert_array_equal(_nonfinite_trials(huge), [0, 0, 1, 0])


_ENTRIES = st.one_of(st.floats(-1e308, 1e308), st.sampled_from([np.nan, np.inf, -np.inf]))


@settings(max_examples=200, deadline=None)
@given(P=arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 3), st.integers(1, 3)),
                elements=_ENTRIES),
       x=arrays(float, st.tuples(st.just(6), st.integers(1, 3), st.just(1)), elements=_ENTRIES))
def test_nonfinite_trials_is_the_per_trial_mask(P, x):
    # the mask the kernels built at every step before the one-sum test
    x = x[:len(P)]
    expected = ~(np.isfinite(P).all(axis=(1, 2)) & np.isfinite(x).all(axis=(1, 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        got = _nonfinite_trials(P, x)
    if expected.any():
        np.testing.assert_array_equal(got, expected)
    else:
        assert got is None


_STIFF = scalar_lg(A=60.0)
_KERNEL_CASES = {
    "particle_1d": lambda: particle_cov_paths_1d(
        M, "vanilla", N=10, grid=TimeGrid(0.0, 1e-2, 701), seed=4, trials=7, chunk=4,
        integral_from=3),
    "law_1d": lambda: law_cov_paths_1d(
        M, kappa=1, N=8, Q=1.0, grid=TimeGrid(0.0, 1e-2, 1500), seed=5, trials=9, chunk=4,
        integral_from=0),
    # the d = 1 path of law_level_run: the nd kernel with its mean
    "law_nd_d1_with_mean": lambda: law_cov_paths_nd(
        M, kappa=1, N=8, Q=np.eye(1), grid=TimeGrid(0.0, 1e-2, 1500), seed=5, trials=9,
        chunk=4, integral_from=0),
    "particle_nd": lambda: particle_cov_paths_nd(
        random_model(2, seed=31, stabilize=1.0), "vanilla", N=6, grid=GRID, seed=7,
        trials=5, chunk=2, frame="absolute"),
    "particle_nd_all_diverge": lambda: particle_cov_paths_nd(
        _STIFF, "vanilla", N=1, grid=TimeGrid(0.0, 1e-1, 3000), seed=1, trials=6),
    "law_nd": lambda: law_cov_paths_nd(
        random_model(2, seed=31, stabilize=1.0), kappa=1, N=8, Q=np.eye(2), grid=GRID,
        seed=5, trials=5, chunk=3),
    "particle_nd_error_transport": lambda: particle_cov_paths_nd(
        random_model(2, seed=31, stabilize=1.0), "transport", N=6, grid=GRID, seed=7,
        trials=5, chunk=2),
    "law_nd_kappa0_with_mean": lambda: law_cov_paths_nd(
        random_model(2, seed=31, stabilize=1.0), kappa=0, N=8, Q=np.eye(2), grid=GRID,
        seed=5, trials=5, chunk=3, x0=[0.5, -0.5]),
    "law_nd_without_mean": lambda: law_cov_paths_nd(
        random_model(2, seed=31, stabilize=1.0), kappa=0, N=8, Q=np.eye(2), grid=GRID,
        seed=5, trials=5, chunk=3, with_mean=False, integral_from=10),
    # 4 normals per step: blocks of 8192 steps, the second one partial
    "kalman_run": lambda: _filter_path(kalman_run(
        random_model(2, seed=31, stabilize=1.0), np.zeros(2), np.eye(2), 6,
        TimeGrid(0.0, 1e-3, 10000))),
    # 30 + 15 normals per step: blocks of 728 steps, the second one partial
    "run_nonlinear": lambda: dict(zip(("X", "diverged_step"), run_nonlinear(
        lambda X: X - X ** 3, lambda X: np.tanh(X[:, :1]), (0.5 * np.eye(2), np.eye(1)),
        NoiseStream(2, 0, "init").normals((3, 2, 5)),
        NoiseStream(3, 0, "obs").increments((1000, 3, 1), 1e-2), 1e-2, "vanilla", seed=8))),
}


def _filter_path(states):
    return {"X": np.array([s.X for s in states]), "Z": np.array([s.Z for s in states])}


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_block_length_is_not_part_of_the_result(case, monkeypatch):
    # the default blocks span many steps (and the last one is partial);
    # NOISE_BLOCK = 1 draws one step at a time
    blocked = _KERNEL_CASES[case]()
    monkeypatch.setattr(_engines, "NOISE_BLOCK", 1)
    per_step = _KERNEL_CASES[case]()
    assert blocked.keys() == per_step.keys()
    for key in blocked:
        np.testing.assert_array_equal(blocked[key], per_step[key])
    if case == "particle_nd_all_diverge":
        # every trial stops early in the first block: the kernel breaks out
        # with most of the block unused
        assert np.all((blocked["diverged_step"] > 0) & (blocked["diverged_step"] < 100))


# ---------------------------------------------------------------------------
# eigendecomposition reuse in the law kernel
# ---------------------------------------------------------------------------

_STIFF_D2 = LinearGaussianModel([[1.0, 5.0], [0.0, -1.0]], [[1.0, 0.0]], np.eye(2), [[1.0]])
_BLOWUP_D2 = LinearGaussianModel([[30.0, 0.0], [0.0, 2.0]], [[1.0, 0.0]], np.eye(2), [[1.0]])


@pytest.mark.parametrize("model, kappa, N, dt, inflation, expect", [
    (_D2, 0, 8, 1e-2, None, "plain"),
    (_D2, 0, 8, 1e-2, Inflation(xi=0.5), "plain"),
    (_D2, 1, 8, 1e-2, None, "plain"),
    (_D2, 1, 8, 1e-2, Inflation(xi=0.5), "plain"),
    (_STIFF_D2, 0, 1, 5e-2, None, "clamps"),
    (_STIFF_D2, 1, 1, 5e-2, Inflation(xi=0.5), "clamps"),
    (_BLOWUP_D2, 1, 2, 1e-1, None, "diverges"),
])
def test_law_kernel_root_reuse_is_bitwise(model, kappa, N, dt, inflation, expect,
                                          monkeypatch):
    # the root of P at step k + 1 reuses the eigh of step k's projection
    # wherever it kept P; forcing a fresh eigh every step changes no bit
    def run():
        return law_cov_paths_nd(model, kappa, N=N, Q=np.eye(2), grid=TimeGrid(0.0, dt, 300),
                                seed=5, trials=8, chunk=3, inflation=inflation)

    clamped = []

    def counting_projection(M, with_eig=False):
        out, eig = sde._project_psd_stack(M, with_eig=True)
        clamped.append(int((eig[0][:, 0] < 0.0).sum()))
        return (out, eig) if with_eig else out

    monkeypatch.setattr(_engines, "_project_psd_stack", counting_projection)
    reused = run()
    monkeypatch.setattr(_engines, "_symmetric_sqrt_stack",
                        lambda M, eig=None: sde._symmetric_sqrt_stack(M))
    fresh = run()
    for key in reused:
        np.testing.assert_array_equal(reused[key], fresh[key])
    diverged = reused["diverged_step"] > 0
    assert (sum(clamped) > 0) == (expect != "plain")
    assert diverged.any() == (expect == "diverges") and not diverged.all()


# ---------------------------------------------------------------------------
# the trials-last layout of the particle kernels
# ---------------------------------------------------------------------------

_ROW_COUNTS = list(range(1, 41)) + [41, 51, 127, 128, 129, 136, 200, 257, 513]


@pytest.mark.parametrize("n", _ROW_COUNTS)
def test_row_sum_is_numpys_pairwise_sum_bit_for_bit(n):
    # the particle kernel sums each trial's cloud over the particle axis of
    # its (d, M, B) stack, as np.add.reduce(X, 0) sums an (n, B) array: the
    # trial's particles added in sequence from 0.0.  Below 8 terms that is numpy's pairwise
    # sum of the trial's contiguous row bit for bit, the order the kernel
    # summed in before the trials axis went last, so the d = 1 outputs at
    # M <= 7 kept their bits; from 8 terms on it differs from the pairwise
    # sum by rounding only, and is non-finite in the same trials with the
    # same values, so a cloud diverges at the same step
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 64)) * 10.0 ** rng.integers(-8, 9, size=(n, 64))
    X[:, 0] = -0.0
    X[rng.integers(n), 1] = np.nan
    X[rng.integers(n), 2] = np.inf
    X[rng.integers(n), 3] = -np.inf
    X[:, 4] = np.inf
    X[0, 4] = -np.inf  # inf - inf
    X[:, 5] = 1e308  # finite terms whose sum overflows
    with np.errstate(over="ignore", invalid="ignore"):
        pairwise = np.add.reduce(np.ascontiguousarray(X.T), axis=1)
        got = np.add.reduce(X, 0)
        in_sequence = np.zeros(64)
        for row in X:
            in_sequence = in_sequence + row
        magnitude = np.add.reduce(np.abs(X), 0)
    assert got.tobytes() == in_sequence.tobytes()
    if n < 8:
        assert got.tobytes() == pairwise.tobytes()
    finite = np.isfinite(pairwise)
    np.testing.assert_array_equal(np.isfinite(got), finite)
    np.testing.assert_array_equal(got[~finite], pairwise[~finite])  # NaN equals NaN here
    assert not np.signbit(got[0]) and got[0] == 0.0
    bound = n * np.finfo(float).eps * magnitude[finite]
    assert np.all(np.abs(got[finite] - pairwise[finite]) <= bound)


@pytest.mark.parametrize("B", [1, 3, 1024])
@pytest.mark.parametrize("M_", [2, 11, 51])
@pytest.mark.parametrize("d_y", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_trials_last_contractions_are_the_per_matrix_products(d, d_y, M_, B):
    # each helper against the per-matrix @ of the (B, ., .) stacks the
    # kernels used before: bit for bit at one trial (the kernels' own
    # per-matrix products), within 1e-13 of the sum of absolute products
    # per entry otherwise (another summation order)
    rng = np.random.default_rng([d, d_y, M_, B])
    X, hX, innov = (rng.normal(size=(B, k, M_)) for k in (d, d_y, d_y))
    G, drift = rng.normal(size=(B, d, d_y)), rng.normal(size=(B, d, d))
    C = rng.normal(size=(d_y, d))
    R1_inv = rng.normal(size=(d_y, d_y))

    def layout(stack):
        return _engines._trials_last(stack, 0, drop_one=True)

    cloud = layout(X)  # one array, as the kernels pass it (numpy's product
    # of an array with its own transpose is a symmetric rank-k update)
    cases = {
        "gram": (_engines._gram(cloud, cloud), X, X.swapaxes(1, 2)),
        "cross gram": (_engines._gram(cloud, layout(hX)), X, hX.swapaxes(1, 2)),
        "gain R1_inv": (_engines._dot(layout(G), R1_inv), G, R1_inv),
        "gain innovation": (_engines._dot(layout(G), layout(innov)), G, innov),
        "transport drift": (_engines._dot(layout(drift), cloud), drift, X),
        "constant": (_engines._lin(C, _engines._trials_last(X, 0)), C, X),
    }
    for name, (got, a, b) in cases.items():
        got = _engines._trials_first(got)
        expected = a @ b
        assert got.shape == expected.shape, name
        if B == 1:
            np.testing.assert_array_equal(got, expected, err_msg=name)
        else:
            bound = 1e-13 * (np.abs(a) @ np.abs(b))
            assert np.all(np.abs(got - expected) <= bound), name
