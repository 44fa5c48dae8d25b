"""Batch trial engines: stream layout, determinism, divergence handling."""
import numpy as np
import pytest

from conftest import random_model, random_psd, scalar_lg
from kbflow import NoiseStream, TimeGrid, _engines, project_psd, riccati_flow, symmetric_sqrt
from kbflow._engines import (
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
                           with_mean=True, integral_from=0)
    assert out["mean"].shape == (4, 101)
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
                         trials=n, record_indices=[100], P0=1.0)
    mp, ml = p["cov"][:, 0], l["cov"][:, 0]
    se = np.sqrt(mp.var() / n + ml.var() / n)
    assert abs(mp.mean() - ml.mean()) < 4 * se


def test_particle_engine_matched_init_is_exact():
    p = particle_cov_paths_1d(M, "vanilla", N=6, grid=GRID, seed=2, trials=8,
                              init="matched", P0=1.0, record_indices=[0])
    np.testing.assert_allclose(p["cov"][:, 0], 1.0, atol=1e-10)


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
    draws = _engines._step_noise([(st, s or ()) for st, s in zip(blocked, shapes)], steps, dt)
    for k, draw in enumerate(draws):
        for stream, s, got in zip(plain, shapes, draw):
            if stream is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, stream.increments(s, dt))
        # only the block holding step k has been drawn
        assert blocked[0].cursor == min(steps, (k // L + 1) * L) * 14
    assert k == steps - 1
    assert [s.cursor for s in blocked if s] == [s.cursor for s in plain if s]


_STIFF = scalar_lg(A=60.0)
_KERNEL_CASES = {
    "particle_1d": lambda: particle_cov_paths_1d(
        M, "vanilla", N=10, grid=TimeGrid(0.0, 1e-2, 701), seed=4, trials=7, chunk=4,
        with_mean=True, integral_from=3),
    "particle_1d_absolute": lambda: particle_cov_paths_1d(
        M, "deterministic", N=5, grid=GRID, seed=4, trials=3, frame="absolute",
        with_mean=True),
    "law_1d": lambda: law_cov_paths_1d(
        M, kappa=1, N=8, Q=1.0, grid=TimeGrid(0.0, 1e-2, 1500), seed=5, trials=9, chunk=4,
        with_mean=True, integral_from=0),
    "particle_nd": lambda: particle_cov_paths_nd(
        random_model(2, seed=31, stabilize=1.0), "vanilla", N=6, grid=GRID, seed=7,
        trials=5, chunk=2, frame="absolute"),
    "particle_nd_all_diverge": lambda: particle_cov_paths_nd(
        _STIFF, "vanilla", N=1, grid=TimeGrid(0.0, 1e-1, 3000), seed=1, trials=6),
    "law_nd": lambda: law_cov_paths_nd(
        random_model(2, seed=31, stabilize=1.0), kappa=1, N=8, Q=np.eye(2), grid=GRID,
        seed=5, trials=5, chunk=3),
}


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
