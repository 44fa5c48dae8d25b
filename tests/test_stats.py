"""Statistical estimators, moment accumulation, and study orchestration."""
import json
import math
import os
import re
import time
import tracemalloc
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import norm

import kbflow
from conftest import ROOT, outputs, random_model, scalar_lg
from kbflow import stats
from kbflow.errors import ConfigError
from kbflow.stats import (
    STUDY_KINDS,
    MomentAccumulator,
    StudySpec,
    decorrelation_stride,
    default_workers,
    hill_tail_index,
    ks_distance,
    moment_doubling_ratios,
    run_study,
    slope_fit,
    stationary_covariance_samples,
)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def test_ks_distance_against_own_cdf():
    rng = np.random.default_rng(101)
    s = rng.normal(size=10_000)
    # 1% critical value for n = 1e4 is about 1.63/sqrt(n) = 0.0163
    assert ks_distance(s, norm.cdf) < 0.0163


def test_ks_distance_detects_wrong_cdf():
    rng = np.random.default_rng(101)
    s = rng.normal(loc=0.5, size=10_000)
    assert ks_distance(s, norm.cdf) > 0.15


def test_ks_distance_validation():
    with pytest.raises(ValueError):
        ks_distance(np.zeros(500), norm.cdf)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ks_distance(rng.normal(size=2000), lambda x: -x)


def test_hill_estimator_recovers_pareto_index():
    rng = np.random.default_rng(55)
    s = rng.pareto(5.0, size=100_000) + 1.0  # survival ~ x^{-5}
    assert hill_tail_index(s, 1000) == pytest.approx(5.0, abs=0.5)


def test_hill_validation():
    rng = np.random.default_rng(0)
    s = rng.pareto(3.0, size=1000) + 1.0
    with pytest.raises(ValueError):
        hill_tail_index(s, 100)  # k must be < n/10
    with pytest.raises(ValueError):
        hill_tail_index(s, 0)
    with pytest.raises(ValueError):
        hill_tail_index(np.linspace(-1.0, 0.0, 1000), 10)


def test_slope_fit():
    x = np.linspace(0.0, 5.0, 12)
    slope, se = slope_fit(x, 3.0 - 0.5 * x)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(21)
    y = 1.0 + 2.0 * x + 0.1 * rng.normal(size=x.size)
    slope, se = slope_fit(x, y)
    assert abs(slope - 2.0) < 3 * se
    with pytest.raises(ValueError):
        slope_fit([0, 1, 2], [0, 1, 2])


# ---------------------------------------------------------------------------
# moment accumulation
# ---------------------------------------------------------------------------

def test_moment_accumulator_matches_direct_moments():
    rng = np.random.default_rng(42)
    data = rng.exponential(size=5000) ** 1.5
    acc = MomentAccumulator(order=6)
    for part in np.split(data, [700, 1900, 4100]):
        acc.add(part)
    assert acc.n == data.size
    assert acc.mean == pytest.approx(data.mean(), rel=1e-12)
    assert acc.variance == pytest.approx(np.var(data, ddof=1), rel=1e-10)
    centered = data - data.mean()
    for p in range(2, 7):
        assert acc.central_moment(p) == pytest.approx(
            np.mean(centered ** p), rel=1e-9), p
    sd = data.std()
    assert acc.std_moment(3) == pytest.approx(np.mean(centered ** 3) / sd ** 3,
                                              rel=1e-9)


def test_moment_accumulator_merge_equals_single_pass():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=800), rng.normal(loc=3.0, size=1200)
    one = MomentAccumulator(order=5).add(np.concatenate([a, b]))
    merged = MomentAccumulator(order=5).add(a).merge(MomentAccumulator(order=5).add(b))
    for p in range(2, 6):
        assert merged.central_moment(p) == pytest.approx(
            one.central_moment(p), rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), order=st.integers(2, 6),
       x=arrays(float, st.integers(2, 120), elements=st.floats(-1e3, 1e3)))
def test_moment_accumulator_merge_of_any_split_is_the_single_pass(data, order, x):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(x)), max_size=5)))
    one = MomentAccumulator(order=order).add(x)
    merged = MomentAccumulator(order=order)
    for piece in np.split(x, cuts):
        merged.merge(MomentAccumulator(order=order).add(piece))
    assert merged.n == one.n == len(x)
    scale = max(1.0, float(np.abs(x).max()))
    assert merged.mean == pytest.approx(one.mean, rel=1e-12, abs=1e-12 * scale)
    dev = np.abs(x - x.mean())
    for p in range(2, order + 1):
        # relative to the p-th absolute moment, not to a central moment that
        # cancels to ~0, plus the p-th power of a rounding of the mean
        tol = 1e-8 * float(np.mean(dev ** p)) + (1e-12 * scale) ** p
        assert abs(merged.central_moment(p) - one.central_moment(p)) <= tol, p


def test_moment_accumulator_validation():
    with pytest.raises(ValueError):
        MomentAccumulator(order=1)
    with pytest.raises(ValueError):
        MomentAccumulator(order=13)
    with pytest.raises(ValueError):
        MomentAccumulator().add([1.0, math.nan])
    with pytest.raises(ValueError):
        MomentAccumulator(order=4).merge(MomentAccumulator(order=5))


def test_moment_doubling_ratios():
    rng = np.random.default_rng(3)
    iid = rng.exponential(size=4000)
    sizes, estimates, ratios = moment_doubling_ratios(iid, 2)
    assert sizes[-1] == 4000 and sizes[0] >= 500
    assert all(b == 2 * a for a, b in zip(sizes, sizes[1:]))
    assert len(ratios) == len(sizes) - 1
    assert max(abs(r - 1.0) for r in ratios) < 0.15
    # a nonexistent fourth moment drifts far beyond the 1.5 flag
    heavy = rng.pareto(1.5, size=4000) + 1.0
    _, _, ratios_h = moment_doubling_ratios(heavy, 4)
    assert max(ratios_h) > 1.5
    with pytest.raises(ValueError):
        moment_doubling_ratios(iid[:800], 2)


def test_decorrelation_stride():
    rng = np.random.default_rng(7)
    n, phi = 4096, 0.9
    e = rng.normal(size=(4, n))
    x = np.zeros((4, n))
    for k in range(1, n):
        x[:, k] = phi * x[:, k - 1] + e[:, k]
    # lag-1 correlation of stride-s thinning is phi^s; phi^s < 0.1 first
    # holds at s = 22, so the power-of-two search returns 32
    assert decorrelation_stride(x) == 32
    assert decorrelation_stride(rng.normal(size=(4, 1024))) == 1


# ---------------------------------------------------------------------------
# stationary occupation sampling
# ---------------------------------------------------------------------------

def test_stationary_pool_contract():
    m = scalar_lg()
    pool = stationary_covariance_samples(m, "vanilla", 10, 77, dt=1e-3,
                                         replicas=8, horizon=8.0, burn_in=1.0,
                                         record_stride=10)
    assert pool["effective"] == pool["samples"].size
    assert pool["stride_steps"] % 10 == 0
    assert pool["burn_in"] == pytest.approx(1.0)
    assert pool["replicas"] == 8
    assert pool["diverged"] == 0
    assert abs(pool["lag_corr"]) < 0.1
    assert np.all(pool["samples"] > 0)


def test_stationary_pool_reproducible_and_seed_sensitive():
    m = scalar_lg()
    kw = dict(dt=1e-3, replicas=4, horizon=3.0, burn_in=0.5)
    a = stationary_covariance_samples(m, "deterministic", 8, 5, **kw)
    b = stationary_covariance_samples(m, "deterministic", 8, 5, **kw)
    c = stationary_covariance_samples(m, "deterministic", 8, 6, **kw)
    np.testing.assert_array_equal(a["samples"], b["samples"])
    assert not np.array_equal(a["samples"], c["samples"])


def _lag1_one_shot(series):
    """The lag-1 statistic over a whole (R, K) stack at once: the reference
    the blockwise reads must equal bit for bit."""
    a = series[:, :-1]
    b = series[:, 1:]
    a0 = a - a.mean(axis=1, keepdims=True)
    b0 = b - b.mean(axis=1, keepdims=True)
    den = np.sqrt(np.sum(a0 * a0, axis=1) * np.sum(b0 * b0, axis=1))
    ok = den > 0
    if not np.any(ok):
        return 0.0
    return float(np.mean(np.sum(a0 * b0, axis=1)[ok] / den[ok]))


def _stride_one_shot(series, target):
    stride = 1
    while series.shape[1] // stride >= 4:
        if abs(_lag1_one_shot(series[:, ::stride])) < target:
            return stride
        stride *= 2
    return stride


def _ar1_stack(R, K, phi, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(R, K))
    for k in range(1, K):
        x[:, k] += phi * x[:, k - 1]
    return 1.0 + 0.1 * x


@pytest.mark.parametrize("R, K, phi, target", [
    (40, 3000, 0.9, 0.1),     # several blocks at the small strides
    (4, 40_000, 0.99, 0.1),   # one replica per block
    (25, 37, 0.0, 1e-9),      # no stride qualifies: the untested one, K // stride < 4
])
def test_stationary_pool_reads_blocks_as_one_stack(R, K, phi, target):
    stack = _ar1_stack(R, K, phi, seed=R)
    stack[1] = 2.0  # a replica of zero variance
    div = np.full(R, -1)
    div[[0, R - 1]] = [5, 50]  # diverged before the last step
    grid = kbflow.TimeGrid(0.0, 1e-3, 10 * (K - 1))
    job = {"grid": grid, "record_indices": np.arange(0, grid.steps + 1, 10)}
    for diverged in (div, np.full(R, -1)):
        alive = diverged < 0
        series = stack[alive]
        stride = _stride_one_shot(series, target)
        assert stats._decorrelation_stride(stack, np.flatnonzero(alive), target) == stride
        assert decorrelation_stride(series, target) == stride
        thinned = series[:, ::stride]
        assert stats._lag1_correlation(series) == _lag1_one_shot(series)
        assert stats._lag1_correlation(stack, np.flatnonzero(alive), stride) == \
            _lag1_one_shot(thinned)
        pool = stats._stationary_pool({"cov": stack, "diverged_step": diverged}, job, 10,
                                      target)
        np.testing.assert_array_equal(pool["samples"], thinned.ravel())
        assert pool["lag_corr"] == _lag1_one_shot(thinned)
        assert pool["stride_steps"] == 10 * stride
        assert pool["effective"] == thinned.size
        assert pool["diverged"] == R - series.shape[0]
    if target < 1e-6:
        assert series.shape[1] // stride < 4


@pytest.mark.parametrize("diverged", [False, True])
def test_stationary_pool_holds_no_copy_of_the_stack(diverged):
    # test 07's size: 250 replicas x 5001 records, 9.5 MiB
    stack = _ar1_stack(250, 5001, 0.95, seed=3)
    div = np.where(np.arange(250) % 7 == 3, 100, -1) if diverged else np.full(250, -1)
    grid = kbflow.TimeGrid(0.0, 1e-4, 50_000)
    job = {"grid": grid, "record_indices": np.arange(0, grid.steps + 1, 10)}
    tracemalloc.start()
    try:
        pool = stats._stationary_pool({"cov": stack, "diverged_step": div}, job, 10, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pool["diverged"] == (36 if diverged else 0)
    assert peak - pool["samples"].nbytes <= 0.25 * stack.nbytes


_POOL_ARGS = dict(dt=1e-2, replicas=2, horizon=1.0, burn_in=0.1, record_stride=2)


@pytest.mark.parametrize("over, named", [
    ({"replicas": 0}, "replicas"),
    ({"replicas": -1}, "replicas"),
    ({"replicas": 2.5}, "replicas"),
    ({"N": 1.5}, "N"),
    ({"N": 0}, "N"),
    ({"record_stride": 0}, "record_stride"),
    ({"record_stride": 2.5}, "record_stride"),
    ({"dt": 0.0}, "dt"),
    ({"burn_in": -1.0}, "burn_in"),
    ({"horizon": math.inf}, "horizon"),
    ({"target_lag_corr": 1.5}, "target_lag_corr"),
    ({"master_seed": -1}, "master_seed"),
    ({"chunk": 2.5}, "chunk"),
    ({"workers": 0}, "workers"),
    # one record per replica: the stride search tests none
    ({"horizon": 0.2, "record_stride": 100}, "record_stride 100 over a horizon of 0.2"),
])
def test_stationary_sampler_arguments_are_checked(monkeypatch, over, named):
    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel ran")

    monkeypatch.setattr(stats, "_map_chunks", no_kernel)
    kw = {"N": 6, "master_seed": 1, **_POOL_ARGS, **over}
    with pytest.raises(ValueError, match=f"^{named} "):
        stationary_covariance_samples(scalar_lg(), "vanilla", **kw)


# ---------------------------------------------------------------------------
# study specification and orchestration
# ---------------------------------------------------------------------------

def _spec_payload(**over):
    base = dict(kind="bias", model=scalar_lg().to_dict(),
                grid={"dt": 0.02, "steps": 50}, master_seed=12, trials=200,
                N=(10,), variant="vanilla", chunk=64,
                options={"record_every": 25})
    base.update(over)
    return base


@pytest.mark.parametrize("kind, options", [
    ("bias", {"record_every": 0}),
    ("moments_flow", {"record_every": 2.5}),
    ("invariant_ks", {"record_stride": 0}),
    ("lyapunov", {"burn_in": -1.0}),
    ("invariant_ks", {"horizon": 0.0}),
    ("invariant_ks", {"target_lag_corr": 1.0}),
    ("bias", {"confidence": 1.5}),
    ("bias", {"confidence": 0.0}),
    ("inflation_sweep", {"xi": [0.5, -1.0]}),
    ("inflation_sweep", {"xi": -1.0}),
    ("inflation_sweep", {"xi": []}),
    ("invariant_ks", {"horizon": math.inf}),
    ("lyapunov", {"burn_in": math.inf}),
])
def test_study_option_ranges_are_checked(kind, options):
    payload = _spec_payload(kind=kind, options=options, kappa=0,
                            variant="vanilla" if kind == "bias" else None)
    with pytest.raises(ConfigError, match=f"options.{next(iter(options))} must be"):
        StudySpec(**payload)


@pytest.mark.parametrize("key, value, named", [
    ("master_seed", 1.5, "master_seed"),
    ("trials", 150.5, "trials"),
    ("chunk", 2.5, "chunk"),
    ("N", [8.7], "N"),
    ("grid", {"dt": 0.02, "steps": 20.5}, "grid.steps"),
    ("trials", True, "trials"),
])
def test_study_counts_must_be_integers(key, value, named):
    payload = _spec_payload(kind="clt_variance", variant=None, kappa=0, options={},
                            **{key: value})
    with pytest.raises(ConfigError, match=f"^{named} must be an integer"):
        StudySpec.from_dict(payload)


def test_study_integral_counts_are_stored_as_int():
    spec = StudySpec(**_spec_payload(master_seed=12.0, trials=200.0, chunk=np.int64(64),
                                     N=[10.0], grid={"dt": 0.02, "steps": 50.0}))
    for value in (spec.master_seed, spec.trials, spec.chunk, *spec.N,
                  spec.grid["steps"]):
        assert type(value) is int
    assert (spec.trials, spec.chunk, spec.N, spec.time_grid().steps) == (200, 64, (10,), 50)


def test_study_spec_validation():
    with pytest.raises(ConfigError):
        StudySpec(**_spec_payload(kind="nope"))
    with pytest.raises(ConfigError):
        StudySpec(**_spec_payload(trials=50))  # CI study floor
    with pytest.raises(ConfigError):
        StudySpec(**_spec_payload(options={"bogus": 1}))
    with pytest.raises(ConfigError):
        StudySpec(**_spec_payload(variant=None))
    with pytest.raises(ConfigError):
        StudySpec(**_spec_payload(kind="fluctuation_rate", variant=None,
                                  kappa=1, N=(8, 8, 16, 32), options={}))
    with pytest.raises(ConfigError, match="^options.Q is not symmetric$"):
        StudySpec(**_spec_payload(model=random_model(2, seed=3).to_dict(),
                                  options={"Q": [[1.0, 0.1], [0.0, 1.0]]}))
    for kappa in (0.5, True):
        with pytest.raises(ConfigError, match="clt_variance requires kappa in"):
            StudySpec(**_spec_payload(kind="clt_variance", variant=None, kappa=kappa,
                                      options={}))
    with pytest.raises(ConfigError):
        StudySpec(**_spec_payload(grid={"dt": 0.02, "steps": 50, "horizon": 1.0}))
    with pytest.raises(ConfigError):
        StudySpec(**_spec_payload(grid={"dt": 0.02, "steps": 50, "what": 3}))
    with pytest.raises(ConfigError):
        StudySpec.from_dict(_spec_payload(banana=1))
    with pytest.raises(ConfigError):
        StudySpec.from_dict({"kind": "bias"})


def test_study_spec_round_trip():
    spec = StudySpec(**_spec_payload())
    again = StudySpec.from_dict(spec.to_dict())
    assert again.to_dict() == spec.to_dict()
    # horizon form resolves to the same grid
    alt = StudySpec(**_spec_payload(grid={"dt": 0.02, "horizon": 1.0}))
    assert alt.time_grid().steps == 50


@pytest.mark.parametrize("kind", STUDY_KINDS)
def test_every_study_kind_is_checked_by_its_table_entry(kind):
    # each kind's first corpus spec validates, and breaking it along each
    # rule of the kind's _KINDS entry is rejected at spec time
    specs = [s for s in outputs._study_specs(kbflow).values() if s["kind"] == kind]
    assert specs, f"{kind} has no spec in tools/outputs.py's corpus"
    spec, entry = specs[0], stats._KINDS[kind]
    StudySpec(**spec)

    def rejected(match, **over):
        with pytest.raises(ConfigError, match=match):
            StudySpec(**{**spec, **over})

    rejected(re.escape(f"allowed: {sorted(entry.options)}"), options={"bogus": 1})
    if entry.axis is not None:
        rejected(f"^{kind} requires {entry.axis}", **{entry.axis: None})
    if entry.scalar:
        rejected(f"^{kind} is a scalar study", model=random_model(2, seed=3).to_dict())
    if entry.ci:
        rejected(f"^{kind} is a CI study", trials=99)
    if entry.n_list:
        rejected(f"^{kind} needs a strictly increasing", N=spec["N"][:3])
    else:
        rejected(rf"^{kind} takes one N, got \(4, 8\)", N=[4, 8])
    for axis, (allowed, _) in stats._AXES.items():
        if axis != entry.axis:
            rejected(f"^{kind} takes no {axis}, got {allowed[0]!r}$", **{axis: allowed[0]})


def test_readme_lists_the_study_kinds():
    text = (ROOT / "README.md").read_text()
    sentence = re.search(r"Study kinds: (.*?)\.\n", text, re.S).group(1)
    assert tuple(re.findall(r"`(\w+)`", sentence)) == STUDY_KINDS


def test_study_worker_count_does_not_change_results():
    spec = StudySpec(**_spec_payload())
    s1 = run_study(spec, workers=1)
    s2 = run_study(spec, workers=2)
    assert json.dumps(s1.to_dict(), sort_keys=True) == \
        json.dumps(s2.to_dict(), sort_keys=True)


def test_default_workers_is_the_env_value_or_the_usable_cpus(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    monkeypatch.delenv("KBFLOW_WORKERS", raising=False)
    assert default_workers() == cpus
    monkeypatch.setenv("KBFLOW_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("KBFLOW_WORKERS", "0")
    assert default_workers() == 1
    monkeypatch.setenv("KBFLOW_WORKERS", "many")
    assert default_workers() == cpus


_SCHEDULED_SPECS = {
    # two jobs (vanilla and deterministic) of two chunks each
    "invariant_ks": dict(kind="invariant_ks", model=scalar_lg(A=2.0).to_dict(),
                         grid={"dt": 1e-2, "steps": 10}, master_seed=3, trials=70,
                         chunk=40, N=(6,), options={"burn_in": 0.5, "record_stride": 2,
                                                    "horizon": 20.0}),
    # one job per N plus the two fig3 path jobs
    "fluctuation_rate": dict(kind="fluctuation_rate", model=scalar_lg().to_dict(),
                             grid={"dt": 0.01, "steps": 50}, master_seed=7, trials=100,
                             chunk=40, N=(4, 8, 16, 32), kappa=1),
    "semigroup_contraction": dict(kind="semigroup_contraction",
                                  model=scalar_lg(A=2.0).to_dict(),
                                  grid={"dt": 1e-3, "steps": 300}, master_seed=5,
                                  trials=150, chunk=64, N=(12,), variant="vanilla"),
    # a single chunk: in process at any worker count
    "lyapunov": dict(kind="lyapunov", model=scalar_lg(A=2.0).to_dict(),
                     grid={"dt": 1e-3, "steps": 800}, master_seed=2, trials=40,
                     N=(6,), kappa=0, options={"burn_in": 0.2}),
}


@pytest.mark.parametrize("kind", sorted(_SCHEDULED_SPECS))
def test_study_files_do_not_depend_on_worker_count(tmp_path, kind):
    spec = StudySpec(**_SCHEDULED_SPECS[kind], out=str(tmp_path))
    written = []
    for workers in (1, 2):
        run_study(spec, workers=workers)
        written.append({p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())})
    assert written[0] == written[1]
    if kind == "fluctuation_rate":
        assert "fig3_riccati_paths.csv" in written[0]


def _failing_on_chunk_zero(**kw):
    # a stand-in engine: chunk 0 fails at once, every other chunk marks a
    # file and takes a while, so cancellation has chunks left to cancel
    if kw["first_chunk"] == 0:
        raise {"interrupt": KeyboardInterrupt,
               "error": RuntimeError}[os.environ["KBFLOW_TEST_FAILURE"]]("chunk 0 failed")
    time.sleep(0.5)
    with open(os.path.join(os.environ["KBFLOW_TEST_MARKS"], str(kw["first_chunk"])), "w"):
        pass
    return {"t": np.zeros(1), "cov": np.zeros((kw["trials"], 1)),
            "diverged_step": np.full(kw["trials"], -1)}


@pytest.mark.parametrize("failure, exc", [("error", RuntimeError),
                                          ("interrupt", KeyboardInterrupt)])
def test_failing_chunk_cancels_queued_chunks(tmp_path, monkeypatch, failure, exc):
    marks = tmp_path / "marks"
    marks.mkdir()
    monkeypatch.setenv("KBFLOW_TEST_MARKS", str(marks))
    monkeypatch.setenv("KBFLOW_TEST_FAILURE", failure)
    monkeypatch.setattr("kbflow._engines.law_cov_paths_1d", _failing_on_chunk_zero)
    spec = StudySpec(kind="clt_variance", model=scalar_lg().to_dict(),
                     grid={"dt": 0.01, "steps": 10}, master_seed=1, trials=800,
                     chunk=100, N=(8,), kappa=0, out=str(tmp_path / "out"))
    with pytest.raises(exc, match="chunk 0 failed"):
        run_study(spec, workers=2)
    ran = {int(p.name) for p in marks.iterdir()}
    assert len(ran) < 7  # of the 7 chunks after chunk 0


def test_invariant_ks_short_horizon_is_a_config_error():
    # 8 replicas x 11 records cannot pool the 1000 samples the KS test needs
    spec = StudySpec(kind="invariant_ks", model=scalar_lg(A=2.0).to_dict(),
                     grid={"dt": 1e-2, "steps": 10}, master_seed=3, trials=8,
                     N=(6,), options={"burn_in": 0.1, "record_stride": 1})
    with pytest.raises(ConfigError, match=r"pooled \d+ vanilla samples.*stride of \d+"):
        run_study(spec, workers=1)


@pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99])
def test_bias_study_rows(confidence):
    # ci_ok is exactly margin <= z * se, z the one-sided normal quantile
    z = NormalDist().inv_cdf(confidence)
    assert abs(z - norm.ppf(confidence)) <= 8 * math.ulp(z)
    s = run_study(StudySpec(**_spec_payload(
        options={"record_every": 25, "confidence": confidence})), workers=1)
    assert [r["t"] for r in s.per_point] == [0.0, 0.5, 1.0]
    for r in s.per_point:
        assert r["N"] == 10
        assert r["ci_ok"] == (r["margin"] <= z * r["margin_se"])
        assert r["diverged"] == 0
    # sample covariance under-biases the flow on average: margins <= 0
    # within noise at this scale
    assert s.per_point[-1]["margin"] < 3 * s.per_point[-1]["margin_se"]


def test_bias_study_of_diverging_trials_is_quiet():
    # one particle on an unstable model: trials diverge until one survives;
    # overflowing statistics are recorded as inf, a lone survivor's spread
    # as NaN, and neither warns
    spec = StudySpec(**_spec_payload(
        model=scalar_lg(A=8.0).to_dict(), grid={"dt": 0.1, "steps": 200}, master_seed=1,
        trials=100, N=(1,), chunk=1024, options={"record_every": 10}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = run_study(spec, workers=1)
    lone = [r for r in s.per_point if r["diverged"] == 99]
    assert lone and all(math.isnan(r["var"]) and math.isnan(r["margin_se"])
                        and math.isfinite(r["mean"]) for r in lone)
    assert any(math.isinf(r["var"]) for r in s.per_point)


def test_survivors_rule_and_statistics():
    # a trial is alive at step r if it never diverged or diverged after r
    values = np.array([1.0, 3.0, np.nan, np.nan])
    div = np.array([-1, 7, 4, 5])
    two = stats._survivors(values, div, 5, target=1.0)
    assert two.values.tolist() == [1.0, 3.0] and two.diverged == 2
    assert (two.mean, two.var, two.se) == (2.0, 2.0, 1.0)
    assert (two.l2, two.l4) == (math.sqrt(2.0), 8.0 ** 0.25)  # deviations 0 and 2
    one = stats._survivors(values, div, 7)
    assert one.values.tolist() == [1.0] and one.diverged == 3 and one.mean == 1.0
    assert math.isnan(one.var) and math.isnan(one.se) and one.l2 == one.l4 == 1.0
    none = stats._survivors(np.full((4, 2, 2), np.nan), div + 3, 10)
    assert none.values.shape == (0, 2, 2) and none.diverged == 4
    assert none.mean.shape == none.var.shape == (2, 2)
    assert all(np.isnan(v).all() for v in none[2:])
    # a matrix trial deviates by its Frobenius norm; one step may serve all
    mats = stats._survivors(np.stack([np.eye(2), 3 * np.eye(2)]), -1, 0, target=np.eye(2))
    assert mats.diverged == 0 and mats.mean.tolist() == [[2.0, 0.0], [0.0, 2.0]]
    assert mats.l2 == math.sqrt(4.0)  # norms 0 and sqrt(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = stats._survivors(np.array([1e200, -1e200, 1.0]), -1, 0)
        assert huge.mean == 1.0 / 3.0
        assert math.isinf(huge.var) and math.isinf(huge.se)
        assert math.isinf(huge.l2) and math.isinf(huge.l4)
        assert math.isinf(stats._survivors(np.array([1.7e308, 1.7e308]), -1, 0).mean)


@pytest.mark.parametrize("name", ["semigroup_contraction_all_diverged",
                                  "moments_flow_overflow"])
def test_diverging_and_overflowing_studies_are_quiet(name):
    # every contraction trial diverges; the moments flow's ninth powers
    # overflow: both are recorded as NaN or inf, and neither warns
    spec = StudySpec(**outputs._study_specs(kbflow)[name])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = run_study(spec, workers=1).per_point[-1]
    if name == "semigroup_contraction_all_diverged":
        assert row["diverged"] == spec.trials and row["mean"] == 0.0
        assert math.isnan(row["var"]) and math.isnan(row["rate_mean"])
    else:
        assert row["diverged"] == 0 and math.isfinite(row["mean"])


def test_one_sided_ci_rule_calibration():
    # the ci_ok rule flags margin > z * se with z = norm.ppf(0.99); under
    # the null (zero true margin) it should accept ~99% of the time
    rng = np.random.default_rng(500)
    z = norm.ppf(0.99)
    hits = 0
    meta = 2000
    for _ in range(meta):
        x = rng.normal(size=400)
        margin = x.mean()
        se = x.std(ddof=1) / math.sqrt(x.size)
        hits += margin <= z * se
    assert hits / meta == pytest.approx(0.99, abs=0.01)
