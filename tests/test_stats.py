"""Statistical estimators, moment accumulation, and study orchestration."""
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.stats import norm

from conftest import scalar_lg
from kbflow.errors import ConfigError
from kbflow.stats import (
    MomentAccumulator,
    StudySpec,
    decorrelation_stride,
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
    with pytest.raises(ConfigError):
        StudySpec(**_spec_payload(kind="clt_variance", kappa=0.5, options={}))
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


def test_study_worker_count_does_not_change_results():
    spec = StudySpec(**_spec_payload())
    s1 = run_study(spec, workers=1)
    s2 = run_study(spec, workers=2)
    assert json.dumps(s1.to_dict(), sort_keys=True) == \
        json.dumps(s2.to_dict(), sort_keys=True)


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
    if failure == "interrupt":
        partial = json.loads((tmp_path / "out" / "partial.json").read_text())
        assert set(partial["completed_chunks"]) <= ran


def test_invariant_ks_short_horizon_is_a_config_error():
    # 8 replicas x 11 records cannot pool the 1000 samples the KS test needs
    spec = StudySpec(kind="invariant_ks", model=scalar_lg(A=2.0).to_dict(),
                     grid={"dt": 1e-2, "steps": 10}, master_seed=3, trials=8,
                     N=(6,), options={"burn_in": 0.1, "record_stride": 1})
    with pytest.raises(ConfigError, match=r"pooled \d+ vanilla samples.*stride of \d+"):
        run_study(spec, workers=1)


def test_bias_study_rows():
    s = run_study(StudySpec(**_spec_payload()), workers=1)
    assert [r["t"] for r in s.per_point] == [0.0, 0.5, 1.0]
    for r in s.per_point:
        assert r["N"] == 10
        assert r["margin"] <= r["margin_se"] * norm.ppf(0.99) or not r["ci_ok"]
        assert r["diverged"] == 0
    # sample covariance under-biases the flow on average: margins <= 0
    # within noise at this scale
    assert s.per_point[-1]["margin"] < 3 * s.per_point[-1]["margin_se"]


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
