"""CSV/JSON persistence: exact round-trips, divergent-value encoding."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_model
from kbflow import TimeGrid, run_enkf
from kbflow.io import (
    load_columns_csv,
    load_per_point_csv,
    load_summary_json,
    load_trajectory_csv,
    trajectory_extras,
    write_columns_csv,
    write_per_point_csv,
    write_summary_json,
    write_trajectory_csv,
)


def test_trajectory_round_trip_exact(tmp_path):
    rng = np.random.default_rng(17)
    K, d = 7, 2
    t = np.linspace(0.0, 0.6, K)
    mean = rng.normal(size=(K, d))
    error = rng.normal(size=(K, d))
    cov = np.einsum("kij,klj->kil", rng.normal(size=(K, d, 3)),
                    rng.normal(size=(K, d, 3)))
    cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
    path = write_trajectory_csv(tmp_path / "traj.csv", t, mean, cov, error)
    back = load_trajectory_csv(path)
    # repr-based formatting makes the round trip bit-exact
    np.testing.assert_array_equal(back["t"], t)
    np.testing.assert_array_equal(back["mean"], mean)
    np.testing.assert_array_equal(back["error"], error)
    np.testing.assert_array_equal(back["cov"], cov)
    assert "variant" not in back


def test_trajectory_round_trip_with_extras(tmp_path):
    rng = np.random.default_rng(4)
    K = 5
    t = np.linspace(0.0, 1.0, K)
    mean = rng.normal(size=(K, 1))
    error = rng.normal(size=(K, 1))
    cov = rng.exponential(size=(K, 1, 1))
    extras = {"variant": "vanilla", "N": 12, "xi": 0.25, "kappa": 1.0,
              "mu_closed_loop": rng.normal(size=K), "diverged_at": 0.75}
    path = write_trajectory_csv(tmp_path / "traj.csv", t, mean, cov, error,
                                extras=extras)
    back = load_trajectory_csv(path)
    assert back["variant"] == "vanilla"
    assert back["N"] == 12
    assert back["xi"] == 0.25
    assert back["kappa"] == 1.0
    assert back["diverged_at"] == 0.75
    np.testing.assert_array_equal(back["mu_closed_loop"], extras["mu_closed_loop"])


def test_trajectory_extras_from_record(tmp_path):
    m = random_model(2, seed=1, stabilize=1.0)
    rec = run_enkf(m, "deterministic", N=8, grid=TimeGrid(0.0, 1e-2, 20), seeds=3)
    extras = trajectory_extras(rec)
    assert extras["variant"] == "deterministic"
    assert extras["N"] == 8
    assert extras["diverged_at"] is None
    path = write_trajectory_csv(tmp_path / "run.csv", rec.t, rec.mean, rec.cov,
                                rec.error, extras=extras)
    back = load_trajectory_csv(path)
    np.testing.assert_array_equal(back["cov"], rec.cov)
    assert back["diverged_at"] is None
    # transport runs have no kappa; the CSV cell says nan
    rec_t = run_enkf(m, "transport", N=4, grid=TimeGrid(0.0, 1e-2, 20), seeds=3)
    path2 = write_trajectory_csv(tmp_path / "run_t.csv", rec_t.t, rec_t.mean,
                                 rec_t.cov, rec_t.error,
                                 extras=trajectory_extras(rec_t))
    assert math.isnan(load_trajectory_csv(path2)["kappa"])


def test_summary_json_round_trip_and_divergent_encoding(tmp_path):
    summary = {
        "spec_echo": {"kind": "moments_flow", "N": [6]},
        "per_point": [
            {"N": 6, "t": 1.0, "mean": 39.5, "var": 2.25,
             "moment_5": math.inf, "moment_4": 8.6e6}],
        "fits": {"hill": 5.1, "bad_rate": -math.inf},
    }
    path = write_summary_json(tmp_path / "summary.json", summary)
    raw = path.read_text()
    assert '"Divergent"' in raw
    assert '"-Divergent"' in raw
    back = load_summary_json(path)
    assert back["per_point"][0]["moment_5"] == "Divergent"
    assert back["fits"]["bad_rate"] == "-Divergent"
    assert back["per_point"][0]["moment_4"] == 8.6e6
    # deterministic serialization: identical rewrite
    again = write_summary_json(tmp_path / "summary2.json", summary)
    assert again.read_text() == raw


@pytest.mark.parametrize("value, marker", [(np.float64(math.inf), "Divergent"),
                                           (np.float64(-math.inf), "-Divergent")])
def test_numpy_infinity_is_written_as_divergent(tmp_path, value, marker):
    # a numpy float is unwrapped before the infinity rule, not after it
    summary = write_summary_json(tmp_path / "summary.json",
                                 {"fits": {"rate": value}, "per_point": [{"var": value}]})
    assert "Infinity" not in summary.read_text()
    back = load_summary_json(summary)
    assert back["fits"]["rate"] == back["per_point"][0]["var"] == marker
    table = write_per_point_csv(tmp_path / "per_point.csv", [{"N": 4, "var": value}])
    assert load_per_point_csv(table)[0]["var"] == marker


def test_per_point_csv_round_trip(tmp_path):
    rows = [
        {"N": 8, "t": 0.5, "mean": 1.25, "var": 0.5, "l2": 0.1, "l4": 0.2,
         "std_moments": [0.1, 3.2], "ks": None, "diverged": 0,
         "margin": -0.003, "margin_se": 0.001},
        {"N": 8, "t": 1.0, "mean": 1.5, "var": 0.75, "l2": 0.2, "l4": 0.3,
         "std_moments": [0.0, 2.9], "ks": 0.015, "diverged": 2,
         "margin": 0.001, "margin_se": 0.002},
    ]
    path = write_per_point_csv(tmp_path / "per_point.csv", rows)
    back = load_per_point_csv(path)
    assert len(back) == 2
    assert back[0]["ks"] is None
    assert back[1]["ks"] == 0.015
    assert back[0]["std_moments"] == [0.1, 3.2]
    assert back[1]["margin"] == 0.001
    assert back[0]["diverged"] == 0.0
    header = path.read_text().splitlines()[0].split(",")
    assert header[:9] == ["N", "t", "mean", "var", "l2", "l4",
                          "std_moments", "ks", "diverged"]
    assert header[9:] == ["margin", "margin_se"]  # extras sorted after core


def test_columns_csv_round_trip_with_inf(tmp_path):
    cols = {
        "x": np.array([1.0, 2.0, 3.0]),
        "moment": np.array([4.0, math.inf, 0.1 + 0.2]),
        "label": np.array(["a", "b", "c"]),
    }
    path = write_columns_csv(tmp_path / "cols.csv", cols)
    back = load_columns_csv(path)
    np.testing.assert_array_equal(back["x"], cols["x"])
    assert back["moment"][1] == math.inf
    assert back["moment"][2] == 0.1 + 0.2  # repr keeps all digits
    assert list(back["label"]) == ["a", "b", "c"]
    with pytest.raises(ValueError):
        write_columns_csv(tmp_path / "bad.csv", {"a": np.arange(3), "b": np.arange(2)})


def test_ragged_column_loads_back_as_an_object_column(tmp_path):
    # JSON-list cells mixed with numbers make no rectangular array
    column = np.array([[1.0, 2.0], 3.0], dtype=object)
    back = load_columns_csv(write_columns_csv(tmp_path / "cols.csv", {"c": column,
                                                                      "x": [1.0, 2.0]}))
    assert back["c"].dtype == object
    assert back["c"].tolist() == [[1.0, 2.0], 3.0]
    np.testing.assert_array_equal(back["x"], [1.0, 2.0])


def test_float_formatting_survives_extreme_values(tmp_path):
    vals = np.array([1e-300, 1.7976931348623157e308, 5e-324, math.pi])
    path = write_columns_csv(tmp_path / "ext.csv", {"v": vals})
    back = load_columns_csv(path)
    np.testing.assert_array_equal(back["v"], vals)


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), K=st.integers(1, 6), d=st.integers(1, 3), with_extras=st.booleans())
def test_trajectory_csv_round_trip_is_bit_exact(tmp_path_factory, data, K, d, with_extras):
    # every float, nan and +-inf included, comes back with its bits (a nan
    # as a nan); the covariance is stored as its upper triangle
    t = data.draw(arrays(float, K, elements=_ANY_FLOAT))
    mean, error = (data.draw(arrays(float, (K, d), elements=_ANY_FLOAT)) for _ in range(2))
    cov = data.draw(arrays(float, (K, d, d), elements=_ANY_FLOAT))
    upper = np.triu_indices(d)
    cov = np.swapaxes(cov, 1, 2)
    cov[:, upper[0], upper[1]] = np.swapaxes(cov, 1, 2)[:, upper[0], upper[1]]
    extras = None
    if with_extras:
        extras = {"variant": "vanilla", "N": 7, "xi": data.draw(_ANY_FLOAT),
                  "kappa": data.draw(_ANY_FLOAT),
                  "mu_closed_loop": data.draw(arrays(float, K, elements=_ANY_FLOAT)),
                  "diverged_at": data.draw(st.none() | _ANY_FLOAT)}
    path = tmp_path_factory.mktemp("traj") / "traj.csv"
    back = load_trajectory_csv(write_trajectory_csv(path, t, mean, cov, error, extras))
    for key, sent in (("t", t), ("mean", mean), ("error", error), ("cov", cov)):
        np.testing.assert_array_equal(back[key], sent)
        assert np.array_equal(np.signbit(back[key]), np.signbit(sent)) or np.isnan(sent).any()
    if with_extras:
        np.testing.assert_array_equal(back["mu_closed_loop"], extras["mu_closed_loop"])
        for key in ("xi", "kappa", "diverged_at"):
            np.testing.assert_array_equal(np.array(back[key], dtype=float),
                                          np.array(extras[key], dtype=float))


def _encoded(value):
    # the summary's documented encoding of +-inf
    if isinstance(value, float) and math.isinf(value):
        return "Divergent" if value > 0 else "-Divergent"
    if isinstance(value, dict):
        return {k: _encoded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_encoded(v) for v in value]
    return value


_LEAVES = st.one_of(_ANY_FLOAT, st.integers(-10 ** 6, 10 ** 6), st.none(), st.text(max_size=5))
_TREES = st.recursive(_LEAVES, lambda kids: st.lists(kids, max_size=4)
                      | st.dictionaries(st.text(max_size=5), kids, max_size=4), max_leaves=12)


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a)
                                                       == math.copysign(1, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


@settings(max_examples=100, deadline=None)
@given(tree=st.dictionaries(st.text(max_size=5), _TREES, max_size=5))
def test_summary_json_round_trip_is_bit_exact(tmp_path_factory, tree):
    # floats come back with their bits, nan as nan, +-inf as the Divergent
    # markers; numpy arrays and scalars are written as their lists/values
    path = tmp_path_factory.mktemp("summary") / "summary.json"
    assert _same(load_summary_json(write_summary_json(path, tree)), _encoded(tree))
    arrays_in = {"a": np.array([1.5, -0.0, np.nan, np.inf]), "b": np.float64(0.1),
                 "c": np.int64(3)}
    back = load_summary_json(write_summary_json(path, arrays_in))
    assert _same(back, {"a": [1.5, -0.0, math.nan, "Divergent"], "b": 0.1, "c": 3})


_INF = math.inf
# every cell kind, and what it loads back as under the one cell rule: None
# <-> empty, list/dict <-> JSON, float (numpy's too) <-> repr, else str, and
# a non-JSON, non-number cell is read as the string itself
_CELLS = [None, True, False, 0, np.int64(-7), 2.5, -0.0, np.float64(5e-324), math.nan,
          _INF, -_INF, [1.5, None, "a"], {"k": [1, 2]}, "text"]
_READ = [None, "True", "False", 0.0, -7.0, 2.5, -0.0, 5e-324, math.nan,
         _INF, -_INF, [1.5, None, "a"], {"k": [1, 2]}, "text"]
_EXTRAS = {"exact": {"variant": "exact", "N": None, "xi": 0, "kappa": math.nan,
                     "diverged_at": None},
           "diverged": {"variant": "vanilla", "N": np.int64(8), "xi": 0.5, "kappa": 1,
                        "diverged_at": np.float64(0.25)}}


@pytest.mark.parametrize("shape", ["trajectory/exact", "trajectory/diverged", "per_point",
                                   "columns"])
def test_every_cell_kind_loads_back_under_the_cell_rule(tmp_path, shape):
    path = tmp_path / "table.csv"
    if shape.startswith("trajectory"):
        # floats in the state columns; None, int, float and str in the metadata
        extras = {**_EXTRAS[shape.split("/")[1]], "mu_closed_loop": [1.5, -_INF]}
        t, mean, error = [-0.0, 5e-324], [[math.nan], [_INF]], [[-_INF], [2.5]]
        cov = [[[0.1 + 0.2]], [[1e308]]]
        back = load_trajectory_csv(write_trajectory_csv(path, t, mean, cov, error, extras))
        sent = {"t": t, "mean": mean, "error": error, "cov": cov, **extras,
                "N": None if extras["N"] is None else int(extras["N"]),
                "xi": float(extras["xi"]), "kappa": float(extras["kappa"]),
                "diverged_at": None if extras["diverged_at"] is None else 0.25}
        back = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in back.items()}
    elif shape == "per_point":
        # the core keys are empty cells; +-inf is the summary's Divergent marker
        back = load_per_point_csv(write_per_point_csv(path, [{"cell": v} for v in _CELLS]))
        sent = [{**dict.fromkeys(back[0]), "cell": _encoded(v)} for v in _READ]
    else:
        # a column of each kind; an empty cell loads as nan, a 2-D column's
        # rows as JSON lists
        written = write_columns_csv(path, {f"c{i}": [v, v] for i, v in enumerate(_CELLS)})
        back = {k: v.tolist() for k, v in load_columns_csv(written).items()}
        sent = {f"c{i}": [math.nan if v is None else v] * 2 for i, v in enumerate(_READ)}
    assert _same(back, sent)
