"""`kbflow study` failure modes: spec-time validation and errors raised
while a study runs, each reported as one error line and an exit code."""
import json
import logging
import math
import warnings

import numpy as np
import pytest

from conftest import random_model, scalar_lg
from kbflow import ConfigError, LinearGaussianModel, NonFinite, ScalarModel, stats
from kbflow.cli import main


_NOISELESS = LinearGaussianModel([[1.0]], [[1.0]], [[0.0]], [[1.0]])


def _spec(kind, model, **extra):
    doc = dict(kind=kind, model=model.to_dict(), grid={"dt": 0.01, "steps": 50},
               master_seed=1, trials=8, N=[4, 8, 16, 32], kappa=0)
    doc.update(extra)
    return doc


@pytest.mark.parametrize("doc", [
    _spec("lyapunov", LinearGaussianModel([[1.0]], [[0.0]], [[1.0]], [[1.0]]), N=[8]),
    _spec("fluctuation_rate", random_model(2, seed=3)),
    # a negative or indefinite initial covariance fails before any simulation
    # (not as a traceback after it, nor as results from a negative variance)
    _spec("clt_variance", scalar_lg(), N=[8], trials=120, options={"Q": -1.0}),
    _spec("bias", scalar_lg(), N=[8], trials=120, variant="vanilla", options={"Q": -1.0}),
    _spec("moments_flow", scalar_lg(), N=[8], options={"Q": -1.0}),
    _spec("bias", random_model(2, seed=3), N=[8], trials=120, variant="vanilla",
          options={"Q": [[1.0, 2.0], [2.0, 1.0]]}),
    # an option out of range fails before any simulation, not as a traceback
    _spec("bias", scalar_lg(), N=[8], trials=120, variant="vanilla",
          options={"record_every": 0}),
    # a non-integral count fails before any simulation, not as a traceback
    _spec("clt_variance", scalar_lg(), N=[8], trials=150.5),
    # the scalar theory needs signal noise: R = 0 fails before any simulation
    _spec("clt_variance", _NOISELESS, N=[8], trials=120),
    _spec("semigroup_contraction", _NOISELESS, N=[8], trials=120, variant="vanilla"),
], ids=["lyapunov_unobserved", "fluctuation_rate_d2", "clt_variance_negative_Q",
        "bias_negative_Q", "moments_flow_negative_Q", "bias_d2_indefinite_Q",
        "bias_record_every_zero", "clt_variance_fractional_trials", "clt_variance_R0",
        "semigroup_contraction_R0"])
def test_scalar_study_kinds_reject_other_models_at_spec_time(tmp_path, capsys, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        stats.StudySpec.from_dict(doc)
    assert main(["study", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("exc, code", [
    (NonFinite(step=3, t=0.03, what="study state"), 4),
    (ConfigError("bad option value"), 2),
], ids=["nonfinite", "config"])
def test_errors_during_a_study_map_to_exit_codes(tmp_path, capsys, monkeypatch, exc, code):
    def failing_run_study(spec, workers=1):
        raise exc

    monkeypatch.setattr(stats, "run_study", failing_run_study)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec("moments_flow", random_model(1, seed=2), N=[6])))
    assert main(["study", str(path)]) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {exc}"]


def test_verbose_study_logs_layout_and_chunk_times(tmp_path, caplog):
    doc = dict(kind="clt_variance", model=scalar_lg().to_dict(),
               grid={"dt": 0.01, "steps": 20}, master_seed=1, trials=120, chunk=50,
               N=[8], kappa=0)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    caplog.set_level(logging.DEBUG, logger="kbflow")
    try:
        assert main(["-vv", "study", str(path), "--workers", "1"]) == 0
    finally:
        logging.getLogger("kbflow").setLevel(logging.NOTSET)
    text = caplog.text
    assert "1 jobs, 3 chunks, in process" in text
    assert all(f"job 0, chunk {c}:" in text for c in range(3))


@pytest.mark.parametrize("model", [
    ScalarModel(A=60.0, R=1.0, S=1.0).to_model(),
    LinearGaussianModel(np.diag([60.0, 50.0]), np.eye(2), np.eye(2), np.eye(2)),
], ids=["d1", "d2"])
def test_bias_study_whose_trials_all_diverge_writes_nan_rows(tmp_path, model):
    # no trial is finite from t = 5 on: the rows record the divergence
    # instead of the study ending in a traceback
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(
        kind="bias", model=model.to_dict(), grid={"dt": 0.1, "steps": 200},
        master_seed=1, trials=100, N=[1], variant="vanilla",
        options={"record_every": 50})))
    assert main(["study", str(path), "--out", str(tmp_path / "out")]) == 0
    rows = json.loads((tmp_path / "out" / "summary.json").read_text())["per_point"]
    assert [row["t"] for row in rows] == [0.0, 5.0, 10.0, 15.0, 20.0]
    assert rows[0]["diverged"] == 0 and math.isfinite(rows[0]["margin"])
    for row in rows[1:]:
        assert row["diverged"] == 100 and row["ci_ok"] is False
        assert all(math.isnan(row[key]) for key in
                   ("mean", "var", "l2", "l4", "margin", "margin_se"))


def test_moments_flow_whose_moments_overflow_exits_0(tmp_path, capsys):
    # dt = 1 on A = 50: the finite covariances' ninth powers overflow, and
    # their standardised moments are recorded as inf or NaN, not raised
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(
        kind="moments_flow", model=ScalarModel(50.0, 1.0, 1.0).to_model().to_dict(),
        grid={"dt": 1.0, "steps": 40}, master_seed=1, trials=60, N=[1], kappa=1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["study", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    rows = json.loads((tmp_path / "out" / "summary.json").read_text())["per_point"]
    assert all(row["diverged"] == 0 and math.isfinite(row["mean"]) for row in rows)
    assert not all(math.isfinite(m) for row in rows for m in row["std_moments"][1:])
