"""`kbflow study` failure modes: spec-time validation and errors raised
while a study runs, each reported as one error line and an exit code."""
import json
import logging

import pytest

from conftest import random_model, scalar_lg
from kbflow import ConfigError, LinearGaussianModel, NonFinite, stats
from kbflow.cli import main


def _spec(kind, model, **extra):
    doc = dict(kind=kind, model=model.to_dict(), grid={"dt": 0.01, "steps": 50},
               master_seed=1, trials=8, N=[4, 8, 16, 32], kappa=0)
    doc.update(extra)
    return doc


@pytest.mark.parametrize("doc", [
    _spec("lyapunov", LinearGaussianModel([[1.0]], [[0.0]], [[1.0]], [[1.0]]), N=[8]),
    _spec("fluctuation_rate", random_model(2, seed=3)),
], ids=["lyapunov_unobserved", "fluctuation_rate_d2"])
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
