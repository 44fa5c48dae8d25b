"""Command-line interface: exit codes, artifacts, reproducibility."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_model, scalar_lg
from kbflow import LinearGaussianModel, TimeGrid, kalman_run
from kbflow.cli import main
from kbflow.io import load_columns_csv, load_summary_json, load_trajectory_csv


def _write_model(tmp_path, model, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(model.to_dict()))
    return path


def _write_json(tmp_path, doc, name):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# model check
# ---------------------------------------------------------------------------

def test_model_check_pass(tmp_path, capsys):
    path = _write_model(tmp_path, random_model(2, seed=1, stabilize=1.0))
    assert main(["model", "check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "P_inf" in out
    assert "pass" in out


def test_model_check_rank_failure_names_observability(tmp_path, capsys):
    m = scalar_lg()
    doc = m.to_dict()
    doc["H"] = [[0.0]]
    path = _write_json(tmp_path, doc, "blind.json")
    assert main(["model", "check", str(path)]) == 3
    err = capsys.readouterr().err
    assert "observability" in err


def test_model_check_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["model", "check", str(bad)]) == 2
    assert "invalid model file" in capsys.readouterr().err
    doc = scalar_lg().to_dict()
    doc["extra_key"] = 1
    path = _write_json(tmp_path, doc, "extra.json")
    assert main(["model", "check", str(path)]) == 2


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------

def test_run_exact_writes_artifacts_and_reruns_identically(tmp_path, capsys):
    model_path = _write_model(tmp_path, random_model(2, seed=1, stabilize=1.0))
    cfg = {"model": str(model_path), "variant": "exact",
           "grid": {"dt": 0.01, "T_end": 0.5}}
    cfg_path = _write_json(tmp_path, cfg, "run.json")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", str(cfg_path), "--out", str(out1), "--seed", "5"]) == 0
    assert main(["run", str(cfg_path), "--out", str(out2), "--seed", "5"]) == 0
    t1 = (out1 / "trajectory.csv").read_bytes()
    t2 = (out2 / "trajectory.csv").read_bytes()
    assert t1 == t2
    back = load_trajectory_csv(out1 / "trajectory.csv")
    assert back["t"].shape == (51,)
    assert back["cov"].shape == (51, 2, 2)
    summary = load_summary_json(out1 / "summary.json")
    assert summary["variant"] == "exact"
    assert summary["diverged_at"] is None


def test_run_exact_files_hold_the_record(tmp_path):
    # the exact filter takes the common path: the record's arrays, bit for
    # bit, with the metadata columns of an exact run
    model = random_model(2, seed=1, stabilize=1.0)
    cfg = {"model": str(_write_model(tmp_path, model)), "variant": "exact",
           "grid": {"dt": 0.01, "T_end": 0.5}}
    out = tmp_path / "out"
    assert main(["run", str(_write_json(tmp_path, cfg, "run.json")), "--out", str(out),
                 "--seed", "5"]) == 0
    rec = kalman_run(model, np.zeros(2), np.eye(2), 5, TimeGrid.from_horizon(0.0, 0.5, 0.01))
    back = load_trajectory_csv(out / "trajectory.csv")
    assert (back["variant"], back["N"], back["xi"], back["diverged_at"]) == \
        ("exact", None, 0.0, None)
    assert math.isnan(back["kappa"])
    for key, sent in (("t", rec.t), ("mean", rec.mean), ("error", rec.error),
                      ("cov", rec.cov), ("mu_closed_loop", rec.mu_closed_loop)):
        assert back[key].tobytes() == sent.tobytes(), key
    summary = load_summary_json(out / "summary.json")
    assert (summary["N"], summary["xi"], summary["kappa"]) == (None, 0.0, None)
    final = summary["final"]
    for key, sent in (("mean", rec.mean[-1]), ("cov", rec.cov[-1]), ("error", rec.error[-1])):
        assert np.array(final[key]).tobytes() == sent.tobytes(), key
    assert final["mu_closed_loop"] == rec.mu_closed_loop[-1]


def test_run_exact_nonfinite_state_exits_4(tmp_path, capsys):
    # the first case of test_kalman_run_divergence_step, through kbflow run
    model = LinearGaussianModel([[50.0]], [[1.0]], [[1.0]], [[1.0]])
    cfg = {"model": str(_write_model(tmp_path, model)), "variant": "exact",
           "grid": {"dt": 1.0, "T_end": 300.0}, "seed": 3}
    out = tmp_path / "out"
    assert main(["run", str(_write_json(tmp_path, cfg, "run.json")), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "step 181" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not (out / "trajectory.csv").exists()


def test_run_ensemble_and_law(tmp_path):
    model_path = _write_model(tmp_path, scalar_lg())
    grid = {"dt": 0.01, "T_end": 0.5}
    for extra, kappa in ((dict(variant="deterministic", N=8), 0.0),
                         (dict(variant="law", N=8, kappa=1), 1.0)):
        cfg_path = _write_json(tmp_path, {"model": str(model_path),
                                          "grid": grid, **extra}, "c.json")
        out = tmp_path / f"out_{extra['variant']}"
        assert main(["run", str(cfg_path), "--out", str(out), "--seed", "3"]) == 0
        back = load_trajectory_csv(out / "trajectory.csv")
        assert back["variant"] == extra["variant"]
        assert back["N"] == 8
        assert back["kappa"] == kappa
        summary = load_summary_json(out / "summary.json")
        assert summary["diverged_at"] is None
        assert summary["final"]["cov"][0][0] > 0


def test_run_config_validation(tmp_path, capsys):
    model_path = _write_model(tmp_path, scalar_lg())
    grid = {"dt": 0.01, "T_end": 0.5}
    bad_configs = [
        {"model": str(model_path), "variant": "exact", "grid": grid, "smell": 1},
        {"model": str(model_path), "variant": "exact", "grid": grid, "N": 8},
        {"model": str(model_path), "variant": "law", "grid": grid, "N": 8},
        {"model": str(model_path), "variant": "vanilla", "grid": grid},
        {"model": str(model_path), "variant": "vanilla", "N": 8,
         "grid": {"dt": 0.01}},
        {"model": str(tmp_path / "missing.json"), "variant": "exact", "grid": grid},
        {"model": str(model_path), "variant": "warp", "grid": grid},
        {"model": str(model_path), "variant": "vanilla", "N": 8, "grid": grid, "seed": -1},
        {"model": str(model_path), "variant": "exact", "grid": grid, "seed": 1.5},
        # a non-integral N is rejected, not truncated
        {"model": str(model_path), "variant": "vanilla", "N": 8.7, "grid": grid},
        {"model": str(model_path), "variant": "vanilla", "N": True, "grid": grid},
        {"model": str(model_path), "variant": "law", "kappa": 1, "N": "8", "grid": grid},
        {"model": str(model_path), "variant": "law", "kappa": True, "N": 8, "grid": grid},
    ]
    for doc in bad_configs:
        cfg_path = _write_json(tmp_path, doc, "bad.json")
        assert main(["run", str(cfg_path)]) == 2, doc
        assert capsys.readouterr().err.startswith("error:")
    cfg_path = _write_json(tmp_path, {"model": str(model_path), "variant": "exact",
                                      "grid": grid}, "good.json")
    assert main(["run", str(cfg_path), "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: seed must be")


def test_run_divergence_is_reported_not_fatal(tmp_path, capsys):
    model_path = _write_model(tmp_path, scalar_lg(A=20.0))
    cfg = {"model": str(model_path), "variant": "vanilla", "N": 2,
           "grid": {"dt": 0.01, "T_end": 2.0}}
    cfg_path = _write_json(tmp_path, cfg, "stiff.json")
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--seed", "0"]) == 0
    assert "diverged at" in capsys.readouterr().out
    summary = load_summary_json(out / "summary.json")
    assert summary["diverged_at"] == pytest.approx(0.59)
    # final block reports the last finite state, not NaN
    assert math.isfinite(summary["final"]["cov"][0][0])


def test_run_dt_override(tmp_path):
    model_path = _write_model(tmp_path, scalar_lg())
    cfg = {"model": str(model_path), "variant": "exact",
           "grid": {"dt": 0.01, "T_end": 0.5}}
    cfg_path = _write_json(tmp_path, cfg, "run.json")
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out), "--dt", "0.005"]) == 0
    assert load_trajectory_csv(out / "trajectory.csv")["t"].shape == (101,)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

def _bias_spec(model_path_unused, model):
    return dict(kind="bias", model=model.to_dict(),
                grid={"dt": 0.02, "steps": 50}, master_seed=12, trials=200,
                N=[10], variant="vanilla", chunk=64,
                options={"record_every": 25})


def test_study_end_to_end_and_worker_invariance(tmp_path, capsys):
    spec_path = _write_json(tmp_path, _bias_spec(None, scalar_lg()), "spec.json")
    out = tmp_path / "study_out"
    assert main(["study", str(spec_path), "--out", str(out), "--workers", "1"]) == 0
    first = (out / "summary.json").read_bytes()
    assert (out / "per_point.csv").exists()
    assert main(["study", str(spec_path), "--out", str(out), "--workers", "2"]) == 0
    assert (out / "summary.json").read_bytes() == first
    assert "margin" in (out / "per_point.csv").read_text()


def test_study_gnuplot_script(tmp_path):
    spec = dict(kind="moments_flow", model=scalar_lg(A=20.0).to_dict(),
                grid={"dt": 1e-3, "steps": 200}, master_seed=3, trials=64,
                N=[6], kappa=1, options={"record_every": 50})
    spec_path = _write_json(tmp_path, spec, "mf.json")
    out = tmp_path / "mf_out"
    assert main(["study", str(spec_path), "--out", str(out), "--gnuplot"]) == 0
    assert (out / "fig4_moments_flow.csv").exists()
    script = (out / "plot.gp").read_text()
    assert "fig4_moments_flow.csv" in script
    # the script only references figure files that were actually written
    for name in ("fig2_densities", "fig3_riccati_paths"):
        assert name not in script


def test_study_bad_spec(tmp_path, capsys):
    doc = _bias_spec(None, scalar_lg())
    doc["mystery"] = True
    spec_path = _write_json(tmp_path, doc, "bad.json")
    assert main(["study", str(spec_path)]) == 2
    assert "mystery" in capsys.readouterr().err
    assert main(["study", str(tmp_path / "nope.json")]) == 2


# ---------------------------------------------------------------------------
# scalar tables
# ---------------------------------------------------------------------------

def test_scalar_moments_prints_divergent(capsys):
    rc = main(["scalar", "moments", "--A", "20", "--R", "1", "--S", "1",
               "--kappa", "1", "--N", "6", "--n-max", "6"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    table = dict(line.split(",") for line in lines[1:])
    assert float(table["4"]) > 0
    assert table["5"] == "Divergent"
    assert table["6"] == "Divergent"


def test_scalar_threshold_table(tmp_path, capsys):
    out = tmp_path / "thresholds.csv"
    rc = main(["scalar", "threshold", "--n-max", "5", "--out", str(out)])
    assert rc == 0
    assert "5,7" in capsys.readouterr().out
    cols = load_columns_csv(out)
    np.testing.assert_array_equal(cols["threshold_N"], [1, 1, 3, 5, 7])


def test_scalar_density_table_integrates_to_one(tmp_path):
    out = tmp_path / "density.csv"
    rc = main(["scalar", "density", "--A", "20", "--R", "1", "--S", "1",
               "--kappa", "0", "--N", "6", "--points", "2000",
               "--out", str(out)])
    assert rc == 0
    cols = load_columns_csv(out)
    mass = np.trapezoid(cols["density"], cols["x"])
    # the default range spans quantiles 1e-4 .. 1-1e-4
    assert mass == pytest.approx(1.0, abs=2e-3)


def test_scalar_lyapunov_reports_bounds(capsys):
    rc = main(["scalar", "lyapunov", "--A", "20", "--R", "1", "--S", "1",
               "--kappa", "0", "--N", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lyapunov_exponent" in out
    assert "inside = True" in out


_SCALAR = ["--A", "1", "--R", "1", "--S", "1", "--kappa", "1"]


@pytest.mark.parametrize("argv", [
    ["run", "{transport_xi}", "--out", "{out}"],
    ["run", "{T_1x1_vanilla}", "--out", "{out}"],
    ["run", "{T_1x1_law}", "--out", "{out}"],
    ["run", "{T_1x1_no_xi}", "--out", "{out}"],
    ["scalar", "density", "--A", "1", "--R", "0", "--S", "1", "--kappa", "1", "--N", "5"],
    ["scalar", "moments", "--A", "1", "--R", "1", "--S", "-1", "--kappa", "1", "--N", "5"],
    ["scalar", "lyapunov", "--A", "1", "--R", "-1", "--S", "1", "--kappa", "0", "--N", "5"],
    ["scalar", "density", *_SCALAR, "--N", "0"],
    ["scalar", "moments", *_SCALAR, "--N", "0"],
    ["scalar", "lyapunov", *_SCALAR, "--N", "0"],
    ["scalar", "density", *_SCALAR, "--N", "5", "--points", "-1"],
    ["scalar", "density", *_SCALAR, "--N", "5", "--points", "0"],
    ["scalar", "density", *_SCALAR, "--N", "5", "--points", "1"],
    ["model", "check", "{model}", "--tau", "0"],
    ["model", "check", "{model}", "--tau", "-1"],
    ["study", "{ks_one_record}", "--out", "{out}"],
], ids=["run-transport-xi", "run-T-size-vanilla", "run-T-size-law", "run-T-size-no-xi",
        "density-R0", "moments-S-neg", "lyapunov-R-neg", "density-N0", "moments-N0",
        "lyapunov-N0", "density-points-neg", "density-points0", "density-points1",
        "check-tau0", "check-tau-neg", "study-ks-one-record"])
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, argv):
    d1 = str(_write_model(tmp_path, scalar_lg()))
    d2 = str(_write_model(tmp_path, random_model(2, seed=1, stabilize=1.0), "d2.json"))
    T = str(_write_json(tmp_path, {"T": [[1.0]]}, "T.json"))
    grid = {"dt": 0.01, "T_end": 0.1}
    configs = {
        "transport_xi": {"model": d1, "variant": "transport", "N": 5, "xi": 0.5},
        "T_1x1_vanilla": {"model": d2, "variant": "vanilla", "N": 5, "xi": 0.5, "T": T},
        "T_1x1_law": {"model": d2, "variant": "law", "kappa": 1, "N": 5, "xi": 0.5, "T": T},
        # a T file is checked against the model even when inflation is off
        "T_1x1_no_xi": {"model": d2, "variant": "vanilla", "N": 5, "T": T},
    }
    files = {name: str(_write_json(tmp_path, {**doc, "grid": grid}, f"{name}.json"))
             for name, doc in configs.items()}
    # record_stride 100 over 20 steps: one record per replica
    files["ks_one_record"] = str(_write_json(tmp_path, dict(
        kind="invariant_ks", model=scalar_lg().to_dict(), grid={"dt": 0.01, "steps": 10},
        trials=1000, N=[6], options={"burn_in": 0.1, "horizon": 0.2, "record_stride": 100}),
        "ks_one_record.json"))
    assert main([a.format(model=d1, out=tmp_path / "out", **files) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    if "T_1x1" in argv[1]:  # the message names both shapes
        assert "(1, 1)" in err and "(2, 2)" in err
    if "--points" in argv:
        assert "--points" in err
    if argv[0] == "study":
        assert "record_stride" in err and "horizon" in err


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------

def test_import_loads_neither_scipy_stats_nor_integrate():
    # scipy.stats and scipy.integrate cost most of a fresh start; the
    # package and its CLI load them only where they are used
    code = ("import sys, kbflow, kbflow.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'integrate'])))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
