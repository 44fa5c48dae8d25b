"""The benchmark's tracer (``perfbench/spans.py``) against the package: it
finds every name it rebinds, records a kernel call, and uninstalling puts
every original back.  A traced benchmark run breaks otherwise."""
import importlib.util

from conftest import ROOT, scalar_lg
from kbflow import TimeGrid, _engines

_spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def test_tracer_wraps_the_kernels_records_a_call_and_uninstalls(tmp_path):
    kernels = {name: getattr(_engines, name) for name in spans.ENGINE_KINDS}
    tracer = spans.Tracer(str(tmp_path))
    try:
        tracer.install()
        saved = list(tracer._saved)
        for name, kernel in kernels.items():
            assert getattr(_engines, name).__wrapped__ is kernel, name
        _engines.law_cov_paths_1d(scalar_lg(), kappa=0, N=4, Q=1.0,
                                  grid=TimeGrid(0.0, 1e-2, 10), seed=1, trials=3)
        records = [r for r in tracer.engine_records if r["kind"] == "law_1d"]
        assert [(r["trials"], r["steps"], r["particles"]) for r in records] == [(3, 10, 5)]
    finally:
        tracer.uninstall()
    assert saved
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, attr
