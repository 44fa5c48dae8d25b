"""Benchmark process: set up one workload, then time passes over it.

Started by ``run.py`` (which fixes the thread environment), in one of two
modes:

* ``--mode setup`` imports kbflow, numpy and scipy, builds the workload's
  inputs from the seed, makes one tiny warm-up call into each layer the
  workload uses, prints ``ready`` and exits.  The launcher times it.
* ``--mode measure`` does the same set-up (and prints ``ready``), then runs
  passes over the workload's operations until ``--seconds`` have elapsed
  (at least two; with ``--trace 1``, untraced and traced alternately), and
  writes per-pass wall and CPU times, peak RSS, operation counts and, with
  ``--trace 1``, the per-layer metrics of the traced passes to ``--result``.

A pass of a workload that runs no pool of its own is two concurrent copies
of its operations in two forked workers: on the 2-core machine the benchmark
was tuned on, a pass that leaves one core idle ran 10-25 % faster or slower
from one run to the next, while passes that keep both cores busy varied by a
few percent.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _import_kbflow(root):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401

    import kbflow

    origin = Path(kbflow.__file__).resolve()
    if src not in origin.parents:
        raise SystemExit(f"kbflow imported from {origin}, not from {src}")
    sys.path.insert(0, str(HERE))


def _versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def _cpu():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _peak_rss_mb():
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(s, c) / 1024.0  # ru_maxrss is in KiB on Linux


def run_ops(workload, tracer, clear_caches, verbose):
    """Run the workload's operations once in this process.

    Returns per-operation (wall, cpu) times, output digests (None for an
    operation that failed), the failure count and, when traced, this pass's
    per-layer metrics.
    """
    from workloads import CheckFailed

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    if tracer is not None:
        tracer.reset()
        tracer.main_pid = os.getpid()
    clear_caches()
    gc.collect()
    times, digests, failed = {}, {}, 0
    t_pass = time.perf_counter()
    for name, op in workload.ops():
        cpu0 = _cpu()
        t0 = time.perf_counter()
        digests[name] = None
        try:
            digests[name], detail = op()
        except Exception as exc:  # a raised operation counts as failed
            failed += 1
            log(f"FAIL {workload.name}/{name}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, CheckFailed):
                log(traceback.format_exc())
        else:
            if verbose:
                log(f"ok   {workload.name}/{name}: {detail}")
        t1 = time.perf_counter()
        times[name] = (t1 - t0, _cpu() - cpu0)
        if tracer is not None:
            tracer.op_window(name, t0, t1)
    out = {"times": times, "digests": digests, "failed": failed}
    if tracer is not None:
        out["metrics"], out["detail"] = tracer.pass_metrics(time.perf_counter() - t_pass)
    return out


_COPY_JOB = None


def _copy_job(index):
    workload, tracer, clear_caches, verbose = _COPY_JOB
    os.makedirs(f"../copy{index}", exist_ok=True)
    os.chdir(f"../copy{index}")
    return run_ops(workload, tracer, clear_caches, verbose and index == 0)


def timed_pass(workload, tracer, clear_caches, verbose):
    """One pass: the workload's operations, once in this process, or (for a
    workload that runs no pool of its own) as two concurrent copies in two
    forked workers, so that both cores are busy for the whole pass.

    Returns (wall, cpu, results) with one ``run_ops`` result per copy.
    """
    global _COPY_JOB
    cpu0 = _cpu()
    t0 = time.perf_counter()
    if workload.copies == 1:
        results = [run_ops(workload, tracer, clear_caches, verbose)]
    else:
        # fork: the copies inherit the set-up inputs and, traced, the wrappers
        _COPY_JOB = (workload, tracer, clear_caches, verbose)
        with ProcessPoolExecutor(workload.copies,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(_copy_job, range(workload.copies)))
    return time.perf_counter() - t0, _cpu() - cpu0, results


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "measure"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result")
    args = p.parse_args(argv)

    root = Path(args.root)
    _import_kbflow(root)
    from workloads import WORKLOADS

    # operations run in copy<i>/ under the work directory (see workloads.Workload)
    home = Path(args.workdir).resolve() / "copy0"
    home.mkdir(parents=True, exist_ok=True)
    os.chdir(home)
    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    import kbflow
    from spans import Tracer

    # every pass starts with a cold closed-form density cache, as a user's
    # fresh process does
    clear_caches = kbflow.scalar.invariant_density.cache_clear
    counts = {"attempted": 0, "failed": 0}
    reference = {}

    def account(results):
        for res in results:
            counts["attempted"] += len(res["digests"])
            counts["failed"] += res["failed"]
            for name, dig in res["digests"].items():
                if dig is not None and reference.setdefault(name, dig) != dig:
                    counts["failed"] += 1
                    print(f"FAIL {workload.name}/{name}: output digest differs from "
                          "the first pass", file=sys.stderr, flush=True)

    passes, traced_walls, layer_runs, details = [], [], [], []
    tracer = Tracer(str(home.parent / "spool")) if args.trace else None
    start = time.perf_counter()
    last = 0.0
    while True:
        enough = len(passes) >= 2 if not args.trace else \
            (len(passes) >= 1 and len(traced_walls) >= 1)
        # stop when the next pass would end more than half a pass late
        if enough and time.perf_counter() - start + 0.5 * last >= args.seconds:
            break
        verbose = not passes
        if args.trace and len(traced_walls) < len(passes):
            tracer.install()
            try:
                last, _, results = timed_pass(workload, tracer, clear_caches, verbose)
            finally:
                tracer.uninstall()
            traced_walls.append(last)
            layer_runs.append(results[0]["metrics"])
            details.append(results[0]["detail"])
        else:
            last, cpu, results = timed_pass(workload, None, clear_caches, verbose)
            ops = {name: sum(r["times"][name][0] for r in results) / len(results)
                   for name in results[0]["times"]}
            passes.append({"wall": last, "cpu": cpu, "ops": ops})
        account(results)

    result = {
        "passes": passes, "peak_rss_mb": _peak_rss_mb(), "versions": _versions(),
        "attempted": counts["attempted"], "failed": counts["failed"],
    }
    if args.trace:
        layers = {}
        for name, (_, unit) in layer_runs[0].items():
            layers[name] = {"value": statistics.median([m[name][0] for m in layer_runs]),
                            "unit": unit}
        layers["trace.overhead_share"] = {
            "value": statistics.median(traced_walls)
            / statistics.median([p["wall"] for p in passes]) - 1.0,
            "unit": "ratio"}
        result["per_layer"] = layers
        result["trace_detail"] = details[len(details) // 2]
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
