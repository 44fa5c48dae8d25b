"""kbflow benchmark launcher.

Usage, from the root of a kbflow checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``perfbench/README.md``) and prints, as the last line
of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics from untraced passes; ``--trace 1`` reports the
per-layer metrics from traced passes.

The launcher uses the standard library only.  It pins BLAS/OpenMP to one
thread per process before numpy is imported anywhere (the benchmark process
and its two pool workers then fit two cores), runs the benchmark process and
two more processes that only set up, timing each from its start until it
reports ready, and prints the environment on standard error.  It writes only under ``.perfbench_run/`` in the checkout and
removes that directory when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("studies", "filter_and_theory", "study_wide", "study_long",
             "filter_runs", "exact_theory")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 3
MEASURE_TIMEOUT = 150.0
PROBE_TIMEOUT = 30.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MiB", "ops_ok_share": "ratio"}


def child_env(root):
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("KBFLOW_WORKERS", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_timed(cmd, env, timeout):
    """Run a child that prints ``ready`` once set up; return the seconds from
    its start until that line.  A child that overruns is killed and waited
    for."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"benchmark process timed out after {timeout:.0f}s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"benchmark process failed (exit {proc.returncode})")
    return ready


def environment(root, env, versions):
    commit = "unavailable (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return dict(versions, python=platform.python_version(), commit=commit,
                nproc=os.cpu_count(), usable_cpus=len(os.sched_getaffinity(0)),
                threads={v: env[v] for v in THREAD_VARS}, pool_workers=2)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kbflow" / "__init__.py").is_file():
        print("error: run from the root of a kbflow checkout (src/kbflow not found)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    workdir = root / ".perfbench_run"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        base = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--root", str(root), "--workdir", str(workdir)]
        result_path = workdir / "result.json"
        setups = [run_timed(base + ["--mode", "measure", "--seconds", str(args.seconds),
                                    "--trace", str(args.trace), "--result", str(result_path)],
                            env, MEASURE_TIMEOUT)]
        res = json.loads(result_path.read_text())
        info = environment(root, env, res["versions"])
        print("environment: " + json.dumps(info, sort_keys=True), file=sys.stderr)
        setups += [run_timed(base + ["--mode", "setup"], env, PROBE_TIMEOUT)
                   for _ in range(SETUP_PROBES - 1)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    walls = [p["wall"] for p in res["passes"]]
    cpus = [p["cpu"] for p in res["passes"]]
    print(f"passes: untraced {len(walls)} {[round(w, 3) for w in walls]}, set-up "
          f"probes {[round(s, 3) for s in setups]}", file=sys.stderr)
    print("per-op: " + json.dumps([p["ops"] for p in res["passes"]]), file=sys.stderr)
    if args.trace:
        detail = res["trace_detail"]
        print("trace: " + json.dumps(detail, sort_keys=True), file=sys.stderr)
        metrics = res["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": res["peak_rss_mb"],
            "ops_ok_share": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
