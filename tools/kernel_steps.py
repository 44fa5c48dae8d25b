#!/usr/bin/env python3
"""Time per step of the particle kernels at the particle studies' shapes.

Compares source trees in one process, interleaved::

    python tools/kernel_steps.py --src /path/to/parent/src --src src

Each ``--src`` holds a kbflow package; each is imported as its own copy.
Every round times one call per shape and tree, the trees in alternating
order, and the script prints, per shape and tree, the median over the
rounds of the microseconds per step (the call's wall time over its step
count, chunk set-up included).  The shapes are those of the particle
studies:

* ``contraction``: ``semigroup_contraction`` (vanilla, B = 200, N = 40,
  scalar A = 20, dt 1e-4, with the closed-loop integral);
* ``ks_vanilla``, ``ks_deterministic``: ``invariant_ks`` (B = 250, N = 6,
  A = 20, dt 1e-4, a record every 10 steps);
* ``bias_d1``: the ``d = 1`` ``bias`` study (deterministic, B = 1024, N =
  10, A = 1, dt 1e-3);
* ``bias_d2``: the ``d = 2`` ``bias`` study (vanilla, B = 1024, N = 10, dt
  1e-3) on the benchmark's ``random_model(2, stabilize=0.5)`` of seed 1.

The ``d = 1`` shapes call ``particle_cov_paths_1d``, which every tree has
(the scalar kernel, or the ``d = 1`` adapter of the nd kernel), and
``bias_d2`` calls ``particle_cov_paths_nd``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def load(src: Path):
    """The kbflow package of ``src``, imported apart from any other copy."""
    for name in [n for n in sys.modules if n == "kbflow" or n.startswith("kbflow.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src.resolve()))
    try:
        import kbflow
    finally:
        sys.path.pop(0)
    if not Path(kbflow.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"kbflow was imported from {kbflow.__file__}, not from {src}")
    return kbflow


def bias_d2_model(kb):
    """``random_model(2, stabilize=0.5)`` of the benchmark's ``studies``
    inputs at seed 1."""
    rng = np.random.default_rng([1, 1])
    d = 2
    A = rng.normal(size=(d, d)) / np.sqrt(d) - 0.5 * np.eye(d)
    H = rng.normal(size=(d, d)) / np.sqrt(d)
    G = rng.normal(size=(d, d)) / np.sqrt(d)
    G1 = rng.normal(size=(d, d)) / np.sqrt(d)
    return kb.LinearGaussianModel(A, H, G @ G.T + 0.5 * np.eye(d),
                                  G1 @ G1.T + 0.5 * np.eye(d))


def shapes(kb, steps_scale: float):
    """``name -> (call, steps)`` for one kbflow package."""
    eng = kb._engines

    def scalar(A):
        return kb.ScalarModel(A=A, R=1.0, S=1.0).to_model()

    def one_d(A, variant, B, N, dt, steps, **kw):
        grid = kb.TimeGrid(0.0, dt, steps)
        return (lambda: eng.particle_cov_paths_1d(scalar(A), variant, N=N, grid=grid,
                                                  seed=5, trials=B, **kw), steps)

    n = lambda steps: max(2, int(steps * steps_scale))
    m2 = bias_d2_model(kb)
    bias_steps = n(200)
    return {
        "contraction": one_d(20.0, "vanilla", 200, 40, 1e-4, n(400), integral_from=0,
                             record_indices=[n(400)]),
        "ks_vanilla": one_d(20.0, "vanilla", 250, 6, 1e-4, n(1000),
                            record_indices=np.arange(0, n(1000) + 1, 10)),
        "ks_deterministic": one_d(20.0, "deterministic", 250, 6, 1e-4, n(1000),
                                  record_indices=np.arange(0, n(1000) + 1, 10)),
        "bias_d1": one_d(1.0, "deterministic", 1024, 10, 1e-3, n(400),
                         record_indices=np.arange(0, n(400) + 1, 20)),
        "bias_d2": (lambda: eng.particle_cov_paths_nd(
            m2, "vanilla", N=10, grid=kb.TimeGrid(0.0, 1e-3, bias_steps), seed=5,
            trials=1024, record_indices=np.arange(0, bias_steps + 1, 10)), bias_steps),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, action="append", required=True,
                        help="a source tree holding the kbflow package (repeatable)")
    parser.add_argument("--rounds", type=int, default=7, help="interleaved rounds (>= 1)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="factor on each shape's step count")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    trees = [shapes(load(src), args.scale) for src in args.src]
    for tree in trees:  # warm up
        for call, _ in tree.values():
            call()
    times = {(name, i): [] for name in trees[0] for i in range(len(trees))}
    for r in range(args.rounds):
        order = list(range(len(trees)))
        if r % 2:
            order.reverse()
        for name in trees[0]:
            for i in order:
                call, steps = trees[i][name]
                t0 = time.perf_counter()
                call()
                times[name, i].append((time.perf_counter() - t0) / steps * 1e6)
    print(f"us per step, median of {args.rounds} interleaved rounds")
    print(f"{'shape':18s}" + "".join(f"  tree {i}" for i in range(len(trees)))
          + ("  ratio 1/0" if len(trees) == 2 else ""))
    for name in trees[0]:
        med = [statistics.median(times[name, i]) for i in range(len(trees))]
        line = f"{name:18s}" + "".join(f"  {m:8.1f}" for m in med)
        if len(trees) == 2:
            line += f"  {med[1] / med[0]:8.3f}"
        print(line)
    for i, src in enumerate(args.src):
        print(f"tree {i}: {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
