#!/usr/bin/env python3
"""Seeded output corpus of kbflow, and a bitwise comparison of two corpora.

A change that promises unchanged results is checked by running the corpus
on the source trees before and after it, then comparing the two files::

    python tools/outputs.py run --src /path/to/parent/src --out parent.npz
    python tools/outputs.py run --src src --out change.npz
    python tools/outputs.py compare parent.npz change.npz

``run`` imports kbflow from ``--src`` and saves every output of a fixed,
seeded corpus to one ``.npz``:

* the four stepping kernels (the nd ones at d = 1, 2, 3), over variants,
  frames, means and inflation, the scalar particle kernel also at N = 4,
  10, 40 and 200, plus two batches with diverging trials, and the nd
  particle kernel's closed-loop integral and moment-matched clouds at d =
  2, 3 (missing from corpora of trees without them);
* ``stationary_covariance_samples`` pools of both variants at scalar A =
  20, N = 6, and one whose replicas partly diverge;
* ``run_enkf``, ``law_level_run`` and ``kalman_run``, and a stochastic
  semigroup along one run;
* ``run_nonlinear`` in all three variants, with linear evaluators and with a
  nonlinear drift, plus a batch with a diverging cloud (skipped on source
  trees without ``run_nonlinear``, whose corpora list these as missing);
* the Riccati flows (nominal at d = 1, 2, 3 and inflated at both kappa),
  ``semigroup_E`` and ``solve_are``;
* the matrix and density primitives: ``gramians`` and the
  ``check_riccati_sandwich`` margins (d = 1-4 at tau = 0.5, d = 4 at tau =
  0.1 and 1, scalar A = 20 at tau = 1), ``spectral_matching_distance``
  (d = 1-9), ``project_psd`` and ``symmetric_sqrt`` on PSD, indefinite and
  rank-one matrices (d = 1-4), ``log_norm`` of each matrix of a stack, the
  ``InvariantDensity`` evaluations at both kappa and ``clt_variance_oracle``;
* the cell kinds each public ``kbflow.io`` writer takes (None, bools, ints,
  floats, nan, +-inf, JSON lists and strings; figure columns of numeric,
  bool and str dtype), with an exact-run and a diverged trajectory: the
  file bytes and what the loaders return;
* ``kbflow run`` for the exact filter, a particle system and the law level;
* the files of all eight study kinds, at small sizes, and of the bias
  study also at confidence 0.9 and 0.95 and with trials diverging until
  one survives, of a contraction study whose trials all diverge and of a
  moments flow whose higher moments overflow.

Flows and runs are read through node access (``[s.P for s in flow]``,
``[s.X for s in run]``), so the script runs unchanged on source trees whose
flows are lists of states and on those whose flows are stacks.  File
contents are stored as bytes, with the temporary directory's path replaced
by ``<tmp>``.

``compare`` lists each output as ``equal`` (bit for bit), ``moved`` (with
the largest relative difference of an entry and the largest difference
relative to the output's largest finite magnitude; for a text file whose
text is the same apart from its numbers, those two figures over its
numbers; for another file the first differing byte or the new length) or
``missing`` (on one side), and exits 0 only if every output is equal.  The
corpus takes well under a minute on two cores.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------

class Corpus:
    """Named output arrays.  Dicts are flattened into names joined by ``/``;
    ``None`` is stored as an empty array and file contents as bytes."""

    def __init__(self):
        self.arrays: dict[str, np.ndarray] = {}

    def put(self, name: str, value) -> None:
        if isinstance(value, dict):
            for key, v in value.items():
                self.put(f"{name}/{key}", v)
            return
        if value is None:
            value = np.zeros(0)
        elif isinstance(value, bytes):
            value = np.frombuffer(value, dtype=np.uint8)
        if name in self.arrays:
            raise ValueError(f"duplicate output name {name!r}")
        self.arrays[name] = np.asarray(value)


def _model(kb, d: int, seed: int, stabilize: float = 0.0):
    """Random model; controllable and observable with probability one."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d)) / np.sqrt(d) - stabilize * np.eye(d)
    H = rng.normal(size=(d, d)) / np.sqrt(d)
    G = rng.normal(size=(d, d)) / np.sqrt(d)
    G1 = rng.normal(size=(d, d)) / np.sqrt(d)
    return kb.LinearGaussianModel(A, H, G @ G.T + 0.5 * np.eye(d),
                                  G1 @ G1.T + 0.5 * np.eye(d))


def _scalar(kb, A: float):
    return kb.ScalarModel(A=A, R=1.0, S=1.0).to_model()


def _psd(d: int, seed: int) -> np.ndarray:
    G = np.random.default_rng(seed).normal(size=(d, d))
    return G @ G.T / d + 0.1 * np.eye(d)


def _record(rec) -> dict:
    return {key: getattr(rec, key) for key in
            ("t", "mean", "cov", "error", "mu_closed_loop", "diverged_at")}


def kernels(kb, c: Corpus) -> None:
    eng = kb._engines
    m1, m2 = _scalar(kb, 1.0), _model(kb, 2, 31, stabilize=1.0)
    models = ((1, m1), (2, m2), (3, _model(kb, 3, 32, stabilize=1.0)))
    grid = kb.TimeGrid(0.0, 1e-2, 300)
    for variant in ("vanilla", "deterministic"):
        c.put(f"kernel/particle_1d/{variant}", eng.particle_cov_paths_1d(
            m1, variant, N=10, grid=grid, seed=4, trials=7, chunk=4, integral_from=3))
    for variant in ("vanilla", "deterministic", "transport"):
        for d, m in models:
            for frame in ("error", "absolute"):
                c.put(f"kernel/particle_nd/d{d}/{variant}/{frame}", eng.particle_cov_paths_nd(
                    m, variant, N=6, grid=grid, seed=7, trials=5, chunk=2, frame=frame))
    # clouds of 5, 11, 41 and 201 particles: each summation order of the
    # scalar kernel's sums over the particles (in sequence, eight
    # accumulators, halves)
    for N in (4, 10, 40, 200):
        for variant in ("vanilla", "deterministic"):
            c.put(f"kernel/particle_1d/N{N}/{variant}", eng.particle_cov_paths_1d(
                m1, variant, N=N, grid=kb.TimeGrid(0.0, 1e-2, 120), seed=8, trials=5,
                chunk=3, integral_from=7))
    c.put("kernel/particle_1d/matched", eng.particle_cov_paths_1d(
        m1, "vanilla", N=10, grid=grid, seed=4, trials=7, init="matched"))
    for d, m in models:
        c.put(f"kernel/particle_nd/d{d}/inflated", eng.particle_cov_paths_nd(
            m, "deterministic", N=6, grid=grid, seed=7, trials=5, chunk=2,
            inflation=kb.Inflation(xi=0.5)))
    # the nd kernel's closed-loop integral and moment-matched clouds (on
    # source trees whose nd kernel has neither, the corpus lists them as
    # missing)
    if "integral_from" in inspect.signature(eng.particle_cov_paths_nd).parameters:
        for d, m in models[1:]:
            c.put(f"kernel/particle_nd/d{d}/integral", eng.particle_cov_paths_nd(
                m, "vanilla", N=6, grid=grid, seed=7, trials=5, chunk=2, integral_from=50))
            c.put(f"kernel/particle_nd/d{d}/matched", eng.particle_cov_paths_nd(
                m, "deterministic", N=d, grid=grid, seed=7, trials=5, chunk=2,
                frame="absolute", init="matched"))
    c.put("kernel/particle_nd/diverging", eng.particle_cov_paths_nd(
        _scalar(kb, 60.0), "vanilla", N=1, grid=kb.TimeGrid(0.0, 1e-1, 3000), seed=1,
        trials=6))
    c.put("kernel/particle_1d/diverging", eng.particle_cov_paths_1d(
        _scalar(kb, 20.0), "vanilla", N=2, grid=kb.TimeGrid(0.0, 1e-2, 300), seed=0,
        trials=8))
    for kappa in (0, 1):
        c.put(f"kernel/law_1d/kappa{kappa}", eng.law_cov_paths_1d(
            m1, kappa, N=8, Q=1.0, grid=grid, seed=5, trials=9, chunk=4, integral_from=0))
        for d, m in models:
            for with_mean in (True, False):
                c.put(f"kernel/law_nd/d{d}/kappa{kappa}/mean{int(with_mean)}",
                      eng.law_cov_paths_nd(m, kappa, N=8, Q=np.eye(d), grid=grid, seed=5,
                                           trials=5, chunk=3, with_mean=with_mean,
                                           integral_from=10))
        c.put(f"kernel/law_nd/d2/kappa{kappa}/inflated", eng.law_cov_paths_nd(
            m2, kappa, N=8, Q=np.eye(2), grid=grid, seed=5, trials=5, chunk=3,
            inflation=kb.Inflation(xi=0.5)))


def stationary(kb, c: Corpus) -> None:
    keys = ("samples", "lag_corr", "stride_steps", "effective", "diverged")
    m = _scalar(kb, 20.0)
    for variant in ("vanilla", "deterministic"):
        pool = kb.stationary_covariance_samples(m, variant, 6, 11, dt=1e-3, replicas=16,
                                                horizon=2.0, record_stride=5)
        c.put(f"stationary/{variant}", {k: pool[k] for k in keys})
    # N = 4 at dt = 5e-3: 10 of the 16 replicas diverge
    pool = kb.stationary_covariance_samples(m, "vanilla", 4, 3, dt=5e-3, replicas=16,
                                            horizon=3.0, record_stride=1)
    c.put("stationary/diverging", {k: pool[k] for k in keys})


def runs(kb, c: Corpus) -> None:
    grid = kb.TimeGrid(0.0, 1e-2, 200)
    vanilla = None
    for d, m in ((1, _scalar(kb, 1.0)), (2, _model(kb, 2, 31, stabilize=1.0))):
        for variant in ("vanilla", "deterministic", "transport"):
            rec = kb.run_enkf(m, variant, 8, grid, seeds=(3, 11))
            vanilla = rec if variant == "vanilla" else vanilla
            c.put(f"run/run_enkf/d{d}/{variant}", _record(rec))
        c.put(f"run/run_enkf/d{d}/inflated", _record(kb.run_enkf(
            m, "vanilla", 8, grid, seeds=5, inflation=kb.Inflation(xi=0.3))))
        for kappa in (0, 1):
            c.put(f"run/law_level_run/d{d}/kappa{kappa}", _record(kb.law_level_run(
                m, kappa, np.eye(d), np.zeros(d), grid, 8, streams=4)))
        sg = kb.stochastic_semigroup(m, vanilla, 0.0, grid.t_end)
        c.put(f"run/stochastic_semigroup/d{d}", {
            "E_hat": sg.E_hat, "log_norm_integral": sg.log_norm_integral,
            "trace_integral": sg.trace_integral})
    for d in (1, 2, 3):
        m = _model(kb, d, 40 + d, stabilize=0.5)
        run = kb.kalman_run(m, np.zeros(d), _psd(d, 7), 9, kb.TimeGrid(0.0, 1e-3, 1500))
        c.put(f"run/kalman_run/d{d}", {
            "t": np.array([s.t for s in run]), "X": np.array([s.X for s in run]),
            "P": np.array([s.P.P for s in run]), "Z": np.array([s.Z for s in run])})


def nonlinear(kb, c: Corpus) -> None:
    if not hasattr(kb.ensemble, "run_nonlinear"):
        return
    m = _model(kb, 2, 31, stabilize=1.0)
    dt = 1e-2
    X0 = kb.NoiseStream(6, 0, "init").normals((3, 2, 7))
    dY = kb.NoiseStream(6, 0, "obs").increments((300, 3, 2), dt)
    drifts = {"linear": lambda X: m.A @ X, "cubic": lambda X: m.A @ X - X ** 3}
    for name, a in drifts.items():
        for variant in ("vanilla", "deterministic", "transport"):
            X, div = kb.ensemble.run_nonlinear(a, lambda X: m.H @ X, (m.R, m.R1), X0, dY, dt,
                                               variant, 9)
            c.put(f"nonlinear/{name}/{variant}", {"X": X, "diverged_step": div})
    # x^3 - x explodes beyond |x| = 1: the cloud started at 3 diverges
    X0 = 0.1 * kb.NoiseStream(1, 0, "init").normals((4, 1, 5))
    X0[2] += 3.0
    X, div = kb.ensemble.run_nonlinear(
        lambda X: X ** 3 - X, lambda X: X, (0.1 * np.eye(1), np.eye(1)), X0,
        kb.NoiseStream(2, 0, "obs").increments((200, 4, 1), dt), dt, "vanilla", 3)
    c.put("nonlinear/diverging", {"X": X, "diverged_step": div})


def theory(kb, c: Corpus) -> None:
    grid = kb.TimeGrid(0.0, 2e-3, 500)
    for d in (1, 2, 3):
        m, Q = _model(kb, d, 20 + d), _psd(d, 3)
        flow = kb.riccati_flow(m, Q, grid)
        c.put(f"flow/riccati/d{d}", {"t": np.array([s.t for s in flow]),
                                     "P": np.array([s.P for s in flow])})
        for kappa in (1.0, 0.0):
            infl = kb.inflated_riccati_flow(m, kappa, Q, grid, kb.Inflation(xi=0.5))
            c.put(f"flow/inflated/d{d}/kappa{int(kappa)}", np.array([s.P for s in infl]))
        sg = kb.semigroup_E(m, Q, 0.3, 1.7)
        c.put(f"flow/semigroup_E/d{d}", {"E": sg.E, "trace_integral": sg.trace_integral})
    c.put("flow/riccati/d1_stiff", np.array([s.P for s in kb.riccati_flow(
        _scalar(kb, 20.0), np.zeros((1, 1)), kb.TimeGrid(0.0, 1e-4, 10000))]))
    models = [_scalar(kb, A) for A in (-1.0, 1.0, 20.0)]
    models += [_model(kb, d, seed) for d in (2, 3, 4) for seed in (1, 2, 3)]
    # without signal noise the Newton iterate of these has a negative
    # eigenvalue at rounding level, which the final projection clamps
    for seed in (3, 12):
        m = _model(kb, 3, seed, stabilize=1.0)
        models.append(kb.LinearGaussianModel(m.A, m.H, np.zeros((3, 3)), m.R1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # not controllable
        for i, m in enumerate(models):
            c.put(f"flow/solve_are/{i}_d{m.d}", kb.solve_are(m).P)


def _gramians(kb, c: Corpus, name: str, m, tau: float, t: float) -> None:
    g = kb.gramians(m, tau)
    c.put(f"primitive/gramians/{name}", {k: getattr(g, k) for k in
                                         ("O_tau", "C_tau", "C_tau_of_O", "O_tau_of_C")})
    c.put(f"primitive/sandwich/{name}", kb.check_riccati_sandwich(
        m, _psd(m.d, m.d), tau, t).margins)


def primitives(kb, c: Corpus) -> None:
    rng = np.random.default_rng(50)
    for d in (1, 2, 3, 4):
        m = _model(kb, d, 60 + d, stabilize=0.5)
        _gramians(kb, c, f"d{d}", m, 0.5, 1.0)
        G = rng.normal(size=(d, d))
        u = rng.normal(size=(d, 1))
        w = np.linspace(-1.0, 2.0, d)
        Q, _ = np.linalg.qr(G)
        for name, M in (("psd", G @ G.T), ("indefinite", (Q * w) @ Q.T + 0.1 * G),
                        ("rank_one", u @ u.T)):
            c.put(f"primitive/project_psd/d{d}/{name}", kb.project_psd(M))
            if name != "indefinite":
                c.put(f"primitive/symmetric_sqrt/d{d}/{name}", kb.symmetric_sqrt(M))
        stack = rng.normal(size=(5, d, d))
        c.put(f"primitive/log_norm/d{d}", np.array([kb.log_norm(M) for M in stack]))
    # a stiff and a short window, where a quadrature of O_tau and C_tau is least exact
    _gramians(kb, c, "A20_tau1", _scalar(kb, 20.0), 1.0, 2.0)
    for tau in (0.1, 1.0):
        _gramians(kb, c, f"d4_tau{tau:g}", _model(kb, 4, 64, stabilize=0.5), tau, 2.0)
    for d in range(1, 10):
        M1, M2 = rng.normal(size=(2, d, d))
        c.put(f"primitive/spectral_matching/d{d}", kb.spectral_matching_distance(M1, M2))
    x = np.array([-1.0, 0.0, 1e-3, 0.3, 1.0, 2.5, 7.0, 40.0])
    for kappa in (0, 1):
        for A, N in ((1.0, 6), (-0.5, 3), (2.0, 12)):
            dens = kb.InvariantDensity(kb.ScalarModel(A=A, R=1.0, S=1.5), kappa, N)
            key = f"primitive/density/kappa{kappa}/A{A}_N{N}"
            c.put(key, {"pdf": dens.pdf(x), "log_pdf": dens.log_pdf(x),
                        "cdf": dens.cdf(x), "mode": dens.mode,
                        "moments": [dens.moment(n) for n in (1, 2, 3)],
                        "x_max": dens.x_max,
                        "tail": dens._tail_mass(50.0) if kappa else None})
        c.put(f"primitive/clt_oracle/kappa{kappa}", [kb.clt_variance_oracle(
            kb.ScalarModel(A=A, R=1.0, S=1.0), kappa, Q, 1.5) for A, Q in ((1.0, 0.5),
                                                                        (-2.0, 3.0))])


def _files(folder: Path, tmp: Path) -> dict:
    return {p.name: p.read_bytes().replace(str(tmp).encode(), b"<tmp>")
            for p in sorted(folder.iterdir())}


def io_tables(kb, c: Corpus, tmp: Path) -> None:
    nan, inf = np.nan, np.inf
    floats = np.array([0.1 + 0.2, -0.0, 5e-324, 1.7976931348623157e308, nan, inf, -inf])
    K = len(floats)
    rng = np.random.default_rng(70)
    trajectories = {
        "plain": (3, None),
        "exact": (2, {"variant": "exact", "N": None, "xi": 0, "kappa": nan,
                      "diverged_at": None}),
        "diverged": (1, {"variant": "vanilla", "N": np.int64(8), "xi": 0.5, "kappa": 1,
                         "diverged_at": np.float64(0.25)}),
    }
    for name, (d, extras) in trajectories.items():
        mean, error = rng.normal(size=(2, K, d))
        mean[:, 0] = error[:, -1] = floats
        cov = rng.normal(size=(K, d, d))
        cov = cov @ cov.swapaxes(1, 2)
        cov[:, 0, -1] = floats
        if extras is not None:
            extras = {**extras, "mu_closed_loop": floats[::-1]}
        path = kb.io.write_trajectory_csv(tmp / f"io_{name}.csv", floats, mean, cov, error,
                                          extras)
        c.put(f"io/trajectory/{name}", {"file": path.read_bytes(),
                                        "loaded": kb.io.load_trajectory_csv(path)})
    per_point = [
        {"N": 6, "t": 0.5, "mean": nan, "var": inf, "l2": -inf, "l4": np.float64(0.1),
         "std_moments": [0.1, nan, None], "ks": None, "diverged": True, "label": "text",
         "count": np.int64(3), "fit": {"a": [1, 2]}},
        {"N": np.int64(12), "t": np.float64(-0.0), "mean": 1e-300, "var": np.float64(inf),
         "l2": False, "std_moments": np.array([1.5, -inf]), "ks": 0.015, "diverged": 0},
    ]
    path = kb.io.write_per_point_csv(tmp / "io_per_point.csv", per_point)
    c.put("io/per_point", {"file": path.read_bytes(),
                           "loaded": repr(kb.io.load_per_point_csv(path)).encode()})
    columns = {"float": floats, "float32": floats.astype(np.float32),
               "int": np.arange(K) - 3, "bool": np.arange(K) % 2 == 0,
               "text": np.array(["a", "b c", "Divergent", "nan", "", "x,y", "-1"])}
    path = kb.io.write_columns_csv(tmp / "io_columns.csv", columns)
    c.put("io/columns", {"file": path.read_bytes(),
                         "loaded": kb.io.load_columns_csv(path)})


def cli_runs(kb, c: Corpus, tmp: Path) -> None:
    model = tmp / "model.json"
    kb.save_model(_model(kb, 2, 31, stabilize=1.0), model)
    configs = {"exact": {}, "vanilla": {"N": 8}, "law": {"N": 8, "kappa": 1}}
    for variant, extra in configs.items():
        out = tmp / f"run_{variant}"
        cfg = tmp / f"run_{variant}.json"
        cfg.write_text(json.dumps({"model": str(model), "variant": variant,
                                   "grid": {"dt": 0.01, "T_end": 2.0}, **extra}))
        with contextlib.redirect_stdout(io.StringIO()):
            code = kb.cli.main(["run", str(cfg), "--out", str(out), "--seed", "5"])
        if code != 0:
            raise RuntimeError(f"kbflow run {variant} exited {code}")
        traj = kb.io.load_trajectory_csv(out / "trajectory.csv")
        final = kb.io.load_summary_json(out / "summary.json")["final"]
        c.put(f"cli/{variant}/trajectory", {k: traj[k] for k in ("t", "mean", "error", "cov")})
        c.put(f"cli/{variant}/final", {k: np.array(final[k], dtype=float)
                                       for k in ("t", "mean", "cov", "error")})
        if variant != "exact":  # the exact files gain columns and keys
            c.put(f"cli/{variant}/files", _files(out, tmp))


def _study_specs(kb) -> dict:
    m1, m2 = _scalar(kb, 1.0).to_dict(), _scalar(kb, 2.0).to_dict()
    d2 = _model(kb, 2, 31, stabilize=1.0).to_dict()
    short = {"dt": 0.02, "steps": 50}
    bias_d1 = dict(kind="bias", model=m1, grid=short, master_seed=12, trials=200,
                   N=(10,), variant="vanilla", chunk=64, options={"record_every": 25})
    return {
        "bias_d1": bias_d1,
        "bias_d1_c90": {**bias_d1, "options": {"record_every": 25, "confidence": 0.9}},
        "bias_d1_c95": {**bias_d1, "options": {"record_every": 25, "confidence": 0.95}},
        # N = 1 particle on an unstable model: trials diverge until one survives
        "bias_d1_survivor": dict(kind="bias", model=_scalar(kb, 8.0).to_dict(),
                                 grid={"dt": 0.1, "steps": 200},
                                 master_seed=1, trials=100, N=(1,), variant="vanilla",
                                 options={"record_every": 10}),
        "bias_d2": dict(kind="bias", model=d2, grid=short, master_seed=13, trials=120,
                        N=(6,), variant="deterministic", chunk=64,
                        options={"record_every": 10}),
        "fluctuation_rate": dict(kind="fluctuation_rate", model=m1,
                                 grid={"dt": 0.01, "steps": 50}, master_seed=7,
                                 trials=100, chunk=40, N=(4, 8, 16, 32), kappa=1),
        "invariant_ks": dict(kind="invariant_ks", model=m2, grid={"dt": 1e-2, "steps": 10},
                             master_seed=3, trials=70, chunk=40, N=(6,),
                             options={"burn_in": 0.5, "record_stride": 2, "horizon": 20.0}),
        "moments_flow": dict(kind="moments_flow", model=m1, grid=short, master_seed=4,
                             trials=60, chunk=32, N=(12,), kappa=1,
                             options={"record_every": 10}),
        "lyapunov": dict(kind="lyapunov", model=m2, grid={"dt": 1e-3, "steps": 800},
                         master_seed=2, trials=40, N=(6,), kappa=0,
                         options={"burn_in": 0.2}),
        "inflation_sweep": dict(kind="inflation_sweep", model=d2, grid=short,
                                master_seed=0, trials=1, N=(10,),
                                options={"xi": [0.5, 1.0], "record_every": 10}),
        "semigroup_contraction": dict(kind="semigroup_contraction", model=m2,
                                      grid={"dt": 1e-3, "steps": 300}, master_seed=5,
                                      trials=150, chunk=64, N=(12,), variant="vanilla"),
        "clt_variance": dict(kind="clt_variance", model=m1, grid={"dt": 0.01, "steps": 20},
                             master_seed=1, trials=120, chunk=50, N=(8,), kappa=0),
        # N = 1 particle on an unstable model: every trial diverges
        "semigroup_contraction_all_diverged": dict(
            kind="semigroup_contraction", model=_scalar(kb, 8.0).to_dict(),
            grid={"dt": 0.1, "steps": 200}, master_seed=1, trials=150, N=(1,),
            variant="vanilla"),
        # dt = 1 on A = 50: finite covariances whose ninth powers overflow
        "moments_flow_overflow": dict(kind="moments_flow", model=_scalar(kb, 50.0).to_dict(),
                                      grid={"dt": 1.0, "steps": 40}, master_seed=1,
                                      trials=10, N=(1,), kappa=1),
    }


def studies(kb, c: Corpus, tmp: Path) -> None:
    for name, spec in _study_specs(kb).items():
        out = tmp / f"study_{name}"
        kb.stats.run_study(kb.StudySpec(**spec, out=str(out)), workers=1)
        c.put(f"study/{name}", _files(out, tmp))


def run_corpus(src: Path) -> dict[str, np.ndarray]:
    """Every corpus output of the kbflow package found in ``src``."""
    src = src.resolve()
    sys.path.insert(0, str(src))
    import kbflow as kb
    import kbflow.cli  # noqa: F401  (also binds kb.cli)

    if not Path(kb.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"kbflow was imported from {kb.__file__}, not from {src}")
    c = Corpus()
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        tmp = Path(tmp)
        kernels(kb, c)
        stationary(kb, c)
        runs(kb, c)
        nonlinear(kb, c)
        theory(kb, c)
        primitives(kb, c)
        io_tables(kb, c, tmp)
        cli_runs(kb, c, tmp)
        studies(kb, c, tmp)
    return c.arrays


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _numbers(a: np.ndarray, b: np.ndarray):
    """The numbers of two files' texts, as two float arrays, if the texts are
    equal apart from their numbers (None otherwise)."""
    try:
        parts = [_NUMBER.split(x.tobytes().decode()) for x in (a, b)]
    except UnicodeDecodeError:
        return None
    # re.split with one group: text, number, text, ..., text
    if len(parts[0]) != len(parts[1]) or parts[0][::2] != parts[1][::2]:
        return None
    return tuple(np.array(p[1::2], dtype=float) for p in parts)


def _difference(a: np.ndarray, b: np.ndarray) -> str:
    """How ``b`` moved from ``a`` (two arrays whose bytes differ)."""
    if a.dtype == b.dtype == np.uint8:
        numbers = _numbers(a, b)
        if numbers is not None:
            return f"same text apart from numbers, {_difference(*numbers)}"
    if a.dtype != b.dtype or a.shape != b.shape:
        return f"{a.dtype}{list(a.shape)} -> {b.dtype}{list(b.shape)}"
    if a.dtype == np.uint8:
        at = int(np.argmax(a != b))
        return f"file bytes differ from offset {at}"
    a, b = a.astype(float), b.astype(float)
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    if np.any(nan_a != nan_b):
        return f"nan at {int(np.sum(nan_a != nan_b))} entries of one side only"
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        same = (a == b) | nan_a
        diff = np.where(same, 0.0, np.abs(a - b))
        rel = np.where(same, 0.0, diff / np.maximum(np.abs(a), np.abs(b)))
        finite = np.abs(np.concatenate([a[np.isfinite(a)], b[np.isfinite(b)]]))
        # a rounding-level move of an entry near zero is large relative to
        # the entry; against the output's largest magnitude it is not
        overall = diff.max() / finite.max() if finite.size else np.inf
    rel = np.where(np.isnan(rel), np.inf, rel)
    if rel.max() == 0.0:  # equal values, other bits (-0.0, nan payloads)
        return "equal values, other bits"
    return (f"max relative difference {rel.max():.3g}, "
            f"{overall:.3g} of the largest magnitude")


def compare(path_a, path_b) -> list[tuple[str, str, str]]:
    """``(name, status, detail)`` per output, status ``equal``, ``moved``
    or ``missing``."""
    rows = []
    with np.load(path_a) as A, np.load(path_b) as B:
        for name in sorted(set(A.files) | set(B.files)):
            if name not in B.files or name not in A.files:
                side = "A" if name in A.files else "B"
                rows.append((name, "missing", f"only in {side}"))
                continue
            a, b = A[name], B[name]
            if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
                rows.append((name, "equal", ""))
            else:
                rows.append((name, "moved", _difference(a, b)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run", help="run the corpus and save its outputs")
    p_run.add_argument("--src", type=Path, required=True,
                       help="the source tree holding the kbflow package")
    p_run.add_argument("--out", type=Path, required=True, help=".npz to write")
    p_cmp = sub.add_parser("compare", help="compare two saved corpora")
    p_cmp.add_argument("a", type=Path)
    p_cmp.add_argument("b", type=Path)
    args = parser.parse_args(argv)

    if args.mode == "run":
        arrays = run_corpus(args.src)
        np.savez(args.out, **arrays)
        print(f"{len(arrays)} outputs written to {args.out}")
        return 0
    rows = compare(args.a, args.b)
    for name, status, detail in rows:
        print(f"{status:8s} {name}" + (f"  ({detail})" if detail else ""))
    counts = {s: sum(1 for _, status, _ in rows if status == s)
              for s in ("equal", "moved", "missing")}
    print(", ".join(f"{n} {s}" for s, n in counts.items()))
    return 0 if counts["equal"] == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
