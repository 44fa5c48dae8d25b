"""Span tracing for the traced benchmark run.

The tracer rebinds kbflow entry points at the places their callers look
them up (module attributes and class attributes), so no file under ``src/``
changes.  Three kinds of boundary are recorded:

* spans: name, layer, start, end and parent span, for calls that happen a
  few thousand times per pass at most;
* counters: call count, work count and summed time, for the high-frequency
  boundaries ``NoiseStream.normals``, ``_ode.rk4_step`` and
  ``_ode.adaptive_rk4``;
* engine records: one per batch-engine call, with the ``sde`` work done
  inside it.  Pool workers are forked from the traced process, so they
  inherit the wrappers; a worker appends its records to a file in
  ``spool_dir`` and the parent collects them after each pass.

Self time of a span is its duration minus its child spans and minus the
counter time (``sde`` draws, adaptive ODE solves) spent directly inside it.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

_clock = time.perf_counter

#: Pool size used by every study in the benchmark; the idle share is
#: measured against this many workers.
POOL_WORKERS = 2

ENGINE_KINDS = {
    "particle_cov_paths_1d": "particle_1d",
    "particle_cov_paths_nd": "particle_nd",
    "law_cov_paths_1d": "law_1d",
    "law_cov_paths_nd": "law_nd",
}


class Span:
    __slots__ = ("name", "layer", "t0", "t1", "child", "counter_child",
                 "info", "ok", "parent")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.child = 0.0
        self.counter_child = 0.0
        self.info = None
        self.ok = True
        self.t0 = self.t1 = 0.0

    @property
    def dur(self):
        return self.t1 - self.t0

    @property
    def self_time(self):
        return self.dur - self.child - self.counter_child

    def within(self, name):
        node = self.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False


class Tracer:
    """Installs and removes the wrappers, and turns what they recorded into
    the per-layer metrics of one pass."""

    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        self.main_pid = os.getpid()
        self._saved = []
        self.spans, self.stack, self.engine_records, self.ops = [], [], [], []
        self.counters = defaultdict(float)

    # -- recording -------------------------------------------------------

    def reset(self):
        # cleared in place: installed wrappers hold references to these
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()
        self.engine_records.clear()
        self.ops.clear()

    def _in_worker(self):
        return os.getpid() != self.main_pid

    def _open(self, name, layer):
        parent = self.stack[-1] if self.stack else None
        node = Span(name, layer, parent)
        self.stack.append(node)
        node.t0 = _clock()
        return node

    def _close(self, node):
        node.t1 = _clock()
        self.stack.pop()
        if node.parent is not None:
            node.parent.child += node.dur
        self.spans.append(node)

    def span_wrapper(self, fn, name, layer, meta=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            node = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                node.ok = False
                node.info = {"raised": type(exc).__name__}
                raise
            finally:
                tracer._close(node)
            if meta is not None:
                node.info = meta(args, kwargs, result)
            return result

        return wrapper

    def counter_wrapper(self, fn, key, size=None, timed=True):
        """Count calls (and work, via ``size``) without one span per call;
        timed counters charge their time to the enclosing span."""
        tracer = self
        counters = self.counters

        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[key + ".calls"] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def timed_wrapper(*args, **kwargs):
            t0 = _clock()
            result = fn(*args, **kwargs)
            dt = _clock() - t0
            counters[key + ".calls"] += 1
            counters[key + ".s"] += dt
            if size is not None:
                counters[key + ".work"] += size(result)
            if tracer.stack:
                tracer.stack[-1].counter_child += dt
            return result

        return timed_wrapper

    def engine_wrapper(self, fn, kind):
        tracer = self
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = (counters["sde.normals.work"], counters["sde.normals.calls"],
                      counters["sde.normals.s"])
            grid = kwargs.get("grid")
            in_worker = tracer._in_worker()
            node = None if in_worker else tracer._open("engines." + kind, "engines")
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                if node is not None:
                    tracer._close(node)
            rec = {
                "kind": kind, "t0": t0, "t1": t1, "pid": os.getpid(),
                "trials": int(kwargs["trials"]), "steps": int(grid.steps),
                "particles": int(kwargs["N"]) + 1,
                "diverged": int((result["diverged_step"] >= 0).sum()),
                "sde_work": counters["sde.normals.work"] - before[0],
                "sde_calls": counters["sde.normals.calls"] - before[1],
                "sde_s": counters["sde.normals.s"] - before[2],
                "in_map": in_worker or (node is not None and node.within("stats._map_chunks")),
            }
            if in_worker:
                path = os.path.join(tracer.spool_dir, f"engine-{os.getpid()}.jsonl")
                with open(path, "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
            else:
                tracer.engine_records.append(rec)
            return result

        return wrapper

    def collect_worker_records(self):
        """Move the records that pool workers spooled to disk into memory."""
        out = []
        for name in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, name)
            with open(path) as fh:
                out.extend(json.loads(line) for line in fh if line.strip())
            os.remove(path)
        return out

    # -- installation ----------------------------------------------------

    def _rebind(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_everywhere(self, owners, attr, make):
        """Rebind ``attr`` in every module that imported it, with one
        wrapper around the defining module's object."""
        original = getattr(owners[0], attr)
        wrapped = make(original)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the object "
                                   f"defined in {owners[0].__name__}")
            self._rebind(owner, attr, wrapped)

    def install(self):
        from kbflow import (_engines, _ode, cli, ensemble, io, kalman, model,
                            scalar, sde, stats)

        os.makedirs(self.spool_dir, exist_ok=True)
        self.main_pid = os.getpid()
        span = self.span_wrapper
        ew = self._wrap_everywhere

        # sde: the Gaussian source behind every simulator
        self._rebind(sde.NoiseStream, "normals", self.counter_wrapper(
            sde.NoiseStream.normals, "sde.normals", size=lambda out: out.size))

        # _ode: counts only (the solver iterations), plus the adaptive solves'
        # time so that flows' self time excludes the integrator
        self._rebind(_ode, "rk4_step", self.counter_wrapper(
            _ode.rk4_step, "ode.rk4_step", timed=False))
        self._rebind(_ode, "adaptive_rk4", self.counter_wrapper(
            _ode.adaptive_rk4, "ode.adaptive_rk4"))

        # _engines: one record per chunk call, in the parent or a worker
        for fn_name, kind in ENGINE_KINDS.items():
            self._rebind(_engines, fn_name,
                         self.engine_wrapper(getattr(_engines, fn_name), kind))

        # stats
        self._rebind(stats, "run_study", span(stats.run_study, "stats.run_study", "stats"))
        self._rebind(stats, "_map_chunks", span(
            stats._map_chunks, "stats._map_chunks", "stats",
            meta=lambda a, kw, r: {"chunks": -(-a[1] // a[2])}))
        self._rebind(stats, "stationary_covariance_samples", span(
            stats.stationary_covariance_samples, "stats.stationary_covariance_samples",
            "stats"))
        for name in ("ks_distance", "hill_tail_index", "slope_fit",
                     "decorrelation_stride"):
            self._rebind(stats, name, span(getattr(stats, name),
                                           "stats.estimator." + name, "stats"))
        self._rebind(stats.MomentAccumulator, "add", span(
            stats.MomentAccumulator.add, "stats.estimator.MomentAccumulator", "stats"))

        # kalman
        ew([kalman, stats], "riccati_flow", lambda f: span(
            f, "kalman.riccati_flow", "kalman",
            meta=lambda a, kw, r: {"nodes": len(r)}))
        self._rebind(kalman, "semigroup_E", span(kalman.semigroup_E,
                                                 "kalman.semigroup_E", "kalman"))
        self._rebind(kalman, "check_riccati_sandwich", span(
            kalman.check_riccati_sandwich, "kalman.check_riccati_sandwich", "kalman"))
        ew([kalman, cli], "kalman_run", lambda f: span(
            f, "kalman.kalman_run", "kalman",
            meta=lambda a, kw, r: {"steps": len(r) - 1}))

        # model
        ew([model, stats, kalman, cli], "solve_are",
           lambda f: span(f, "model.solve_are", "model"))
        ew([model, kalman, cli], "gramians",
           lambda f: span(f, "model.gramians", "model"))
        ew([model, cli], "load_model", lambda f: span(f, "model.load_model", "model"))
        self._rebind(model, "save_model", span(model.save_model, "model.save_model",
                                               "model"))

        # ensemble
        def enkf_meta(a, kw, r):
            infl = kw.get("inflation")
            tag = r.variant + ("_inflated" if infl is not None and infl.active else "")
            return {"tag": tag, "steps": len(r.t) - 1,
                    "diverged": r.diverged_at is not None}

        ew([ensemble, cli], "run_enkf", lambda f: span(
            f, "ensemble.run_enkf", "ensemble", meta=enkf_meta))
        ew([ensemble, cli], "law_level_run", lambda f: span(
            f, "ensemble.law_level_run", "ensemble",
            meta=lambda a, kw, r: {"steps": len(r.t) - 1,
                                   "diverged": r.diverged_at is not None}))
        self._rebind(ensemble, "stochastic_semigroup", span(
            ensemble.stochastic_semigroup, "ensemble.stochastic_semigroup", "ensemble"))
        ew([ensemble, stats], "inflated_riccati_flow", lambda f: span(
            f, "ensemble.inflated_riccati_flow", "ensemble",
            meta=lambda a, kw, r: {"nodes": len(r)}))

        # scalar
        density = scalar.InvariantDensity
        self._rebind(density, "__init__", span(density.__init__,
                                               "scalar.invariant_density_build", "scalar"))
        for name in ("moment", "cdf", "pdf"):
            self._rebind(density, name, span(getattr(density, name),
                                             "scalar.density." + name, "scalar"))
        ew([scalar, stats], "lyapunov_exponent", lambda f: span(
            f, "scalar.lyapunov_exponent", "scalar"))
        ew([scalar, stats], "clt_variance_oracle", lambda f: span(
            f, "scalar.clt_variance_oracle", "scalar"))
        ew([scalar, stats, cli], "invariant_density", lambda f: span(
            f, "scalar.invariant_density", "scalar"))

        # io: writers return the path they wrote
        def written(a, kw, r):
            return {"bytes": os.path.getsize(r)}

        self._rebind(io, "write_trajectory_csv", span(
            io.write_trajectory_csv, "io.write_trajectory_csv", "io",
            meta=lambda a, kw, r: {"bytes": os.path.getsize(r), "rows": len(a[1])}))
        for name in ("write_summary_json", "write_per_point_csv", "write_columns_csv"):
            self._rebind(io, name, span(getattr(io, name), "io." + name, "io",
                                        meta=written))
        self._rebind(io, "load_trajectory_csv", span(
            io.load_trajectory_csv, "io.load_trajectory_csv", "io",
            meta=lambda a, kw, r: {"rows": len(r["t"])}))
        for name in ("load_summary_json", "load_per_point_csv", "load_columns_csv"):
            self._rebind(io, name, span(getattr(io, name), "io." + name, "io"))

        # cli
        self._rebind(cli, "main", span(cli.main, "cli.main", "cli"))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-pass summary ------------------------------------------------

    def op_window(self, name, t0, t1):
        self.ops.append((name, t0, t1))

    def pass_metrics(self, wall):
        """Per-layer metrics of one traced pass of duration ``wall``."""
        worker = self.collect_worker_records()
        engines = self.engine_records + worker
        c = self.counters
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)

        def total(name, key=None):
            spans = by_name.get(name, [])
            return sum(s.dur for s in spans if key is None or key(s))

        def per(name, unit_key, scale, key=None):
            spans = [s for s in by_name.get(name, []) if key is None or key(s)]
            units = sum(s.info[unit_key] for s in spans)
            return sum(s.dur for s in spans) / units * scale if units else 0.0

        def mean_ms(name):
            spans = by_name.get(name, [])
            return 1e3 * sum(s.dur for s in spans) / len(spans) if spans else 0.0

        layer_self = defaultdict(float)
        for s in self.spans:
            layer_self[s.layer] += s.self_time
        # counter time inside parent spans belongs to its own layer
        parent_sde = c["sde.normals.s"]
        layer_self["sde"] += parent_sde
        layer_self["_ode"] += c["ode.adaptive_rk4.s"]
        top = sum(s.dur for s in self.spans if s.parent is None)
        # counters that ran outside any span are benchmark-side draws/solves
        unattributed = max(0.0, wall - top)

        m = {}
        # sde: parent counters plus the draws made inside worker engine calls
        work_w = sum(r["sde_work"] for r in worker)
        calls_w = sum(r["sde_calls"] for r in worker)
        s_w = sum(r["sde_s"] for r in worker)
        normals = c["sde.normals.work"] + work_w
        normals_s = c["sde.normals.s"] + s_w
        m["sde.normals"] = (normals, "count")
        m["sde.normals_calls"] = (c["sde.normals.calls"] + calls_w, "count")
        m["sde.normals_s"] = (normals_s, "s")
        m["sde.ns_per_normal"] = (1e9 * normals_s / normals if normals else 0.0, "ns")

        busy = sum(r["t1"] - r["t0"] for r in engines)
        sde_in = sum(r["sde_s"] for r in engines)
        m["engines.calls"] = (len(engines), "count")
        m["engines.trial_steps"] = (sum(r["trials"] * r["steps"] for r in engines), "count")
        m["engines.diverged_trials"] = (sum(r["diverged"] for r in engines), "count")
        m["engines.self_s"] = (busy - sde_in, "s")
        for kind in ("particle_1d", "particle_nd", "law_1d"):
            rs = [r for r in engines if r["kind"] == kind]
            steps = sum(r["steps"] for r in rs)
            m[f"engines.{kind}.us_per_step"] = (
                1e6 * sum(r["t1"] - r["t0"] for r in rs) / steps if steps else 0.0, "us")
        m["engines.rng_share"] = (sde_in / busy if busy else 0.0, "ratio")

        map_s = total("stats._map_chunks")
        chunk_busy = sum(r["t1"] - r["t0"] for r in engines if r["in_map"])
        stats_self = sum(s.self_time for s in self.spans
                         if s.layer == "stats" and s.name != "stats._map_chunks")
        m["stats.run_study_s"] = (total("stats.run_study"), "s")
        m["stats.map_chunks_s"] = (map_s, "s")
        m["stats.self_s"] = (stats_self, "s")
        m["stats.estimators_s"] = (sum(s.dur for s in self.spans
                                       if s.name.startswith("stats.estimator.")), "s")
        m["stats.chunks"] = (sum(s.info["chunks"] for s in by_name.get("stats._map_chunks", [])),
                             "count")
        m["stats.worker_idle_share"] = (
            1.0 - chunk_busy / (POOL_WORKERS * map_s) if map_s else 0.0, "ratio")

        m["kalman.riccati_flow.us_per_node"] = (per("kalman.riccati_flow", "nodes", 1e6), "us")
        m["kalman.riccati_flow_s"] = (total("kalman.riccati_flow"), "s")
        m["kalman.semigroup_E_s"] = (total("kalman.semigroup_E"), "s")
        m["kalman.check_riccati_sandwich_s"] = (total("kalman.check_riccati_sandwich"), "s")
        runs = by_name.get("kalman.kalman_run", [])
        run_steps = sum(s.info["steps"] for s in runs)
        m["kalman.kalman_run.us_per_step"] = (
            1e6 * sum(s.dur - _child_total(self.spans, s, "kalman.riccati_flow")
                      for s in runs) / run_steps if run_steps else 0.0, "us")

        m["ode.rk4_steps"] = (c["ode.rk4_step.calls"], "count")
        m["ode.adaptive_calls"] = (c["ode.adaptive_rk4.calls"], "count")

        m["model.solve_are_s"] = (total("model.solve_are", lambda s: s.ok), "s")
        m["model.solve_are_reject_s"] = (total("model.solve_are", lambda s: not s.ok), "s")
        m["model.gramians_s"] = (total("model.gramians"), "s")

        for tag in ("vanilla", "deterministic", "transport"):
            m[f"ensemble.run_enkf_{tag}.us_per_step"] = (per(
                "ensemble.run_enkf", "steps", 1e6,
                key=lambda s, tag=tag: s.info["tag"] == tag), "us")
        m["ensemble.run_enkf_inflated.us_per_step"] = (per(
            "ensemble.run_enkf", "steps", 1e6,
            key=lambda s: s.info["tag"].endswith("_inflated")), "us")
        m["ensemble.law_level_run.us_per_step"] = (per("ensemble.law_level_run", "steps",
                                                        1e6), "us")
        m["ensemble.stochastic_semigroup_s"] = (total("ensemble.stochastic_semigroup"), "s")
        m["ensemble.inflated_riccati_flow.us_per_node"] = (per(
            "ensemble.inflated_riccati_flow", "nodes", 1e6), "us")
        m["ensemble.diverged_runs"] = (sum(
            1 for n in ("ensemble.run_enkf", "ensemble.law_level_run")
            for s in by_name.get(n, []) if s.info["diverged"]), "count")

        m["scalar.invariant_density_ms"] = (mean_ms("scalar.invariant_density_build"), "ms")
        m["scalar.moment_ms"] = (mean_ms("scalar.density.moment"), "ms")
        m["scalar.lyapunov_exponent_ms"] = (mean_ms("scalar.lyapunov_exponent"), "ms")
        m["scalar.clt_variance_oracle_ms"] = (mean_ms("scalar.clt_variance_oracle"), "ms")

        m["io.write_trajectory_csv.us_per_row"] = (per("io.write_trajectory_csv", "rows",
                                                       1e6), "us")
        m["io.load_trajectory_csv.us_per_row"] = (per("io.load_trajectory_csv", "rows",
                                                      1e6), "us")
        writes = [s for s in self.spans if s.name.startswith("io.write_")]
        m["io.write_s"] = (sum(s.dur for s in writes), "s")
        m["io.bytes_written"] = (sum(s.info["bytes"] for s in writes), "B")

        m["cli.main_s"] = (sum(s.self_time for s in by_name.get("cli.main", [])), "s")
        m["trace.unattributed_share"] = (unattributed / wall, "ratio")

        shapes = defaultdict(lambda: [0.0, 0])
        for r in engines:
            key = f"{r['kind']} B={r['trials']} M={r['particles']}"
            shapes[key][0] += r["t1"] - r["t0"]
            shapes[key][1] += r["steps"]
        detail = {
            "engine_us_per_step": {k: 1e6 * t / n for k, (t, n) in sorted(shapes.items())},
            "layer_self_s": dict(sorted(layer_self.items())),
            "unattributed_s": unattributed,
            "worker_engine_calls": len(worker),
            "unattributed_by_op": self._unattributed_by_op(),
        }
        return m, detail

    def _unattributed_by_op(self):
        out = {}
        tops = [s for s in self.spans if s.parent is None]
        for name, t0, t1 in self.ops:
            covered = sum(s.dur for s in tops if s.t0 >= t0 and s.t1 <= t1)
            out[name] = (t1 - t0) - covered
        return out


def _child_total(spans, parent, name):
    return sum(s.dur for s in spans if s.parent is parent and s.name == name)

