"""Command-line surface: model checks, single runs, studies, scalar tables.

Exit codes: 0 success (including a run that ends in a recorded divergence),
2 invalid configuration/spec/model file or argument, or another package
error, 3 failed model rank conditions, 4 non-finite state in the exact
filter (a bug, not a model property) or during a study.  :func:`main` maps
the exceptions of every command to its exit code and one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import io, stats
from .ensemble import Inflation, law_level_run, run_enkf
from .errors import ConfigError, KBFlowError, NonFinite, SingularGramian
from .kalman import kalman_run, ricc_drift
from .model import (LinearGaussianModel, ScalarModel, check_controllability,
                    check_observability, gramians, load_model, log_norm,
                    solve_are, spectral_abscissa)
from .scalar import (Divergent, invariant_density, invariant_moment,
                     lyapunov_bounds, lyapunov_exponent, moment_threshold)
from .sde import Scheme, TimeGrid, _as_kappa

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RANK = 3
EXIT_NONFINITE = 4

_RUN_KEYS = {"model", "variant", "kappa", "N", "xi", "T", "grid", "seed",
             "scheme", "out"}
_GRID_KEYS = {"t0", "dt", "T_end"}
_VARIANTS = ("exact", "vanilla", "deterministic", "transport", "law")


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _load_json(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return doc


# ---------------------------------------------------------------------------
# model check
# ---------------------------------------------------------------------------

def cmd_model_check(args) -> int:
    try:
        model = load_model(args.model)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"invalid model file: {exc}") from exc
    d = model.d
    print(f"model: d={d}, d_y={model.d_y}")
    ctrl = check_controllability(model)
    obs = check_observability(model)
    print(f"controllability rank check (A, R^1/2): {'pass' if ctrl else 'FAIL'}")
    print(f"observability rank check (A, H):      {'pass' if obs else 'FAIL'}")
    gram_failure = None
    try:
        g = gramians(model, args.tau)
        with np.printoptions(precision=6, suppress=True):
            print(f"controllability Gramian C_tau at tau={args.tau}:\n{g.C_tau}")
            print(f"observability Gramian O_tau at tau={args.tau}:\n{g.O_tau}")
    except SingularGramian as exc:
        gram_failure = str(exc)
        print(f"Gramian at tau={args.tau}: SINGULAR ({exc})")
    if not (ctrl and obs) or gram_failure is not None:
        failed = [name for name, ok in
                  (("controllability", ctrl), ("observability", obs)) if not ok]
        if gram_failure is not None:
            failed.append(f"Gramian regularity ({gram_failure})")
        return _fail(f"rank condition failed: {', '.join(failed)}", EXIT_RANK)
    P_inf = solve_are(model).P
    closed = model.closed_loop(P_inf)
    with np.printoptions(precision=8, suppress=True):
        print(f"P_inf:\n{P_inf}")
    print(f"ARE residual (Frobenius): "
          f"{float(np.linalg.norm(ricc_drift(model, P_inf))):.3e}")
    print(f"Absc(A - P_inf S) = {spectral_abscissa(closed):.8f}")
    print(f"mu(A - P_inf S)   = {log_norm(closed):.8f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# single run
# ---------------------------------------------------------------------------

def _parse_run_config(doc: dict, args) -> dict:
    unknown = set(doc) - _RUN_KEYS
    if unknown:
        raise ConfigError(f"unknown RunConfig keys: {sorted(unknown)}")
    for key in ("model", "variant", "grid"):
        if key not in doc:
            raise ConfigError(f"RunConfig requires {key!r}")
    cfg = dict(doc)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    if args.scheme is not None:
        cfg["scheme"] = args.scheme
    if cfg.get("variant") not in _VARIANTS:
        raise ConfigError(f"variant must be one of {', '.join(_VARIANTS)}, "
                          f"got {cfg.get('variant')!r}")
    grid = cfg["grid"]
    if not isinstance(grid, dict) or set(grid) - _GRID_KEYS or "dt" not in grid \
            or "T_end" not in grid:
        raise ConfigError("grid must be an object with keys t0 (optional), "
                          "dt, T_end")
    if args.dt is not None:
        grid = {**grid, "dt": args.dt}
        cfg["grid"] = grid
    t0 = float(grid.get("t0", 0.0))
    cfg["_grid"] = TimeGrid.from_horizon(t0, float(grid["T_end"]) - t0,
                                         float(grid["dt"]))
    model_path = Path(cfg["model"])
    if not model_path.exists():
        raise ConfigError(f"model file not found: {model_path}")
    cfg["_model"] = load_model(model_path)
    variant = cfg["variant"]
    if variant == "exact":
        for key in ("N", "kappa", "xi", "T"):
            if key in doc:
                raise ConfigError(f"{key!r} does not apply to the exact filter")
    else:
        if "N" not in cfg:
            raise ConfigError(f"variant {variant!r} requires N")
        cfg["N"] = stats._integer("N", cfg["N"])
        if cfg["N"] < 1:
            raise ConfigError(f"N must be >= 1, got {cfg['N']}")
    if variant == "law":
        try:
            _as_kappa("kappa", cfg.get("kappa"))
        except ValueError:
            raise ConfigError("law mode requires kappa in {0, 1}") from None
    elif "kappa" in doc:
        raise ConfigError("kappa applies to law mode only")
    if "T" in doc:
        t_path = Path(doc["T"])
        if not t_path.exists():
            raise ConfigError(f"inflation matrix file not found: {t_path}")
        t_doc = _load_json(t_path)
        if set(t_doc) != {"T"}:
            raise ConfigError("inflation matrix file must hold exactly {'T': ...}")
        T = np.asarray(t_doc["T"], dtype=float)
        d = cfg["_model"].d
        if T.shape != (d, d):
            raise ConfigError(f"inflation matrix T has shape {T.shape}, the model needs {(d, d)}")
        cfg["_T"] = T
    if "scheme" in cfg and cfg["scheme"] is not None:
        names = {"euler": Scheme.EULER_MARUYAMA,
                 "euler_maruyama": Scheme.EULER_MARUYAMA,
                 "tamed": Scheme.TAMED_EULER, "tamed_euler": Scheme.TAMED_EULER}
        if cfg["scheme"] not in names:
            raise ConfigError(f"unknown scheme {cfg['scheme']!r}; "
                              f"expected one of {sorted(names)}")
        cfg["_scheme"] = names[cfg["scheme"]]
    seed = cfg.setdefault("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    cfg.setdefault("xi", 0.0)
    if not (float(cfg["xi"]) >= 0):
        raise ConfigError(f"xi must be >= 0, got {cfg['xi']}")
    return cfg


def cmd_run(args) -> int:
    cfg = _parse_run_config(_load_json(args.config), args)
    model: LinearGaussianModel = cfg["_model"]
    grid: TimeGrid = cfg["_grid"]
    d = model.d
    variant = cfg["variant"]
    seed = int(cfg["seed"])
    out = Path(cfg.get("out") or ".")
    echo = {k: v for k, v in cfg.items() if not k.startswith("_")}

    inflation = None
    if float(cfg["xi"]) > 0 or "_T" in cfg:
        inflation = Inflation(xi=float(cfg["xi"]), T=cfg.get("_T"))
    if variant == "exact":
        record = kalman_run(model, x0=np.zeros(d), Q=np.eye(d),
                            truth_seed=seed, grid=grid)
    elif variant == "law":
        record = law_level_run(model, float(cfg["kappa"]), Q=np.eye(d),
                               x0=np.zeros(d), grid=grid, N=int(cfg["N"]),
                               inflation=inflation,
                               scheme=cfg.get("_scheme"), truth_seed=seed)
    else:
        record = run_enkf(model, variant, int(cfg["N"]), grid, seeds=seed,
                          inflation=inflation)
    io.write_trajectory_csv(out / "trajectory.csv", record.t, record.mean,
                            record.cov, record.error,
                            extras=io.trajectory_extras(record))
    last = -1 if record.diverged_at is None else \
        max(0, int(np.searchsorted(record.t, record.diverged_at)) - 1)
    summary = {"config_echo": echo, "variant": record.variant,
               "N": record.N, "xi": record.xi, "kappa": record.kappa,
               "diverged_at": record.diverged_at,
               "final": {"t": float(record.t[last]),
                         "mean": record.mean[last], "cov": record.cov[last],
                         "error": record.error[last],
                         "mu_closed_loop": float(record.mu_closed_loop[last])}}
    io.write_summary_json(out / "summary.json", summary)
    note = "" if record.diverged_at is None \
        else f" (diverged at t={record.diverged_at})"
    print(f"{variant} run complete{note}: wrote {out / 'trajectory.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

_GNUPLOT = {
    "fig1_thresholds": "plot 'fig1_thresholds.csv' using 1:2 with steps "
                       "title 'moment threshold N(n)'",
    "fig2_densities": "plot for [c in 'density_vanilla density_deterministic "
                      "empirical_vanilla empirical_deterministic'] "
                      "'fig2_densities.csv' using 'x':c with lines title c",
    "fig3_riccati_paths": "plot 'fig3_riccati_paths.csv' using 't':'phi' "
                          "with lines lw 2 title 'phi', for [i=3:8] '' "
                          "using 1:i with lines notitle",
    "fig4_moments_flow": "plot for [i=2:10] 'fig4_moments_flow.csv' "
                         "using 1:i with lines title sprintf('m%d', i-1)",
}


def cmd_study(args) -> int:
    doc = _load_json(args.spec)
    if args.out is not None:
        doc["out"] = args.out
    if args.seed is not None:
        doc["master_seed"] = args.seed
    spec = stats.StudySpec.from_dict(doc)
    summary = stats.run_study(spec, workers=args.workers)
    for row in summary.per_point:
        bits = [f"{k}={row[k]}" for k in ("N", "t", "mean", "ks", "diverged")
                if row.get(k) is not None]
        print("  " + ", ".join(bits))
    if summary.fits:
        print(f"fits: {summary.fits}")
    if spec.out is not None:
        written = sorted(p.name for p in Path(spec.out).iterdir())
        print(f"wrote {', '.join(written)} in {spec.out}")
        if args.gnuplot:
            lines = ["set datafile separator ','", "set key outside"]
            for name, cmd in _GNUPLOT.items():
                if (Path(spec.out) / f"{name}.csv").exists():
                    lines += [f"# {name}", cmd, "pause -1"]
            script = Path(spec.out) / "plot.gp"
            script.write_text("\n".join(lines) + "\n")
            print(f"wrote {script}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# scalar tables
# ---------------------------------------------------------------------------

def _scalar_model(args) -> ScalarModel:
    return ScalarModel(A=args.A, R=args.R, S=args.S)


def _quantile(dens, q: float) -> float:
    lo, hi = 1e-12, 1.0
    while dens.cdf(hi) < q:
        hi *= 2.0
        if hi > 1e12:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dens.cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cmd_scalar_density(args) -> int:
    if args.points < 2:
        raise ConfigError(f"--points must be >= 2, got {args.points}")
    dens = invariant_density(_scalar_model(args), args.kappa, args.N)
    lo = args.x_min if args.x_min is not None else _quantile(dens, 1e-4)
    hi = args.x_max if args.x_max is not None else _quantile(dens, 1.0 - 1e-4)
    if not hi > lo:
        return _fail(f"empty x range [{lo}, {hi}]", EXIT_CONFIG)
    x = np.linspace(lo, hi, args.points)
    cols = {"x": x, "density": dens.pdf(x)}
    if args.out:
        io.write_columns_csv(args.out, cols)
        print(f"wrote {args.out}")
    else:
        print("x,density")
        for xi_, di in zip(cols["x"], cols["density"]):
            print(f"{float(xi_)!r},{float(di)!r}")
    return EXIT_OK


def cmd_scalar_moments(args) -> int:
    m = _scalar_model(args)
    ns = np.arange(1, args.n_max + 1)
    vals = [invariant_moment(m, args.kappa, args.N, int(n)) for n in ns]
    if args.out:
        io.write_columns_csv(args.out, {"n": ns.astype(float),
                                        "moment": np.array(vals)})
        print(f"wrote {args.out}")
    print("n,moment")
    for n, v in zip(ns, vals):
        print(f"{n},{'Divergent' if v == Divergent else repr(v)}")
    return EXIT_OK


def cmd_scalar_lyapunov(args) -> int:
    m = _scalar_model(args)
    lam = lyapunov_exponent(m, args.kappa, args.N)
    print(f"lyapunov_exponent = {lam!r}")
    if args.N > 4:
        lo, hi = lyapunov_bounds(m, args.N, args.kappa)
        print(f"bounds = [{lo!r}, {hi!r}]")
        print(f"inside = {lo <= lam <= hi}")
    if args.out:
        cols = {"lambda": np.array([lam])}
        if args.N > 4:
            cols["bound_lo"], cols["bound_hi"] = np.array([lo]), np.array([hi])
        io.write_columns_csv(args.out, cols)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_scalar_threshold(args) -> int:
    ns = list(range(1, args.n_max + 1))
    ths = [moment_threshold(n) for n in ns]
    if args.out:
        io.write_columns_csv(args.out, {"n": np.array(ns, dtype=float),
                                        "threshold_N": np.array(ths, dtype=float)})
        print(f"wrote {args.out}")
    print("n,threshold_N")
    for n, th in zip(ns, ths):
        print(f"{n},{th}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_scalar_common(p):
    p.add_argument("--A", type=float, required=True, help="drift coefficient")
    p.add_argument("--R", type=float, required=True, help="signal noise rate")
    p.add_argument("--S", type=float, required=True, help="information rate H'R1^-1 H")
    p.add_argument("--out", type=str, default=None, help="CSV output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbflow",
        description="Kalman-Bucy and ensemble Kalman-Bucy filtering toolkit")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress to standard error (-v: study layout, "
                        "-vv: also each chunk's time)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="model file utilities")
    model_sub = p_model.add_subparsers(dest="model_command", required=True)
    p_check = model_sub.add_parser("check", help="validate a model file and "
                                   "print regularity diagnostics")
    p_check.add_argument("model", help="model JSON path")
    p_check.add_argument("--tau", type=float, default=1.0,
                         help="Gramian horizon (default 1.0)")
    p_check.set_defaults(func=cmd_model_check)

    p_run = sub.add_parser("run", help="run one filter (exact, particle, or "
                           "law-level) from a JSON config")
    p_run.add_argument("config", help="RunConfig JSON path")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", type=str, default=None)
    p_run.add_argument("--scheme", type=str, default=None,
                       help="euler | tamed (law mode)")
    p_run.add_argument("--dt", type=float, default=None)
    p_run.set_defaults(func=cmd_run)

    p_study = sub.add_parser("study", help="run a Monte Carlo study from a "
                             "StudySpec JSON")
    p_study.add_argument("spec", help="StudySpec JSON path")
    p_study.add_argument("--workers", type=int, default=None,
                         help="worker pool size (default: KBFLOW_WORKERS, else the "
                         "usable CPUs; at most the study's chunk count)")
    p_study.add_argument("--out", type=str, default=None)
    p_study.add_argument("--seed", type=int, default=None)
    p_study.add_argument("--gnuplot", action="store_true",
                         help="also emit a gnuplot script for the figure CSVs")
    p_study.set_defaults(func=cmd_study)

    p_scalar = sub.add_parser("scalar", help="closed-form scalar tables")
    scalar_sub = p_scalar.add_subparsers(dest="scalar_command", required=True)

    p_dens = scalar_sub.add_parser("density", help="invariant density table")
    _add_scalar_common(p_dens)
    p_dens.add_argument("--kappa", type=float, required=True, choices=[0.0, 1.0])
    p_dens.add_argument("--N", type=int, required=True)
    p_dens.add_argument("--x-min", type=float, default=None)
    p_dens.add_argument("--x-max", type=float, default=None)
    p_dens.add_argument("--points", type=int, default=400)
    p_dens.set_defaults(func=cmd_scalar_density)

    p_mom = scalar_sub.add_parser("moments", help="invariant moments table "
                                  "(Divergent where nonexistent)")
    _add_scalar_common(p_mom)
    p_mom.add_argument("--kappa", type=float, required=True, choices=[0.0, 1.0])
    p_mom.add_argument("--N", type=int, required=True)
    p_mom.add_argument("--n-max", type=int, default=9)
    p_mom.set_defaults(func=cmd_scalar_moments)

    p_lyap = scalar_sub.add_parser("lyapunov", help="Lyapunov exponent by "
                                   "quadrature, with N>4 bounds")
    _add_scalar_common(p_lyap)
    p_lyap.add_argument("--kappa", type=float, required=True, choices=[0.0, 1.0])
    p_lyap.add_argument("--N", type=int, required=True)
    p_lyap.set_defaults(func=cmd_scalar_lyapunov)

    p_th = scalar_sub.add_parser("threshold", help="minimal N for the n-th "
                                 "stationary moment to exist (vanilla)")
    p_th.add_argument("--n-max", type=int, default=10)
    p_th.add_argument("--out", type=str, default=None)
    p_th.set_defaults(func=cmd_scalar_threshold)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(format="%(asctime)s %(name)s %(levelname)s: %(message)s")
        logging.getLogger("kbflow").setLevel(
            logging.INFO if args.verbose == 1 else logging.DEBUG)
    try:
        return args.func(args)
    except NonFinite as exc:
        return _fail(str(exc), EXIT_NONFINITE)
    except (KBFlowError, ValueError, OSError) as exc:
        return _fail(str(exc), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
