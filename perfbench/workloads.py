"""The four benchmark workloads: inputs from the seed, operations, oracles.

Every operation goes through kbflow's public entry points and returns
``(digest, detail)``: a digest of its output (the same seed must give the
same digest on every pass) and a short description of the check it passed;
it raises :class:`CheckFailed` when the output fails its oracle.
Statistical margins are at least 5 standard errors (or the Kolmogorov
1 - 1e-6 quantile), so a correct program misses them with negligible
probability on any seed; deterministic checks use the acceptance tests'
tolerances, scaled where the workload's step differs.

Entry points are looked up on their module at call time, so the traced run
sees the calls through its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import math
import shutil
import warnings
from pathlib import Path

import numpy as np

import kbflow
import kbflow._engines
import kbflow.cli
from kbflow import sde
from kbflow.model import LinearGaussianModel, ScalarModel

# Sizes.  Batch shapes (trials per chunk, particles, d, dt) follow the
# workload definitions; horizons are scaled so that one pass of a study
# workload takes a few seconds on a 2-core machine.
WIDE_STEPS = 250          # study_wide bias / fluctuation horizon (dt 1e-3)
CLT_STEPS = 1000          # study_wide CLT horizon (dt 1e-3), test 06's
CONTRACTION_STEPS = 2500  # study_long semigroup_contraction (dt 1e-4)
LYAPUNOV_STEPS = 12500    # study_long lyapunov (dt 1e-4), burn-in 0.25
# study_long invariant_ks pooling window (burn-in 0.15): with 1000 records
# per replica the decorrelation stride is at most 256 records, so each
# variant pools at least 1000 samples, as ks_distance requires
KS_HORIZON = 1.0
FILTER_STEPS = 2000       # filter_runs (dt 1e-3)
FILTER_N = 50
FLOW4_NODES = 4000        # exact_theory d=4 flows
INFL_STEPS = 1000         # exact_theory inflation ordering (dt 2e-3)

POOL = ["--workers", "2"]
# Kolmogorov distribution: P(sqrt(n) D_n > 2.69) ~ 2 exp(-2 * 2.69^2) = 1e-6
KS_QUANTILE = 2.69


class CheckFailed(Exception):
    """An operation's output failed its oracle."""


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _rng(seed, salt):
    return np.random.default_rng([int(seed), salt])


def _master_seed(rng):
    return int(rng.integers(0, 2 ** 31 - 1))


def random_model(d, rng, stabilize=0.0):
    """Generic random model (controllable and observable with probability 1);
    ``stabilize`` shifts the drift spectrum left."""
    A = rng.normal(size=(d, d)) / np.sqrt(d) - stabilize * np.eye(d)
    H = rng.normal(size=(d, d)) / np.sqrt(d)
    G = rng.normal(size=(d, d)) / np.sqrt(d)
    R = G @ G.T + 0.5 * np.eye(d)
    G1 = rng.normal(size=(d, d)) / np.sqrt(d)
    R1 = G1 @ G1.T + 0.5 * np.eye(d)
    return LinearGaussianModel(A, H, R, R1)


def random_psd(d, rng, scale=1.0):
    G = rng.normal(size=(d, d))
    return scale * (G @ G.T) / d


def scalar_lg(A):
    return ScalarModel(A=A, R=1.0, S=1.0).to_model()


def digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, bytes):
            h.update(p)
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def digest_dir(path):
    return digest(*[f.name.encode() + f.read_bytes()
                    for f in sorted(Path(path).iterdir())])


def require(cond, detail):
    if not cond:
        raise CheckFailed(detail)
    return detail


def ricc_residual(A, S, R, P):
    """A P + P A' - P S P + R, from the model matrices (independent of kbflow)."""
    return A @ P + P @ np.swapaxes(A, -1, -2) - P @ S @ P + R


def ode_residual(P, dt, drift):
    """Largest gap between a path's fourth-order central difference and its
    drift, relative to 1 + the path's largest norm (interior nodes).

    The adaptive solver's 1e-8 error budget, differenced, leaves gaps up to
    ~1e-6; a wrong drift term leaves gaps of order 0.1.
    """
    dP = (P[:-4] - 8.0 * P[1:-3] + 8.0 * P[3:-1] - P[4:]) / (12.0 * dt)
    gap = np.linalg.norm(dP - drift(P[2:-2]), axis=(1, 2))
    return float(np.max(gap)) / (1.0 + float(np.max(np.linalg.norm(P, axis=(1, 2)))))


def scalar_phi(A, R, S, Q, t):
    """Closed-form scalar Riccati flow (Moebius form)."""
    lam = math.sqrt(A * A + R * S)
    rp, rm = (A + lam) / S, (A - lam) / S
    w = (Q - rp) / (Q - rm) * np.exp(-2.0 * lam * np.asarray(t))
    return (rp - rm * w) / (1.0 - w)


def run_cli(argv):
    with contextlib.redirect_stdout(_stdio.StringIO()), \
            contextlib.redirect_stderr(_stdio.StringIO()) as err:
        rc = kbflow.cli.main(argv)
    require(rc == 0, f"kbflow {argv[0]} exited {rc}: {err.getvalue().strip()}")


class Workload:
    """Inputs live in ``../<name>/`` and outputs in ``<name>/``, relative to
    the working directory of the process running the operations, so that
    concurrent copies of a pass (each in its own directory) write the same
    bytes to different files."""

    name = ""
    #: concurrent copies of a pass: 1 for workloads that run their own pool of
    #: two workers, 2 for single-process ones, so that both cores stay busy
    copies = 2

    def __init__(self, seed):
        self.seed = int(seed)
        self.inputs = Path("..") / self.name
        if self.inputs.exists():
            shutil.rmtree(self.inputs)
        self.inputs.mkdir(parents=True)
        self.make_inputs()

    def out(self, name):
        """A fresh output path ``<workload>/<name>`` in the working directory."""
        path = Path(self.name) / name
        if path.is_dir():
            shutil.rmtree(path)
        path.unlink(missing_ok=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def make_inputs(self):
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError

    def ops(self):
        """List of (name, callable) run in order on every pass."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# studies through the CLI
# ---------------------------------------------------------------------------

class StudyWorkload(Workload):
    """Studies run in-process through ``kbflow study ... --workers 2``."""

    copies = 1

    def __init__(self, seed):
        self.specs = {}
        super().__init__(seed)

    def write_spec(self, name, spec):
        path = self.inputs / f"{name}.json"
        path.write_text(json.dumps(spec))
        self.specs[name] = path

    def study_op(self, name, check):
        def op():
            out = self.out(f"out_{name}")
            run_cli(["study", str(self.specs[name]), *POOL, "--out", str(out)])
            summary = kbflow.io.load_summary_json(out / "summary.json")
            return digest_dir(out), check(summary)

        return name, op

    #: tiny calls ``f(scalar_model, 3-step grid)`` into the layers the studies use
    warm_up_calls: list = []

    def warm_up(self):
        tiny = sde.TimeGrid(0.0, 1e-3, 3)
        m = scalar_lg(1.0)
        for call in self.warm_up_calls:
            call(m, tiny)
        kbflow.cli.build_parser().parse_args(["study", "spec.json", *POOL])
        warm = kbflow.io.write_summary_json(self.out("warm.json"), {"x": 1.0})
        kbflow.io.load_summary_json(warm)
        kbflow.stats.MomentAccumulator(4).add(np.arange(10.0))
        kbflow.model.solve_are(m)


def _bias_check(closed_form=None):
    def check(summary):
        rows = summary["per_point"]
        require(len(rows) == 11, f"{len(rows)} bias rows, expected 11")
        worst = -math.inf
        for r in rows:
            require(math.isfinite(r["margin"]) and r["margin_se"] > 0,
                    f"non-finite bias margin at t={r['t']}")
            worst = max(worst, r["margin"] / r["margin_se"])
            if closed_form is not None:
                target = r["mean"] - r["margin"]
                err = abs(target - closed_form(r["t"]))
                require(err < 1e-7, f"riccati_flow target off the closed form by "
                        f"{err:.2e} at t={r['t']}")
        return require(worst <= 5.0, f"max bias margin {worst:+.2f} se (<= 5 se)")

    return check


def _slope_check(summary):
    slope = summary["fits"]["slope"]
    return require(-0.6 <= slope <= -0.4, f"fluctuation slope {slope:+.3f} in [-0.6, -0.4]")


def _clt_check(summary):
    r = summary["per_point"][0]
    z = (r["var"] - r["oracle"]) / r["var_se"]
    return require(abs(z) <= 5.0, f"CLT variance {r['var']:.4f} vs oracle "
                   f"{r['oracle']:.4f}: {z:+.2f} se (|z| <= 5)")


class StudyWide(StudyWorkload):
    name = "study_wide"

    def make_inputs(self):
        rng = _rng(self.seed, 1)
        grid = {"dt": 1e-3, "steps": WIDE_STEPS}
        every = {"record_every": WIDE_STEPS // 10}
        m2 = random_model(2, rng, stabilize=0.5)
        self.write_spec("bias_d2_vanilla", dict(
            kind="bias", model=m2.to_dict(), grid=grid, master_seed=_master_seed(rng),
            trials=4096, N=[10], variant="vanilla", options=every))
        self.write_spec("bias_d1_deterministic", dict(
            kind="bias", model=scalar_lg(1.0).to_dict(), grid=grid,
            master_seed=_master_seed(rng), trials=4096, N=[10],
            variant="deterministic", options=every))
        self.write_spec("fluctuation_rate", dict(
            kind="fluctuation_rate", model=scalar_lg(1.0).to_dict(), grid=grid,
            master_seed=_master_seed(rng), trials=4000, N=[8, 16, 32, 64, 128, 256],
            kappa=1, options={"Q": 1.0}))
        self.write_spec("clt_variance", dict(
            kind="clt_variance", model=scalar_lg(1.0).to_dict(),
            grid={"dt": 1e-3, "steps": CLT_STEPS}, master_seed=_master_seed(rng),
            trials=4096, N=[256], kappa=0, options={"Q": 0.0}))

    warm_up_calls = [
        lambda m, g: kbflow._engines.particle_cov_paths_1d(
            m, "deterministic", N=3, grid=g, seed=0, trials=2),
        lambda m, g: kbflow._engines.particle_cov_paths_nd(
            m, "vanilla", N=3, grid=g, seed=0, trials=2),
        lambda m, g: kbflow._engines.law_cov_paths_1d(
            m, 1.0, N=3, Q=1.0, grid=g, seed=0, trials=2),
        lambda m, g: kbflow.kalman.riccati_flow(m, np.eye(1), g),
        lambda m, g: kbflow.scalar.clt_variance_oracle(
            ScalarModel(1.0, 1.0, 1.0), 0.0, 0.0, 0.01),
    ]

    def ops(self):
        phi = lambda t: scalar_phi(1.0, 1.0, 1.0, 1.0, t)
        return [
            self.study_op("bias_d2_vanilla", _bias_check()),
            self.study_op("bias_d1_deterministic", _bias_check(phi)),
            self.study_op("fluctuation_rate", _slope_check),
            self.study_op("clt_variance", _clt_check),
        ]


def _contraction_check(summary):
    freq = summary["per_point"][0]["mean"]
    return require(freq >= 0.9, f"contraction frequency {freq:.3f} (>= 0.9)")


def _lyapunov_check(summary):
    r = summary["per_point"][0]
    lam, est, se = r["lambda_quadrature"], r["mean"], r["lambda_se"]
    # 5 standard errors plus 0.5 % for the Euler bias at dt = 1e-4
    tol = 5.0 * se + 0.005 * abs(lam)
    return require(abs(est - lam) <= tol, f"ergodic exponent {est:.4f} vs "
                   f"lyapunov_exponent {lam:.4f} (|diff| <= {tol:.4f})")


def _ks_check(summary):
    out = []
    for r in summary["per_point"]:
        rho = max(0.0, r["lag_corr"])
        n_eff = r["effective"] * (1.0 - rho) / (1.0 + rho)
        bound = KS_QUANTILE / math.sqrt(n_eff)
        require(r["effective"] >= 1000, f"{r['variant']}: {r['effective']} samples")
        require(all(math.isfinite(v) for v in r["std_moments"]),
                f"{r['variant']}: non-finite moments")
        require(r["ks"] <= bound, f"{r['variant']}: KS {r['ks']:.4f} > {bound:.4f}")
        out.append(f"{r['variant']} KS {r['ks']:.4f} <= {bound:.4f}")
    return "; ".join(out)


class StudyLong(StudyWorkload):
    name = "study_long"

    def make_inputs(self):
        rng = _rng(self.seed, 2)
        m20 = scalar_lg(20.0).to_dict()
        self.write_spec("semigroup_contraction", dict(
            kind="semigroup_contraction", model=m20,
            grid={"dt": 1e-4, "steps": CONTRACTION_STEPS},
            master_seed=_master_seed(rng), trials=200, N=[40], variant="vanilla"))
        self.write_spec("lyapunov", dict(
            kind="lyapunov", model=m20, grid={"dt": 1e-4, "steps": LYAPUNOV_STEPS},
            master_seed=_master_seed(rng), trials=64, N=[6], kappa=0,
            options={"burn_in": 0.25}))
        self.write_spec("invariant_ks", dict(
            kind="invariant_ks", model=m20, grid={"dt": 1e-4, "horizon": KS_HORIZON},
            master_seed=_master_seed(rng), trials=250, N=[6],
            options={"burn_in": 0.15}))

    warm_up_calls = [
        lambda m, g: kbflow._engines.particle_cov_paths_1d(
            m, "vanilla", N=3, grid=g, seed=0, trials=2, integral_from=0),
        lambda m, g: kbflow._engines.law_cov_paths_1d(
            m, 0.0, N=3, Q=1.0, grid=g, seed=0, trials=2, integral_from=0),
        lambda m, g: kbflow.stats.ks_distance(
            np.linspace(0.1, 3.0, 1000),
            kbflow.scalar.InvariantDensity(ScalarModel(1.0, 1.0, 1.0), 0.0, 6).cdf),
        lambda m, g: kbflow.scalar.lyapunov_exponent(ScalarModel(2.0, 1.0, 1.0), 0.0, 6),
    ]

    def ops(self):
        return [
            self.study_op("semigroup_contraction", _contraction_check),
            self.study_op("lyapunov", _lyapunov_check),
            self.study_op("invariant_ks", _ks_check),
        ]


# ---------------------------------------------------------------------------
# single filter runs
# ---------------------------------------------------------------------------

class FilterRuns(Workload):
    name = "filter_runs"

    def make_inputs(self):
        rng = _rng(self.seed, 3)
        self.model = random_model(2, rng, stabilize=0.5)
        self.run_seed = _master_seed(rng)
        self.grid = sde.TimeGrid(0.0, 1e-3, FILTER_STEPS)
        # test 10's setting: weak noise, strong sensor noise, moment-matched
        # cloud, on which the transport covariance follows the Riccati flow
        self.model10 = LinearGaussianModel(
            A=[[-0.3, 0.1], [0.0, -0.4]], H=np.eye(2), R=0.01 * np.eye(2),
            R1=100.0 * np.eye(2))
        model_path = self.inputs / "model.json"
        kbflow.model.save_model(self.model, model_path)
        self.config = self.inputs / "run.json"
        self.config.write_text(json.dumps({
            "model": str(model_path), "variant": "vanilla", "N": FILTER_N,
            "grid": {"t0": 0.0, "dt": self.grid.dt,
                     "T_end": self.grid.dt * FILTER_STEPS},
            "seed": self.run_seed}))

    def warm_up(self):
        g = sde.TimeGrid(0.0, 1e-3, 3)
        m = self.model
        rec = kbflow.ensemble.run_enkf(m, "vanilla", 3, g, seeds=0)
        kbflow.ensemble.law_level_run(m, 1.0, np.eye(2), np.zeros(2), g, 3, streams=0)
        kbflow.kalman.kalman_run(m, np.zeros(2), np.eye(2), 0, g)
        kbflow.ensemble.stochastic_semigroup(m, rec, 0.0, g.t_end)
        path = kbflow.io.write_trajectory_csv(self.out("warm.csv"), rec.t, rec.mean,
                                              rec.cov, rec.error,
                                              extras=kbflow.io.trajectory_extras(rec))
        kbflow.io.load_trajectory_csv(path)
        kbflow.model.solve_are(self.model10)
        kbflow.cli.build_parser().parse_args(["run", str(self.config)])

    # -- checks shared by the stochastic runs ------------------------------

    def check_run(self, rec, track=True):
        """Truth pairing with the exact filter (bit-level up to one rounding),
        PSD records, and, for nominal runs, loose tracking of the flow."""
        K = self.exact
        if rec.diverged_at is not None:
            return f"diverged at t={rec.diverged_at} (recorded result)"
        require(np.all(np.isfinite(rec.cov)) and np.all(np.isfinite(rec.mean)),
                "non-finite record without a recorded divergence")
        truth = rec.mean - rec.error
        gap = float(np.max(np.abs(truth - K["truth"])))
        scale = 1.0 + float(np.max(np.abs(K["truth"])))
        require(gap <= 1e-9 * scale, f"signal path differs from kalman_run's by {gap:.2e}")
        eig = np.linalg.eigvalsh(0.5 * (rec.cov + np.swapaxes(rec.cov, 1, 2)))
        require(eig.min() >= -1e-12 * max(1.0, eig.max()), "covariance record not PSD")
        detail = f"paired signal gap {gap:.1e}"
        if track:
            half = FILTER_STEPS // 2
            phi = K["phi"][half:]
            rel = np.linalg.norm(rec.cov[half:] - phi, axis=(1, 2)) \
                / np.linalg.norm(phi, axis=(1, 2))
            require(rel.mean() <= 1.0, f"mean relative gap to the Riccati flow "
                    f"{rel.mean():.3f} (<= 1)")
            detail += f"; flow gap {rel.mean():.3f}"
        return detail

    def op_kalman(self):
        m = self.model
        states = kbflow.kalman.kalman_run(m, x0=np.zeros(2), Q=np.eye(2),
                                          truth_seed=self.run_seed, grid=self.grid)
        X = np.array([s.X for s in states])
        Z = np.array([s.Z for s in states])
        P = np.array([s.P.P for s in states])
        require(np.all(np.isfinite(X)) and np.all(np.isfinite(P)), "non-finite exact filter")
        err = ode_residual(P, self.grid.dt, lambda Pk: ricc_residual(m.A, m.S, m.R, Pk))
        require(err < 1e-4, f"covariance path off the Riccati ODE by {err:.2e}")
        self.exact = {"truth": X - Z, "phi": P}
        return digest(X, Z, P), f"Riccati ODE residual {err:.1e} (< 1e-4)"

    def enkf_op(self, variant, inflation=None):
        def op():
            kw = {} if inflation is None else {"inflation": kbflow.ensemble.Inflation(xi=inflation)}
            rec = kbflow.ensemble.run_enkf(self.model, variant, FILTER_N, self.grid,
                                           seeds=self.run_seed, **kw)
            if inflation is None and variant == "vanilla":
                self.vanilla = rec
            detail = self.check_run(rec, track=inflation is None)
            if inflation is not None:
                require(rec.xi == inflation, f"record xi {rec.xi} != {inflation}")
            return digest(rec.mean, rec.cov, rec.error, rec.mu_closed_loop), detail

        return op

    def law_op(self, kappa):
        def op():
            rec = kbflow.ensemble.law_level_run(self.model, kappa, np.eye(2), np.zeros(2),
                                                self.grid, FILTER_N, streams=self.run_seed)
            return digest(rec.mean, rec.cov, rec.error), self.check_run(rec)

        return op

    def op_transport(self):
        m = self.model10
        P0 = 1.5 * kbflow.model.solve_are(m).P
        rec = kbflow.ensemble.run_enkf(
            m, "transport", FILTER_N, self.grid, seeds=self.run_seed,
            x_init_sampler=kbflow.ensemble.moment_matched_init(np.zeros(2), P0))
        flow = kbflow.kalman.riccati_flow(m, P0, self.grid)
        phi = np.array([s.P for s in flow])
        sup = float(np.max(np.linalg.norm(rec.cov - phi, axis=(1, 2))))
        # test 10 allows 1e-6 at dt = 1e-4; the Euler gap is O(dt)
        require(sup < 1e-5, f"transport covariance off the flow by {sup:.2e} (< 1e-5)")
        return digest(rec.cov, phi), f"sup ||P_hat - phi|| = {sup:.2e} (< 1e-5)"

    def op_semigroup(self):
        sg = kbflow.ensemble.stochastic_semigroup(self.model, self.vanilla, 0.0,
                                                  self.grid.t_end)
        ratio = float(np.linalg.det(sg.E_hat)) / math.exp(sg.trace_integral)
        require(abs(ratio - 1.0) <= 1e-6, f"det E_hat / exp(trace integral) = {ratio!r}")
        return digest(sg.E_hat, sg.trace_integral), f"|det/exp - 1| = {abs(ratio - 1):.1e}"

    def op_cli_run(self):
        out = self.out("out_run")
        run_cli(["run", str(self.config), "--out", str(out)])
        traj = kbflow.io.load_trajectory_csv(out / "trajectory.csv")
        summary = kbflow.io.load_summary_json(out / "summary.json")
        rec = self.vanilla
        for key, ref in (("t", rec.t), ("mean", rec.mean), ("error", rec.error),
                         ("cov", rec.cov), ("mu_closed_loop", rec.mu_closed_loop)):
            require(np.array_equal(traj[key], ref), f"trajectory.csv {key} is not "
                    "bit-identical to the in-process run")
        final = summary["final"]
        require(final["cov"] == rec.cov[-1].tolist() and final["mean"] == rec.mean[-1].tolist()
                and final["error"] == rec.error[-1].tolist(),
                "summary.json final state is not bit-identical to the in-process run")
        return digest_dir(out), f"CSV/JSON round trip bit-exact over {len(traj['t'])} rows"

    def ops(self):
        return [
            ("kalman_run", self.op_kalman),
            ("run_enkf_vanilla", self.enkf_op("vanilla")),
            ("run_enkf_deterministic", self.enkf_op("deterministic")),
            ("run_enkf_transport", self.op_transport),
            ("run_enkf_inflated", self.enkf_op("vanilla", inflation=0.5)),
            ("law_level_run_kappa1", self.law_op(1.0)),
            ("law_level_run_kappa0", self.law_op(0.0)),
            ("stochastic_semigroup", self.op_semigroup),
            ("cli_run", self.op_cli_run),
        ]


# ---------------------------------------------------------------------------
# deterministic theory
# ---------------------------------------------------------------------------

def _log_density(kappa, A, R, S, N, x):
    """Unnormalized invariant log-density from its closed form."""
    if kappa == 1.0:
        q = R + S * x * x
        return (N * A / math.sqrt(R * S)) * np.arctan(x * math.sqrt(S / R)) \
            + 0.5 * N * (np.log(x) - np.log(q)) - np.log(x) - np.log(q)
    return (0.5 * N - 1.0) * np.log(x) - (S * N / (4.0 * R)) * (x - 2.0 * A / S) ** 2


def _density_moments(kappa, A, R, S, N, orders):
    """Moments by the trapezoid rule in u = log x (independent of kbflow)."""
    u = np.linspace(math.log(1e-4), math.log(1e12), 400_001)
    x = np.exp(u)
    logf = _log_density(kappa, A, R, S, N, x) + u
    w = np.exp(logf - logf.max())
    mass = np.trapezoid(w, u)
    return [float(np.trapezoid(w * x ** n, u) / mass) for n in orders]


def _clt_oracle_reference(A, R, S, kappa, Q, t):
    from scipy.integrate import solve_ivp

    def f(_, y):
        phi, V = y
        sig = R + kappa * S * phi * phi
        return [R + 2 * A * phi - S * phi * phi, 4 * (A - S * phi) * V + 4 * phi * sig]

    sol = solve_ivp(f, (0.0, t), [Q, 0.0], method="DOP853", rtol=1e-12, atol=1e-14)
    return float(sol.y[1, -1])


class ExactTheory(Workload):
    name = "exact_theory"

    def make_inputs(self):
        rng = _rng(self.seed, 4)
        self.are_models = {d: random_model(d, rng) for d in (2, 4, 8)}
        self.m4 = self.are_models[4]
        self.starts4 = [random_psd(4, rng, scale=2.0) for _ in range(2)]
        self.m2 = random_model(2, rng, stabilize=0.5)
        self.Q2 = random_psd(2, rng) + 0.1 * np.eye(2)

    def warm_up(self):
        m = scalar_lg(1.0)
        g = sde.TimeGrid(0.0, 1e-3, 2)
        kbflow.kalman.riccati_flow(m, np.eye(1), g)
        P = kbflow.model.solve_are(m).P
        kbflow.kalman.semigroup_E(m, P, 0.0, 0.01)
        kbflow.model.gramians(m, 0.1)
        kbflow.ensemble.inflated_riccati_flow(m, 1.0, np.eye(1), g,
                                              kbflow.ensemble.Inflation(xi=0.5))
        kbflow.scalar.InvariantDensity(ScalarModel(1.0, 1.0, 1.0), 0.0, 6).moment(1)
        kbflow.scalar.clt_variance_oracle(ScalarModel(1.0, 1.0, 1.0), 0.0, 0.0, 0.01)

    def op_flow01(self):
        grid = sde.TimeGrid.from_horizon(0.0, 1.0, 1e-4)
        P1 = kbflow.kalman.riccati_flow(scalar_lg(20.0), np.zeros((1, 1)), grid)[-1].P[0, 0]
        err = abs(P1 - (20.0 + math.sqrt(401.0)))
        require(err < 1e-8, f"|P_1 - (20 + sqrt 401)| = {err:.2e}")
        return digest(P1), f"|P_1 - (20 + sqrt 401)| = {err:.1e} (< 1e-8)"

    def op_are(self):
        out = []
        self.P_inf = {}
        for d, m in self.are_models.items():
            P = kbflow.model.solve_are(m).P
            res = float(np.linalg.norm(ricc_residual(m.A, m.S, m.R, P)))
            tol = 1e-8 * (1.0 + float(np.sum(P * P)))
            absc = float(np.max(np.linalg.eigvals(m.A - P @ m.S).real))
            require(res <= tol, f"d={d} ARE residual {res:.2e} > {tol:.2e}")
            require(absc < 0, f"d={d} closed loop not Hurwitz (abscissa {absc:.3e})")
            self.P_inf[d] = P
            out.append(P)
        return digest(*out), "residuals within 1e-8 (1 + |P|^2), closed loops Hurwitz"

    def op_flow4(self):
        m, P_inf = self.m4, self.P_inf[4]
        absc = float(np.max(np.linalg.eigvals(m.A - P_inf @ m.S).real))
        horizon = 20.0 / abs(absc)
        grid = sde.TimeGrid(0.0, horizon / FLOW4_NODES, FLOW4_NODES)
        ends = [kbflow.kalman.riccati_flow(m, Q, grid)[-1].P for Q in self.starts4]
        gap = max(float(np.linalg.norm(P - P_inf)) for P in ends)
        require(gap < 1e-6, f"d=4 flow ends {gap:.2e} from solve_are")
        return digest(*ends), f"flow-to-ARE gap {gap:.1e} (< 1e-6)"

    def op_are_reject(self):
        m = LinearGaussianModel([[1.0]], [[0.0]], [[1.0]], [[1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                kbflow.model.solve_are(m)
            except kbflow.NoStabilizingSolution as exc:
                return digest(str(exc)), "A=1, H=0 rejected with NoStabilizingSolution"
        raise CheckFailed("solve_are accepted the unobservable unstable model")

    def op_semigroup(self):
        worst, out = 0.0, []
        for A in (1.0, 20.0):
            m = scalar_lg(A)
            P_inf = kbflow.model.solve_are(m).P
            for t in (0.1, 1.0):
                E = kbflow.kalman.semigroup_E(m, P_inf, 0.0, t).E[0, 0]
                worst = max(worst, abs(E - math.exp(-math.sqrt(A * A + 1.0) * t)))
                out.append(E)
        require(worst < 1e-8, f"semigroup_E off exp(-t sqrt(A^2+RS)) by {worst:.2e}")
        return digest(*out), f"|E - exp(-t sqrt(A^2+RS))| = {worst:.1e} (< 1e-8)"

    def op_sandwich(self):
        rep = kbflow.kalman.check_riccati_sandwich(self.m2, self.Q2, tau=1.0, t=2.0)
        require(bool(rep), f"Riccati sandwich violated: {rep.margins}")
        return digest(sorted(rep.margins.items())), "two-sided bounds hold"

    def op_inflation(self):
        m, xi = self.m2, 0.5
        grid = sde.TimeGrid(0.0, 2e-3, INFL_STEPS)
        base = np.array([s.P for s in kbflow.kalman.riccati_flow(m, np.eye(2), grid)])
        out, resid = [base], 0.0
        for kappa in (1.0, 0.0):
            infl = np.array([s.P for s in kbflow.ensemble.inflated_riccati_flow(
                m, kappa, np.eye(2), grid, kbflow.ensemble.Inflation(xi=xi))])
            # the inflated drift, from the model matrices: A damped by
            # ((1 - kappa) / 2) xi S, plus the source kappa xi^2 S (T = I)
            A_mod = m.A - 0.5 * (1.0 - kappa) * xi * m.S
            R_mod = m.R + kappa * xi * xi * m.S
            resid = max(resid, ode_residual(
                infl, grid.dt, lambda P: ricc_residual(A_mod, m.S, R_mod, P)))
            out.append(infl)
        require(resid < 1e-4, f"inflated flows off their ODE by {resid:.2e}")
        # kappa = 1 adds a PSD source to the drift, so by comparison it stays
        # above the nominal flow; kappa = 0 has no such ordering in d > 1
        diff = out[1] - base
        margin = float(np.linalg.eigvalsh(0.5 * (diff + np.swapaxes(diff, 1, 2))).min())
        require(margin >= -1e-8, f"kappa=1 inflated flow below nominal by {margin:.2e}")
        return digest(*out), (f"ODE residual {resid:.1e} (< 1e-4); kappa=1 ordering "
                              f"margin {margin:.1e} (>= -1e-8)")

    def op_gramians(self):
        from scipy.linalg import expm

        m, tau = self.m4, 1.0
        g = kbflow.model.gramians(m, tau)
        e_minus, e_plus = expm(-m.A * tau), expm(m.A * tau)
        res_O = -m.A.T @ g.O_tau - g.O_tau @ m.A - (e_minus.T @ m.S @ e_minus - m.S)
        res_C = m.A @ g.C_tau + g.C_tau @ m.A.T - (e_plus @ m.R @ e_plus.T - m.R)
        rel = max(float(np.linalg.norm(res_O) / np.linalg.norm(g.O_tau)),
                  float(np.linalg.norm(res_C) / np.linalg.norm(g.C_tau)))
        require(rel < 1e-6, f"Gramian Lyapunov identities off by {rel:.2e}")
        return digest(g.O_tau, g.C_tau, g.C_tau_of_O, g.O_tau_of_C), \
            f"Lyapunov identity residual {rel:.1e} (< 1e-6)"

    def op_scalar(self):
        A, R, S, N = 20.0, 1.0, 1.0, 6
        sm = ScalarModel(A, R, S)
        out, worst = [], 0.0
        for kappa in (0.0, 1.0):
            dens = kbflow.scalar.InvariantDensity(sm, kappa, N)
            moments = [dens.moment(n) for n in (1, 2, 3, 4)]
            ref = _density_moments(kappa, A, R, S, N, (1, 2, 3, 4))
            worst = max(worst, max(abs(a / b - 1.0) for a, b in zip(moments, ref)))
            lam = kbflow.scalar.lyapunov_exponent(sm, kappa, N)
            lo = -math.sqrt(A * A + R * S)
            r = 4.0 / N
            hi = -math.sqrt(A * A + R * S * (1 - r)) if kappa == 0.0 else \
                -(math.sqrt(A * A + R * S * (1 - r * r)) - r * A) / (1 + r)
            require(lo <= lam <= hi, f"kappa={kappa}: exponent {lam} outside [{lo}, {hi}]")
            clt = kbflow.scalar.clt_variance_oracle(ScalarModel(1.0, 1.0, 1.0), kappa,
                                                    0.0, 1.0)
            clt_ref = _clt_oracle_reference(1.0, 1.0, 1.0, kappa, 0.0, 1.0)
            worst = max(worst, abs(clt / clt_ref - 1.0))
            out += moments + [lam, clt]
        require(worst < 1e-6, f"scalar closed forms off their references by {worst:.2e}")
        return digest(*out), f"moments and CLT oracle within {worst:.1e} (< 1e-6)"

    def ops(self):
        return [
            ("riccati_flow_d1", self.op_flow01),
            ("solve_are", self.op_are),
            ("riccati_flow_d4", self.op_flow4),
            ("solve_are_reject", self.op_are_reject),
            ("semigroup_E", self.op_semigroup),
            ("check_riccati_sandwich", self.op_sandwich),
            ("inflated_riccati_flow", self.op_inflation),
            ("gramians", self.op_gramians),
            ("scalar_closed_forms", self.op_scalar),
        ]


# ---------------------------------------------------------------------------
# the benchmark's workloads
# ---------------------------------------------------------------------------

class Combined:
    """Several workloads run back to back in one pass.

    Wall-clock speed on the shared 2-core machine this benchmark was tuned on
    drifts by tens of percent over tens of seconds, so the benchmark runs two
    long workloads rather than four short ones; each part keeps its own
    inputs, directory and oracles.
    """

    name = ""
    parts: tuple = ()

    def __init__(self, seed):
        self.workloads = [cls(seed) for cls in self.parts]
        self.copies = self.parts[0].copies

    def warm_up(self):
        for w in self.workloads:
            w.warm_up()

    def ops(self):
        return [op for w in self.workloads for op in w.ops()]


class Studies(Combined):
    name = "studies"
    parts = (StudyWide, StudyLong)


class FilterAndTheory(Combined):
    name = "filter_and_theory"
    parts = (FilterRuns, ExactTheory)


WORKLOADS = {w.name: w for w in (Studies, FilterAndTheory, StudyWide, StudyLong,
                                 FilterRuns, ExactTheory)}
