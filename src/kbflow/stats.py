"""Monte Carlo estimators and pre-built studies.

Estimators: Kolmogorov-Smirnov distance against a reference cdf, the Hill
tail-index estimator, least-squares slope fits with standard errors, and a
chunk-mergeable central-moment accumulator (orders up to 9).

Studies: eight study kinds (bias, fluctuation_rate, invariant_ks,
moments_flow, lyapunov, inflation_sweep, semigroup_contraction,
clt_variance) driven by :func:`run_study` from a validated
:class:`StudySpec`.  Trials are partitioned into fixed-size chunks whose
index seeds the noise streams.  Each study hands all of its engine runs
(jobs) to one call of :func:`_map_chunks`, which runs their chunks in the
calling process or, with several workers, in one process pool; summaries
are bit-reproducible for a fixed spec regardless of the worker count or
that scheduling, and aggregation is ordered by chunk index.  Divergent
trials are excluded from moment aggregates but counted.  Progress (the
chunk layout, and each chunk's wall time at DEBUG) goes to the ``kbflow``
logger.
"""

from __future__ import annotations

import copy
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from . import _engines, io
from .ensemble import Inflation, inflated_riccati_flow
from .errors import ConfigError
from .kalman import riccati_flow
from .model import LinearGaussianModel, ScalarModel, solve_are
from .scalar import (clt_variance_oracle, contraction_rate, equilibria,
                     invariant_density, lyapunov_bounds, lyapunov_exponent,
                     moment_threshold)
from .sde import TimeGrid

log = logging.getLogger(__name__)

#: Default trial-chunk size; echoed in summaries because it is part of the
#: stream layout and hence of the reproducibility contract.
CHUNK_SIZE = _engines.CHUNK_SIZE


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def ks_distance(samples, cdf) -> float:
    """sup_x |empirical CDF - cdf(x)| over the sample points.

    Requires at least 10^3 samples and a monotone cdf evaluator.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n < 1000:
        raise ValueError(f"need >= 1000 samples, got {n}")
    F = np.asarray(cdf(s), dtype=float)
    if np.any(np.diff(F) < -1e-12):
        raise ValueError("cdf evaluator is not monotone on the samples")
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


def hill_tail_index(samples, k: int) -> float:
    """Hill estimator of the tail index from the top-k order statistics.

    Requires k < n/10.  Returns alpha with survival function ~ x^{-alpha}.
    """
    s = np.asarray(samples, dtype=float)
    n = s.size
    if not 0 < k < n / 10:
        raise ValueError(f"need 0 < k < n/10 = {n / 10}, got k={k}")
    top = np.sort(s)[-(k + 1):]
    if top[0] <= 0:
        raise ValueError("tail samples must be positive")
    return float(1.0 / np.mean(np.log(top[1:]) - math.log(top[0])))


def slope_fit(x, y) -> tuple[float, float]:
    """Ordinary least squares slope and its standard error (>= 4 points)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 4:
        raise ValueError(f"need >= 4 points, got {x.size}")
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.sum(xc * xc))
    slope = float(np.sum(xc * yc)) / sxx
    resid = yc - slope * xc
    s2 = float(np.sum(resid * resid)) / (x.size - 2)
    return slope, math.sqrt(s2 / sxx)


class MomentAccumulator:
    """Central moments up to ``order`` with stable chunk-merge updates.

    Chunks are reduced to local central sums and merged pairwise, so large
    sample sets can be aggregated incrementally (and in a fixed order, for
    reproducibility).  ``std_moment(p)`` returns the standardized central
    moment E[(x-mean)^p]/sd^p.
    """

    def __init__(self, order: int = 9):
        if not 2 <= order <= 12:
            raise ValueError(f"order must be in [2, 12], got {order}")
        self.order = order
        self.n = 0
        self.mean = 0.0
        self._M = np.zeros(order + 1)  # M[p] = sum((x - mean)^p), p >= 2

    def add(self, values) -> "MomentAccumulator":
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return self
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite (filter divergent first)")
        nb = values.size
        mb = float(values.mean())
        dev = values - mb
        Mb = np.zeros(self.order + 1)
        p_dev = dev * dev
        for p in range(2, self.order + 1):
            Mb[p] = float(np.sum(p_dev))
            p_dev = p_dev * dev
        self._merge(nb, mb, Mb)
        return self

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        if other.order != self.order:
            raise ValueError("order mismatch")
        if other.n:
            self._merge(other.n, other.mean, other._M.copy())
        return self

    def _merge(self, nb: int, mb: float, Mb: np.ndarray):
        na, ma, Ma = self.n, self.mean, self._M
        if na == 0:
            self.n, self.mean, self._M = nb, mb, Mb
            return
        n = na + nb
        delta = mb - ma
        M = Ma + Mb
        for p in range(3, self.order + 1):
            s = 0.0
            for k in range(1, p - 1):
                s += math.comb(p, k) * ((-delta * nb / n) ** k * Ma[p - k]
                                        + (delta * na / n) ** k * Mb[p - k])
            M[p] += s + (na * nb / n * delta) ** p \
                * (1.0 / nb ** (p - 1) - (-1.0 / na) ** (p - 1))
        M[2] = Ma[2] + Mb[2] + delta * delta * na * nb / n
        self.n = n
        self.mean = ma + delta * nb / n
        self._M = M

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1)."""
        return self._M[2] / (self.n - 1) if self.n > 1 else math.nan

    def central_moment(self, p: int) -> float:
        if p == 1:
            return 0.0
        return self._M[p] / self.n if self.n else math.nan

    def std_moment(self, p: int) -> float:
        sd = math.sqrt(self._M[2] / self.n) if self.n else math.nan
        return self.central_moment(p) / sd ** p if sd > 0 else math.nan

    def std_moments(self, p_min: int = 3, p_max: int | None = None) -> list[float]:
        p_max = self.order if p_max is None else p_max
        return [self.std_moment(p) for p in range(p_min, p_max + 1)]


def moment_doubling_ratios(samples, order: int, min_prefix: int = 500):
    """Running raw-moment estimates over doubling sample prefixes.

    Returns (sizes, estimates, ratios) where estimates[j] is the mean of
    x^order over the first sizes[j] samples and ratios are consecutive
    estimate quotients.  A stabilizing moment keeps ratios near 1; a
    nonexistent moment drifts (ratio beyond 1.5 is this package's
    conventional flag).
    """
    s = np.asarray(samples, dtype=float).ravel()
    n = s.size
    if n < 2 * min_prefix:
        raise ValueError(f"need >= {2 * min_prefix} samples, got {n}")
    sizes = [n]
    while sizes[-1] // 2 >= min_prefix:
        sizes.append(sizes[-1] // 2)
    sizes = sizes[::-1]
    powers = s ** order
    csum = np.cumsum(powers)
    estimates = [float(csum[m - 1] / m) for m in sizes]
    ratios = [estimates[j + 1] / estimates[j] for j in range(len(sizes) - 1)]
    return sizes, estimates, ratios


# ---------------------------------------------------------------------------
# stationary occupation sampling
# ---------------------------------------------------------------------------

def _lag1_correlation(series: np.ndarray) -> float:
    """Mean per-replica lag-1 autocorrelation of an (R, K) record array."""
    a = series[:, :-1]
    b = series[:, 1:]
    a0 = a - a.mean(axis=1, keepdims=True)
    b0 = b - b.mean(axis=1, keepdims=True)
    den = np.sqrt(np.sum(a0 * a0, axis=1) * np.sum(b0 * b0, axis=1))
    ok = den > 0
    if not np.any(ok):
        return 0.0
    return float(np.mean(np.sum(a0 * b0, axis=1)[ok] / den[ok]))


def decorrelation_stride(series: np.ndarray, target: float = 0.1) -> int:
    """Smallest power-of-two thinning stride with lag-1 autocorrelation of
    the thinned records below ``target``."""
    stride = 1
    while series.shape[1] // stride >= 4:
        if abs(_lag1_correlation(series[:, ::stride])) < target:
            return stride
        stride *= 2
    return stride


def stationary_covariance_samples(model: LinearGaussianModel, variant, N: int,
                                  master_seed: int, *, dt: float = 1e-4,
                                  replicas: int = 300, horizon: float = 5.0,
                                  burn_in: float | None = None,
                                  record_stride: int = 10,
                                  target_lag_corr: float = 0.1,
                                  chunk: int = CHUNK_SIZE, workers: int = 1,
                                  first_chunk: int = 0,
                                  progress: list | None = None) -> dict:
    """Pooled stationary occupation samples of the scalar sample covariance.

    Protocol: particles start i.i.d. with variance rho_plus (the Riccati
    fixed point), burn-in 20/sqrt(A^2+RS) time units is discarded, the
    covariance is recorded every ``record_stride`` steps, a thinning stride
    is chosen so the thinned lag-1 autocorrelation is below
    ``target_lag_corr``, and the thinned records are pooled across
    replicas.  Replicas that diverge are excluded from the pool but
    counted.
    """
    job = _stationary_job(model, N, dt, horizon, burn_in, record_stride)
    out = _map_chunks(_engines.particle_cov_paths_1d, replicas, chunk, workers,
                      progress=progress, first_chunk=first_chunk,
                      variant=variant, seed=master_seed, **job)[0]
    return _stationary_pool(out, job, record_stride, target_lag_corr)


def _stationary_job(model: LinearGaussianModel, N: int, dt: float, horizon: float,
                    burn_in: float | None, record_stride: int) -> dict:
    """Engine keywords, all but the variant and seed, of the stationary
    occupation protocol of :func:`stationary_covariance_samples`."""
    sm = _scalar_of(model)
    if burn_in is None:
        burn_in = 20.0 / contraction_rate(sm)
    burn_idx = max(1, int(math.ceil(float(burn_in) / dt - 1e-9)))
    grid = TimeGrid(0.0, dt, burn_idx + int(round(float(horizon) / dt)))
    return dict(model=model, N=N, grid=grid,
                record_indices=np.arange(burn_idx, grid.steps + 1, record_stride),
                frame="error", m0=0.0, P0=equilibria(sm).rho_plus, init="iid")


def _stationary_pool(out: dict, job: dict, record_stride: int,
                     target_lag_corr: float) -> dict:
    """Thin and pool the recorded covariances of a stationary job."""
    alive = out["diverged_step"] < 0
    series = out["cov"][alive]
    stride = decorrelation_stride(series, target_lag_corr)
    thinned = series[:, ::stride]
    samples = thinned.ravel()
    dt = job["grid"].dt
    return {
        "samples": samples,
        "effective": int(samples.size),
        "stride_steps": int(stride * record_stride),
        "lag_corr": _lag1_correlation(thinned),
        "diverged": int(np.sum(~alive)),
        "replicas": int(alive.size),
        "burn_in": float(int(job["record_indices"][0]) * dt),
        "dt": float(dt),
    }


# ---------------------------------------------------------------------------
# study specification
# ---------------------------------------------------------------------------

STUDY_KINDS = ("bias", "fluctuation_rate", "invariant_ks", "moments_flow",
               "lyapunov", "inflation_sweep", "semigroup_contraction",
               "clt_variance")
_CI_KINDS = {"bias", "clt_variance", "semigroup_contraction"}
_KAPPA_KINDS = {"fluctuation_rate", "moments_flow", "lyapunov", "clt_variance"}
_VARIANT_KINDS = {"bias", "semigroup_contraction"}
_SCALAR_KINDS = {"fluctuation_rate", "invariant_ks", "moments_flow", "lyapunov",
                 "clt_variance", "semigroup_contraction"}
_ALLOWED_OPTIONS = {
    "bias": {"Q", "record_every", "confidence"},
    "fluctuation_rate": {"Q"},
    "invariant_ks": {"burn_in", "record_stride", "target_lag_corr", "horizon"},
    "moments_flow": {"Q", "record_every"},
    "lyapunov": {"burn_in", "Q"},
    "inflation_sweep": {"Q", "xi", "record_every"},
    "semigroup_contraction": {"Q"},
    "clt_variance": {"Q"},
}
_SPEC_KEYS = {"kind", "model", "grid", "master_seed", "trials", "N",
              "variant", "kappa", "out", "chunk", "options"}


@dataclass(frozen=True)
class StudySpec:
    """Validated description of one Monte Carlo study.

    ``grid`` is ``{"t0", "dt", "steps"}`` (or ``"horizon"`` in place of
    ``"steps"``); ``model`` is a model payload as produced by
    ``LinearGaussianModel.to_dict()``.  ``chunk`` is part of the stream
    layout and therefore of the result, not just a performance knob.
    """

    kind: str
    model: dict
    grid: dict
    master_seed: int = 0
    trials: int = 1000
    N: tuple = (10,)
    variant: str | None = None
    kappa: float | None = None
    out: str | None = None
    chunk: int = CHUNK_SIZE
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in STUDY_KINDS:
            raise ConfigError(f"unknown study kind {self.kind!r}; "
                              f"expected one of {', '.join(STUDY_KINDS)}")
        try:
            model = self.lg_model()
        except Exception as exc:
            raise ConfigError(f"invalid model payload: {exc}") from exc
        if self.kind in _SCALAR_KINDS:
            if (model.d, model.d_y) != (1, 1):
                raise ConfigError(f"{self.kind} is a scalar study and needs d = d_y = 1, "
                                  f"got d={model.d}, d_y={model.d_y}")
            if model.S[0, 0] == 0.0:
                raise ConfigError(f"{self.kind} needs an observed signal "
                                  "(S = H^2/R1 > 0), got H = 0")
        try:
            self.time_grid()
        except Exception as exc:
            raise ConfigError(f"invalid grid: {exc}") from exc
        object.__setattr__(self, "N", tuple(int(n) for n in
                                            (self.N if isinstance(self.N, (list, tuple))
                                             else [self.N])))
        if any(n < 1 for n in self.N):
            raise ConfigError(f"N entries must be >= 1, got {self.N}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.kind in _CI_KINDS and self.trials < 100:
            raise ConfigError(f"{self.kind} is a CI study and needs >= 100 "
                              f"trials, got {self.trials}")
        if self.kind == "fluctuation_rate":
            if len(self.N) < 4 or any(b <= a for a, b in zip(self.N, self.N[1:])):
                raise ConfigError("fluctuation_rate needs a strictly increasing "
                                  f"N list with >= 4 entries, got {self.N}")
        if self.kind in _VARIANT_KINDS:
            if self.variant not in ("vanilla", "deterministic"):
                raise ConfigError(f"{self.kind} requires variant 'vanilla' or "
                                  f"'deterministic', got {self.variant!r}")
        if self.kind in _KAPPA_KINDS:
            if self.kappa not in (0, 1, 0.0, 1.0):
                raise ConfigError(f"{self.kind} requires kappa in {{0, 1}}, "
                                  f"got {self.kappa!r}")
        if self.chunk < 1:
            raise ConfigError(f"chunk must be >= 1, got {self.chunk}")
        if int(self.master_seed) < 0:
            raise ConfigError("master_seed must be >= 0")
        unknown = set(self.options) - _ALLOWED_OPTIONS[self.kind]
        if unknown:
            raise ConfigError(f"unknown options for {self.kind}: "
                              f"{sorted(unknown)}; allowed: "
                              f"{sorted(_ALLOWED_OPTIONS[self.kind])}")

    def lg_model(self) -> LinearGaussianModel:
        return LinearGaussianModel.from_dict(self.model)

    def time_grid(self) -> TimeGrid:
        g = dict(self.grid)
        extra = set(g) - {"t0", "dt", "steps", "horizon"}
        if extra:
            raise ValueError(f"unknown grid keys {sorted(extra)}")
        t0 = float(g.get("t0", 0.0))
        dt = float(g["dt"])
        if "steps" in g and "horizon" in g:
            raise ValueError("give steps or horizon, not both")
        if "steps" in g:
            return TimeGrid(t0=t0, dt=dt, steps=int(g["steps"]))
        return TimeGrid.from_horizon(t0, float(g["horizon"]), dt)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "model": copy.deepcopy(self.model),
            "grid": copy.deepcopy(self.grid),
            "master_seed": int(self.master_seed), "trials": int(self.trials),
            "N": list(self.N), "variant": self.variant,
            "kappa": self.kappa, "out": self.out, "chunk": int(self.chunk),
            "options": copy.deepcopy(self.options),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StudySpec":
        unknown = set(payload) - _SPEC_KEYS
        if unknown:
            raise ConfigError(f"unknown StudySpec keys: {sorted(unknown)}")
        if "kind" not in payload or "model" not in payload or "grid" not in payload:
            raise ConfigError("StudySpec requires kind, model, and grid")
        kw = dict(payload)
        if "N" in kw:
            kw["N"] = tuple(kw["N"]) if isinstance(kw["N"], (list, tuple)) \
                else (int(kw["N"]),)
        return cls(**kw)


@dataclass
class StudySummary:
    """Aggregated study result: spec echo, per-(N, t) rows, and fits."""

    spec_echo: dict
    per_point: list
    fits: dict

    def to_dict(self) -> dict:
        return {"spec_echo": self.spec_echo, "per_point": self.per_point,
                "fits": self.fits}

    def save(self, out_dir) -> list:
        from pathlib import Path

        out = Path(out_dir)
        written = [io.write_summary_json(out / "summary.json", self.to_dict()),
                   io.write_per_point_csv(out / "per_point.csv", self.per_point)]
        return written


# ---------------------------------------------------------------------------
# chunked execution
# ---------------------------------------------------------------------------

def _concat_parts(parts: list[dict]) -> dict:
    out = {}
    for key in parts[0]:
        if key == "t":
            out[key] = parts[0][key]
        else:
            out[key] = np.concatenate([p[key] for p in parts], axis=0)
    return out


def _timed_chunk(engine, kw: dict):
    t0 = time.perf_counter()
    out = engine(**kw)
    return out, time.perf_counter() - t0


def _map_chunks(engine, trials: int, chunk: int, workers: int,
                progress: list | None = None, first_chunk: int = 0,
                jobs=({},), **kw) -> list[dict]:
    """Run every job of a study over trial chunks, in one pass.

    Job ``j`` runs the batch engine ``engine`` with ``trials``, ``chunk``,
    ``first_chunk`` and the keyword arguments ``kw``, each updated by
    ``jobs[j]``; its trials are split into chunks of ``chunk``.  With more
    than one worker and more than one chunk, the chunks of all jobs share
    one process pool; otherwise they run in this process.  Returns one
    result per job, its chunks concatenated in chunk order.  Completed
    chunk indices are appended to ``progress``.  If a chunk raises or the
    run is interrupted, the chunks not yet started are cancelled before the
    error propagates.
    """
    tasks = []  # (job, chunk index, engine keywords)
    for j, over in enumerate(jobs):
        job = {**kw, "trials": trials, "chunk": chunk, "first_chunk": first_chunk, **over}
        n, size, first = job["trials"], job["chunk"], job["first_chunk"]
        for i in range((n + size - 1) // size):
            tasks.append((j, first + i, dict(job, trials=min(size, n - i * size),
                                             first_chunk=first + i)))
    parts = [{} for _ in jobs]

    def done(j, c, out, seconds):
        parts[j][c] = out
        if progress is not None:
            progress.append(c)
        log.debug("job %d, chunk %d: %.3f s", j, c, seconds)

    n_workers = min(workers, len(tasks))
    log.info("%d jobs, %d chunks, %s", len(jobs), len(tasks),
             f"{n_workers} worker processes" if n_workers > 1 else "in process")
    if n_workers <= 1:
        for j, c, job in tasks:
            done(j, c, *_timed_chunk(engine, job))
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = {pool.submit(_timed_chunk, engine, job): (j, c)
                       for j, c, job in tasks}
            try:
                for fut in as_completed(futures):
                    done(*futures[fut], *fut.result())
            except BaseException:
                # wait only for the chunks already running
                pool.shutdown(cancel_futures=True)
                raise
    return [_concat_parts([p[c] for c in sorted(p)]) for p in parts]


def default_workers() -> int:
    """Worker count from KBFLOW_WORKERS (default 1 = inline)."""
    try:
        return max(1, int(os.environ.get("KBFLOW_WORKERS", "1")))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# study runners
# ---------------------------------------------------------------------------

def _core_row(**kw) -> dict:
    row = {"N": None, "t": None, "mean": None, "var": None, "l2": None,
           "l4": None, "std_moments": None, "ks": None, "diverged": 0}
    row.update(kw)
    return row


def _record_indices(steps: int, every: int) -> np.ndarray:
    rec = np.arange(0, steps + 1, every)
    if rec[-1] != steps:
        rec = np.append(rec, steps)
    return rec


def _scalar_of(model: LinearGaussianModel) -> ScalarModel:
    return ScalarModel(A=float(model.A[0, 0]), R=float(model.R[0, 0]),
                       S=float(model.S[0, 0]))


def _run_bias(spec: StudySpec, model, workers, progress):
    grid = spec.time_grid()
    d = model.d
    Q = np.asarray(spec.options.get("Q", np.eye(d)), dtype=float).reshape(d, d)
    every = int(spec.options.get("record_every", max(1, grid.steps // 20)))
    z = float(norm.ppf(float(spec.options.get("confidence", 0.99))))
    rec = _record_indices(grid.steps, every)
    flow = riccati_flow(model, Q, grid)
    phis = np.array([flow[k].P for k in rec])
    times = grid.times()[rec]
    N = spec.N[0]

    if d == 1:
        out = _map_chunks(_engines.particle_cov_paths_1d, spec.trials,
                          spec.chunk, workers, progress=progress, model=model,
                          variant=spec.variant, N=N, grid=grid,
                          seed=spec.master_seed, record_indices=rec,
                          frame="error", m0=0.0, P0=float(Q[0, 0]), init="iid")[0]
        covs = out["cov"][:, :, None, None]
    else:
        out = _map_chunks(_engines.particle_cov_paths_nd, spec.trials,
                          spec.chunk, workers, progress=progress, model=model,
                          variant=spec.variant, N=N, grid=grid,
                          seed=spec.master_seed, record_indices=rec,
                          frame="error", m0=np.zeros(d), P0=Q, init="iid")[0]
        covs = out["cov"]

    per_point = []
    for j, t in enumerate(times):
        vals = covs[:, j]
        finite = np.all(np.isfinite(vals.reshape(vals.shape[0], -1)), axis=1)
        vals = vals[finite]
        n = vals.shape[0]
        mean = vals.mean(axis=0)
        phi = phis[j]
        if d == 1:
            proj = vals[:, 0, 0]
            target = float(phi[0, 0])
            mean_rep = float(mean[0, 0])
        else:
            w, V = np.linalg.eigh(phi - mean)
            u = V[:, 0]
            proj = np.einsum("i,nij,j->n", u, vals, u)
            target = float(u @ phi @ u)
            mean_rep = mean.tolist()
        se = float(np.std(proj, ddof=1)) / math.sqrt(n)
        margin = float(np.mean(proj)) - target
        dev = vals - phi
        fro = np.sqrt(np.sum(dev * dev, axis=(1, 2)))
        per_point.append(_core_row(
            N=N, t=float(t), mean=mean_rep, var=float(np.var(proj, ddof=1)),
            l2=float(np.sqrt(np.mean(fro ** 2))),
            l4=float(np.mean(fro ** 4) ** 0.25),
            diverged=int(np.sum(~finite)),
            margin=margin, margin_se=se, ci_ok=bool(margin <= z * se)))
    return per_point, {}, {}


#: The fig3 sample covariance paths at the extreme N values: one chunk of
#: three trials, addressed apart from the study's own chunks.
_FIG3_PATHS = {"trials": 3, "chunk": 3, "first_chunk": 10_000}


def _run_fluctuation_rate(spec: StudySpec, model, workers, progress):
    grid = spec.time_grid()
    sm = _scalar_of(model)
    Q = float(spec.options.get("Q", 1.0))
    from .scalar import riccati_closed_form

    phi_T = float(riccati_closed_form(sm, Q, grid.horizon))
    n_chunks = (spec.trials + spec.chunk - 1) // spec.chunk
    fig3_N = (spec.N[0], spec.N[-1])
    fig3_rec = _record_indices(grid.steps, max(1, grid.steps // 200))
    outs = _map_chunks(
        _engines.law_cov_paths_1d, spec.trials, spec.chunk, workers, progress,
        jobs=[{"N": N, "first_chunk": i * n_chunks} for i, N in enumerate(spec.N)]
        + [{"N": N, **_FIG3_PATHS, "record_indices": fig3_rec} for N in fig3_N],
        model=model, kappa=spec.kappa, Q=Q, grid=grid, seed=spec.master_seed,
        record_indices=[grid.steps])
    per_point = []
    for N, out in zip(spec.N, outs):
        vals = out["cov"][:, 0]
        finite = np.isfinite(vals)
        dev = vals[finite] - phi_T
        per_point.append(_core_row(
            N=N, t=float(grid.horizon), mean=float(np.mean(vals[finite])),
            var=float(np.var(vals[finite], ddof=1)),
            l2=float(np.sqrt(np.mean(dev ** 2))),
            l4=float(np.mean(dev ** 4) ** 0.25),
            diverged=int(np.sum(~finite))))
    slope, stderr = slope_fit(np.log([p["N"] for p in per_point]),
                              np.log([p["l2"] for p in per_point]))
    times = grid.times()[fig3_rec]
    cols = {"t": times, "phi": riccati_closed_form(sm, Q, times)}
    for N, out in zip(fig3_N, outs[len(spec.N):]):
        for j, path in enumerate(out["cov"]):
            cols[f"path_N{N}_{j + 1}"] = path
    return per_point, {"slope": slope, "stderr": stderr}, {"fig3_riccati_paths": cols}


def _run_invariant_ks(spec: StudySpec, model, workers, progress):
    grid = spec.time_grid()
    sm = _scalar_of(model)
    N = spec.N[0]
    opts = spec.options
    record_stride = int(opts.get("record_stride", 10))
    job = _stationary_job(model, N, grid.dt, float(opts.get("horizon", grid.horizon)),
                          opts.get("burn_in"), record_stride)
    n_chunks = (spec.trials + spec.chunk - 1) // spec.chunk
    variants = (("vanilla", 1.0), ("deterministic", 0.0))
    outs = _map_chunks(_engines.particle_cov_paths_1d, spec.trials, spec.chunk, workers,
                       progress, jobs=[{"variant": variant, "first_chunk": i * n_chunks}
                                       for i, (variant, _) in enumerate(variants)],
                       seed=spec.master_seed, **job)
    per_point = []
    pools = {}
    for (variant, kappa), out in zip(variants, outs):
        occ = _stationary_pool(out, job, record_stride,
                               float(opts.get("target_lag_corr", 0.1)))
        if occ["effective"] < 1000:
            raise ConfigError(
                f"invariant_ks pooled {occ['effective']} {variant} samples at a "
                f"decorrelation stride of {occ['stride_steps']} steps; the KS test "
                "needs >= 1000: lengthen the horizon or add trials")
        dens = invariant_density(sm, kappa, N)
        ks = ks_distance(occ["samples"], dens.cdf)
        acc = MomentAccumulator(9).add(occ["samples"])
        pools[variant] = occ
        per_point.append(_core_row(
            N=N, mean=acc.mean, var=acc.variance,
            l2=float(np.sqrt(np.mean(occ["samples"] ** 2))),
            l4=float(np.mean(occ["samples"] ** 4) ** 0.25),
            std_moments=acc.std_moments(), ks=ks, diverged=occ["diverged"],
            variant=variant, kappa=kappa, effective=occ["effective"],
            stride_steps=occ["stride_steps"], lag_corr=occ["lag_corr"],
            burn_in=occ["burn_in"]))
    figures = {"fig2_densities": _fig2_columns(sm, N, pools)}
    return per_point, {}, figures


def _fig2_columns(sm: ScalarModel, N: int, pools: dict, n_bins: int = 400):
    van = pools["vanilla"]["samples"]
    det = pools["deterministic"]["samples"]
    lo = float(min(np.quantile(van, 0.001), np.quantile(det, 0.001)))
    hi = float(max(np.quantile(van, 0.995), np.quantile(det, 0.999)))
    edges = np.linspace(max(lo, 0.0), hi, n_bins + 1)
    x = 0.5 * (edges[1:] + edges[:-1])
    emp_v, _ = np.histogram(van, bins=edges, density=True)
    emp_d, _ = np.histogram(det, bins=edges, density=True)
    return {
        "x": x,
        "density_vanilla": invariant_density(sm, 1.0, N).pdf(x),
        "density_deterministic": invariant_density(sm, 0.0, N).pdf(x),
        "empirical_vanilla": emp_v,
        "empirical_deterministic": emp_d,
    }


def _run_moments_flow(spec: StudySpec, model, workers, progress):
    grid = spec.time_grid()
    N = spec.N[0]
    Q = float(spec.options.get("Q", 1.0))
    every = int(spec.options.get("record_every", max(1, grid.steps // 50)))
    rec = _record_indices(grid.steps, every)
    out = _map_chunks(_engines.law_cov_paths_1d, spec.trials, spec.chunk,
                      workers, progress=progress, model=model,
                      kappa=spec.kappa, N=N, Q=Q, grid=grid,
                      seed=spec.master_seed, record_indices=rec)[0]
    times = grid.times()[rec]
    per_point = []
    raw = {p: [] for p in range(1, 10)}
    for j, t in enumerate(times):
        vals = out["cov"][:, j]
        vals = vals[np.isfinite(vals)]
        acc = MomentAccumulator(9).add(vals)
        for p in range(1, 10):
            raw[p].append(float(np.mean(vals ** p)))
        per_point.append(_core_row(
            N=N, t=float(t), mean=acc.mean, var=acc.variance,
            l2=float(np.sqrt(np.mean(vals ** 2))),
            l4=float(np.mean(vals ** 4) ** 0.25),
            std_moments=acc.std_moments(),
            diverged=int(out["cov"].shape[0] - vals.size)))
    fig4 = {"t": times, **{f"m{p}": np.array(raw[p]) for p in range(1, 10)}}
    fig1 = _fig1_columns(N)
    return per_point, {}, {"fig4_moments_flow": fig4, "fig1_thresholds": fig1}


def _fig1_columns(N: int, n_max: int = 10):
    ns = np.arange(1, n_max + 1)
    return {
        "n": ns,
        "threshold_N": np.array([moment_threshold(int(n)) for n in ns]),
        "finite_at_N": np.array([int(N > 2 * (n - 2)) for n in ns]),
    }


def _run_lyapunov(spec: StudySpec, model, workers, progress):
    grid = spec.time_grid()
    sm = _scalar_of(model)
    N = spec.N[0]
    burn_in = float(spec.options.get("burn_in", 20.0 / contraction_rate(sm)))
    burn_idx = int(round(burn_in / grid.dt))
    if burn_idx >= grid.steps:
        raise ConfigError("burn-in exceeds the study horizon")
    Q = float(spec.options.get("Q", equilibria(sm).rho_plus))
    out = _map_chunks(_engines.law_cov_paths_1d, spec.trials, spec.chunk,
                      workers, progress=progress, model=model,
                      kappa=spec.kappa, N=N, Q=Q, grid=grid,
                      seed=spec.master_seed, record_indices=[grid.steps],
                      integral_from=burn_idx)[0]
    alive = out["diverged_step"] < 0
    span = (grid.steps - burn_idx) * grid.dt
    rates = out["integral"][alive] / span
    lam_hat = float(np.mean(rates))
    lam_quad = lyapunov_exponent(sm, spec.kappa, N)
    row = _core_row(N=N, t=float(grid.horizon), mean=lam_hat,
                    var=float(np.var(rates, ddof=1)),
                    diverged=int(np.sum(~alive)),
                    lambda_quadrature=lam_quad,
                    lambda_se=float(np.std(rates, ddof=1) / math.sqrt(rates.size)),
                    rel_err=abs(lam_hat - lam_quad) / abs(lam_quad))
    if N > 4:
        lo, hi = lyapunov_bounds(sm, N, spec.kappa)
        row.update(bound_lo=lo, bound_hi=hi, in_bounds=bool(lo <= lam_quad <= hi))
    return [row], {}, {}


def _run_inflation_sweep(spec: StudySpec, model, workers, progress):
    grid = spec.time_grid()
    d = model.d
    Q = np.asarray(spec.options.get("Q", np.eye(d)), dtype=float).reshape(d, d)
    xis = spec.options.get("xi", [0.5])
    if not isinstance(xis, (list, tuple)):
        xis = [xis]
    every = int(spec.options.get("record_every", max(1, grid.steps // 20)))
    rec = _record_indices(grid.steps, every)
    times = grid.times()[rec]
    base = riccati_flow(model, Q, grid)
    per_point = []
    for kappa in (1.0, 0.0):
        for xi in xis:
            infl = inflated_riccati_flow(model, kappa, Q, grid,
                                         Inflation(xi=float(xi)))
            for k in rec:
                diff = infl[k].P - base[k].P if kappa == 1.0 \
                    else base[k].P - infl[k].P
                margin = float(np.linalg.eigvalsh(0.5 * (diff + diff.T))[0])
                per_point.append(_core_row(
                    N=None, t=float(grid.times()[k]), kappa=kappa,
                    xi=float(xi), margin=margin))
    return per_point, {}, {}


def _run_semigroup_contraction(spec: StudySpec, model, workers, progress):
    grid = spec.time_grid()
    N = spec.N[0]
    sm = _scalar_of(model)
    Q = float(spec.options.get("Q", equilibria(sm).rho_plus))
    P_inf = solve_are(model).P
    mu = float(model.A[0, 0] - P_inf[0, 0] * model.S[0, 0])
    threshold = 0.5 * mu
    out = _map_chunks(_engines.particle_cov_paths_1d, spec.trials, spec.chunk,
                      workers, progress=progress, model=model,
                      variant=spec.variant, N=N, grid=grid,
                      seed=spec.master_seed, record_indices=[grid.steps],
                      frame="error", m0=0.0, P0=Q, init="iid",
                      integral_from=0)[0]
    alive = out["diverged_step"] < 0
    rates = np.where(alive, out["integral"] / grid.horizon, np.inf)
    freq = float(np.mean(rates < threshold))
    row = _core_row(N=N, t=float(grid.horizon), mean=freq,
                    var=float(np.var(rates[alive], ddof=1)),
                    diverged=int(np.sum(~alive)),
                    threshold=threshold, mu_closed_loop=mu,
                    rate_mean=float(np.mean(rates[alive])))
    return [row], {}, {}


def _run_clt_variance(spec: StudySpec, model, workers, progress):
    grid = spec.time_grid()
    sm = _scalar_of(model)
    N = spec.N[0]
    Q = float(spec.options.get("Q", 0.0))
    from .scalar import riccati_closed_form

    out = _map_chunks(_engines.law_cov_paths_1d, spec.trials, spec.chunk,
                      workers, progress=progress, model=model,
                      kappa=spec.kappa, N=N, Q=Q, grid=grid,
                      seed=spec.master_seed, record_indices=[grid.steps])[0]
    vals = out["cov"][:, 0]
    finite = np.isfinite(vals)
    phi_T = float(riccati_closed_form(sm, Q, grid.horizon))
    dev = math.sqrt(N) * (vals[finite] - phi_T)
    empirical = float(np.var(dev, ddof=1))
    oracle = clt_variance_oracle(sm, spec.kappa, Q, grid.horizon)
    rel = abs(empirical - oracle) / oracle if oracle > 0 else math.nan
    row = _core_row(N=N, t=float(grid.horizon), mean=float(np.mean(dev)),
                    var=empirical, diverged=int(np.sum(~finite)),
                    oracle=oracle, rel_err=rel,
                    var_se=empirical * math.sqrt(2.0 / (dev.size - 1)))
    return [row], {}, {}


_RUNNERS = {
    "bias": _run_bias,
    "fluctuation_rate": _run_fluctuation_rate,
    "invariant_ks": _run_invariant_ks,
    "moments_flow": _run_moments_flow,
    "lyapunov": _run_lyapunov,
    "inflation_sweep": _run_inflation_sweep,
    "semigroup_contraction": _run_semigroup_contraction,
    "clt_variance": _run_clt_variance,
}


def run_study(spec: StudySpec, workers: int | None = None) -> StudySummary:
    """Execute a study and (when ``spec.out`` is set) persist its outputs.

    Writes ``summary.json``, ``per_point.csv``, and any figure-ready CSVs
    into the output directory.  On KeyboardInterrupt a partial manifest of
    completed chunks is persisted (``partial.json``) before re-raising.
    """
    workers = default_workers() if workers is None else max(1, int(workers))
    model = spec.lg_model()
    progress: list = []
    log.info("study %s: %d trials in chunks of %d, %d workers", spec.kind,
             spec.trials, spec.chunk, workers)
    t0 = time.perf_counter()
    try:
        per_point, fits, figures = _RUNNERS[spec.kind](spec, model, workers,
                                                       progress)
    except KeyboardInterrupt:
        if spec.out is not None:
            from pathlib import Path

            io.write_summary_json(
                Path(spec.out) / "partial.json",
                {"spec_echo": spec.to_dict(),
                 "completed_chunks": sorted(progress),
                 "per_point": [], "fits": {}})
        raise
    log.info("study %s: %d chunks in %.2f s", spec.kind, len(progress),
             time.perf_counter() - t0)
    summary = StudySummary(spec_echo=spec.to_dict(), per_point=per_point,
                           fits=fits)
    if spec.out is not None:
        from pathlib import Path

        out = Path(spec.out)
        summary.save(out)
        for name, cols in figures.items():
            io.write_columns_csv(out / f"{name}.csv", cols)
    return summary
