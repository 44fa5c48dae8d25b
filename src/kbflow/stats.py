"""Monte Carlo estimators and pre-built studies.

Estimators: Kolmogorov-Smirnov distance against a reference cdf, the Hill
tail-index estimator, least-squares slope fits with standard errors, and a
chunk-mergeable central-moment accumulator (orders up to 9).

Studies: the kinds of :data:`STUDY_KINDS`, each one ``_KINDS`` entry (the
rules its :class:`StudySpec` is checked against, and the runner that
:func:`run_study` calls).  Trials are partitioned into fixed-size chunks
whose index seeds the noise streams.  Each study hands all of its engine runs
(jobs) to one call of :func:`_map_chunks`, which runs their chunks in the
calling process or, with several workers, in one process pool; summaries
are bit-reproducible for a fixed spec regardless of the worker count or
that scheduling, and aggregation is ordered by chunk index.  Divergent
trials are excluded from moment aggregates but counted, by one rule for
every kind (:func:`_survivors`): fewer than two survivors give a NaN
variance and standard error, none give NaN statistics, and nothing warns.
Progress (the chunk layout, and each chunk's wall time at DEBUG) goes to the
``kbflow`` logger.
"""

from __future__ import annotations

import copy
import logging
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, fields
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from . import _engines, io
from .ensemble import Inflation, inflated_riccati_flow
from .errors import ConfigError, NotPSD
from .kalman import riccati_flow
from .model import (LinearGaussianModel, ScalarModel, _check_covariance, _check_symmetric,
                    solve_are)
from .scalar import (clt_variance_oracle, contraction_rate, equilibria,
                     invariant_density, lyapunov_bounds, lyapunov_exponent,
                     moment_threshold, riccati_closed_form)
from .sde import TimeGrid, _as_int

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
    moment E[(x-mean)^p]/sd^p.  Without samples every statistic is NaN;
    samples whose powers overflow give inf or NaN moments.
    """

    def __init__(self, order: int = 9):
        if not 2 <= order <= 12:
            raise ValueError(f"order must be in [2, 12], got {order}")
        self.order = order
        self.n = 0
        self.mean = math.nan
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
        sd = np.sqrt(self._M[2] / self.n) if self.n else math.nan
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

#: Record values per block when the lag-1 statistics read a record stack (a
#: block holds at least one replica): each temporary of a block is at most
#: 256 KiB, however long the stack.
_BLOCK_VALUES = 2 ** 15


def _lag1_correlation(series: np.ndarray, rows=None, stride: int = 1) -> float:
    """Mean per-replica lag-1 autocorrelation of an (R, K) record array,
    over the replicas ``rows`` (an index array; all if None), each thinned
    to every ``stride``-th record.

    The array is read a block of replicas at a time, and a replica's
    autocorrelation depends on its own row only, so the result does not
    depend on the blocks.  Replicas of zero variance are left out; without
    any other the mean is 0.
    """
    rows = np.arange(series.shape[0]) if rows is None else rows
    per_block = max(1, _BLOCK_VALUES // len(range(0, series.shape[1], stride)))
    num, den = np.empty((2, rows.size))
    for lo in range(0, rows.size, per_block):
        x = series[rows[lo:lo + per_block], ::stride]
        a0 = x[:, :-1] - x[:, :-1].mean(axis=1, keepdims=True)
        b0 = x[:, 1:] - x[:, 1:].mean(axis=1, keepdims=True)
        num[lo:lo + per_block] = np.sum(a0 * b0, axis=1)
        den[lo:lo + per_block] = np.sqrt(np.sum(a0 * a0, axis=1) * np.sum(b0 * b0, axis=1))
    ok = den > 0
    if not np.any(ok):
        return 0.0
    return float(np.mean(num[ok] / den[ok]))


def decorrelation_stride(series: np.ndarray, target: float = 0.1) -> int:
    """Smallest power-of-two thinning stride with lag-1 autocorrelation of
    the thinned records below ``target``.  The search ends at the first
    stride s with K // s < 4 (K records per row), which is returned
    untested."""
    return _decorrelation_stride(series, None, target)


def _decorrelation_stride(series: np.ndarray, rows, target: float) -> int:
    """:func:`decorrelation_stride` over the replicas ``rows`` (all if
    None), read in place."""
    stride = 1
    while series.shape[1] // stride >= 4:
        if abs(_lag1_correlation(series, rows, stride)) < target:
            return stride
        stride *= 2
    return stride


def stationary_covariance_samples(model: LinearGaussianModel, variant, N: int,
                                  master_seed: int, *, dt: float = 1e-4,
                                  replicas: int = 300, horizon: float = 5.0,
                                  burn_in: float | None = None,
                                  record_stride: int = 10,
                                  target_lag_corr: float = 0.1,
                                  chunk: int = CHUNK_SIZE, workers: int = 1) -> dict:
    """Pooled stationary occupation samples of the scalar sample covariance.

    Protocol: particles start i.i.d. with variance rho_plus (the Riccati
    fixed point), burn-in 20/sqrt(A^2+RS) time units is discarded, the
    covariance is recorded every ``record_stride`` steps, a thinning stride
    is chosen so the thinned lag-1 autocorrelation is below
    ``target_lag_corr``, and the thinned records are pooled across
    replicas.  Replicas that diverge are excluded from the pool but
    counted.

    The arguments are checked before any kernel runs, and a bad one is a
    ValueError that names it: ``N``, ``replicas``, ``chunk`` and
    ``workers`` are integers >= 1, ``master_seed`` an integer >= 0, ``dt``
    finite and > 0; ``horizon``, ``burn_in`` (when given), ``record_stride``
    and ``target_lag_corr`` take the ranges of the ``invariant_ks`` study
    options of the same names.  ``record_stride`` and ``horizon`` must
    leave at least 4 records per replica, the fewest the stride search
    tests.

    Memory: the pool reads the replicas' record stack in place.  Beyond
    the stack and the samples it returns, it holds a few temporaries of one
    block of replicas (at most 2^15 records each).
    """
    N, replicas, chunk, workers, master_seed = (_int_at_least(*arg) for arg in (
        ("N", N, 1), ("replicas", replicas, 1), ("chunk", chunk, 1),
        ("workers", workers, 1), ("master_seed", master_seed, 0)))
    if isinstance(dt, bool) or not isinstance(dt, numbers.Real) or not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    for key, value in (("horizon", horizon), ("burn_in", burn_in),
                       ("record_stride", record_stride), ("target_lag_corr", target_lag_corr)):
        if value is not None and not _in_range(key, value):
            raise ValueError(f"{key} must be {_OPTION_RANGES[key][1]}, got {value!r}")
    record_stride = int(record_stride)
    job = _stationary_job(model, N, dt, horizon, burn_in, record_stride)
    out = _map_chunks(_engines.particle_cov_paths_1d, replicas, chunk, workers,
                      variant=variant, seed=master_seed, **job)[0]
    return _stationary_pool(out, job, record_stride, target_lag_corr)


def _int_at_least(name: str, value, least: int) -> int:
    """``value`` as an ``int`` >= ``least``; otherwise a ValueError naming
    ``name``."""
    value = _as_int(name, value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _stationary_job(model: LinearGaussianModel, N: int, dt: float, horizon: float,
                    burn_in: float | None, record_stride: int) -> dict:
    """Engine keywords, all but the variant and seed, of the stationary
    occupation protocol of :func:`stationary_covariance_samples`; a
    ValueError if a replica would record fewer than 4 covariances."""
    sm = _scalar_of(model)
    if burn_in is None:
        burn_in = 20.0 / contraction_rate(sm)
    burn_idx = max(1, int(math.ceil(float(burn_in) / dt - 1e-9)))
    grid = TimeGrid(0.0, dt, burn_idx + int(round(float(horizon) / dt)))
    record_indices = np.arange(burn_idx, grid.steps + 1, record_stride)
    if record_indices.size < 4:
        raise ValueError(
            f"record_stride {record_stride} over a horizon of {horizon} "
            f"({grid.steps - burn_idx} steps of dt {dt}) leaves {record_indices.size} "
            "records per replica; the decorrelation stride needs >= 4: lengthen "
            "the horizon or lower record_stride")
    return dict(model=model, N=N, grid=grid, record_indices=record_indices,
                P0=equilibria(sm).rho_plus)


def _stationary_pool(out: dict, job: dict, record_stride: int,
                     target_lag_corr: float) -> dict:
    """Thin and pool the recorded covariances of a stationary job, reading
    the record stack in place and copying out only the pooled samples."""
    stack, div = out["cov"], out["diverged_step"]
    rows = _survivors(np.arange(div.size), div, job["grid"].steps)
    stride = _decorrelation_stride(stack, rows.values, target_lag_corr)
    samples = stack[rows.values, ::stride].ravel()
    dt = job["grid"].dt
    return {
        "samples": samples,
        "effective": int(samples.size),
        "stride_steps": int(stride * record_stride),
        "lag_corr": _lag1_correlation(stack, rows.values, stride),
        "diverged": rows.diverged,
        "replicas": int(div.size),
        "burn_in": float(int(job["record_indices"][0]) * dt),
        "dt": float(dt),
    }


# ---------------------------------------------------------------------------
# study specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Kind:
    """One study kind: its runner and the rules its :class:`StudySpec` obeys.

    ``run(spec, model, workers)`` returns ``(per_point, fits,
    figures)``.  ``axis`` is the spec field it runs along (a key of ``_AXES``)
    or None; the other ``_AXES`` fields of its spec stay None.  A ``scalar``
    kind needs an observed d = d_y = 1 model, one that ``needs_R`` also
    R > 0, a ``ci`` kind >= 100 trials, and an ``n_list`` kind a strictly
    increasing list of >= 4 N; the others take one N.
    """

    run: object
    options: frozenset
    axis: str | None = None
    scalar: bool = False
    needs_R: bool = False
    ci: bool = False
    n_list: bool = False


#: The values of each axis, and how a rejection names them.
_AXES = {"variant": (("vanilla", "deterministic"), "variant 'vanilla' or 'deterministic'"),
         "kappa": ((0, 1), "kappa in {0, 1}")}
#: The range of each numeric option, as (test, description); ``xi`` may
#: also be a list, each entry in range.
_OPTION_RANGES = {
    "record_every": (lambda x: x >= 1 and x.is_integer(), "an integer >= 1"),
    "record_stride": (lambda x: x >= 1 and x.is_integer(), "an integer >= 1"),
    "burn_in": (lambda x: 0 <= x < math.inf, "finite and >= 0"),
    "horizon": (lambda x: 0 < x < math.inf, "finite and > 0"),
    "target_lag_corr": (lambda x: 0 < x < 1, "in (0, 1)"),
    "confidence": (lambda x: 0 < x < 1, "in (0, 1)"),
    "xi": (lambda x: x >= 0, ">= 0"),
}


def _check_initial_covariance(Q, d: int, scalar: bool) -> None:
    """``options.Q``: a finite, symmetric PSD d x d matrix, or a number at
    d = 1 (the only form a scalar study takes)."""
    try:
        Q = np.asarray(Q, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"options.Q must be a number or a matrix: {exc}") from exc
    if scalar:
        ok, form = Q.ndim == 0, "a number"
    else:
        ok = Q.shape == (d, d) or (d == 1 and Q.ndim == 0)
        form = f"a {d} x {d} matrix" + (" or a number" if d == 1 else "")
    if not ok:
        raise ConfigError(f"options.Q must be {form}, got shape {Q.shape}")
    Q = Q.reshape(d, d)
    try:
        _check_covariance(Q, d, "options.Q")
        _check_symmetric(Q, "options.Q")
    except (NotPSD, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _integer(key: str, value) -> int:
    """``value`` as an ``int``; a bool or a non-integral value (1.5, 8.7) is
    a ConfigError naming ``key``."""
    try:
        return _as_int(key, value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _in_range(key: str, value) -> bool:
    """Whether ``value`` is a number in the range of option ``key``."""
    ok, _ = _OPTION_RANGES[key]
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and ok(float(value))


def _check_option_range(key: str, value) -> None:
    values = value if key == "xi" and isinstance(value, (list, tuple)) else [value]
    if not values:
        raise ConfigError(f"options.{key} must be a non-empty list, got {value!r}")
    if not all(_in_range(key, v) for v in values):
        raise ConfigError(f"options.{key} must be {_OPTION_RANGES[key][1]}, got {value!r}")


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
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown study kind {self.kind!r}; "
                              f"expected one of {', '.join(STUDY_KINDS)}")
        kind = _KINDS[self.kind]
        try:
            model = self.lg_model()
        except Exception as exc:
            raise ConfigError(f"invalid model payload: {exc}") from exc
        if kind.scalar:
            if (model.d, model.d_y) != (1, 1):
                raise ConfigError(f"{self.kind} is a scalar study and needs d = d_y = 1, "
                                  f"got d={model.d}, d_y={model.d_y}")
            if model.S[0, 0] == 0.0:
                raise ConfigError(f"{self.kind} needs an observed signal "
                                  "(S = H^2/R1 > 0), got H = 0")
            if kind.needs_R and not model.R[0, 0] > 0.0:
                raise ConfigError(f"{self.kind} needs signal noise (R > 0), "
                                  f"got R = {model.R[0, 0]}")
        for key in ("master_seed", "trials", "chunk"):
            object.__setattr__(self, key, _integer(key, getattr(self, key)))
        object.__setattr__(self, "N", tuple(_integer("N", n) for n in
                                            (self.N if isinstance(self.N, (list, tuple))
                                             else [self.N])))
        if isinstance(self.grid, dict) and "steps" in self.grid:
            object.__setattr__(self, "grid", {
                **self.grid, "steps": _integer("grid.steps", self.grid["steps"])})
        try:
            self.time_grid()
        except Exception as exc:
            raise ConfigError(f"invalid grid: {exc}") from exc
        if any(n < 1 for n in self.N):
            raise ConfigError(f"N entries must be >= 1, got {self.N}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if kind.ci and self.trials < 100:
            raise ConfigError(f"{self.kind} is a CI study and needs >= 100 "
                              f"trials, got {self.trials}")
        if kind.n_list:
            if len(self.N) < 4 or any(b <= a for a, b in zip(self.N, self.N[1:])):
                raise ConfigError(f"{self.kind} needs a strictly increasing "
                                  f"N list with >= 4 entries, got {self.N}")
        elif len(self.N) != 1:
            raise ConfigError(f"{self.kind} takes one N, got {self.N}")
        if kind.axis is not None:
            allowed, what = _AXES[kind.axis]
            value = getattr(self, kind.axis)
            if isinstance(value, bool) or value not in allowed:
                raise ConfigError(f"{self.kind} requires {what}, got {value!r}")
        if self.chunk < 1:
            raise ConfigError(f"chunk must be >= 1, got {self.chunk}")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        unknown = set(self.options) - kind.options
        if unknown:
            raise ConfigError(f"unknown options for {self.kind}: "
                              f"{sorted(unknown)}; allowed: {sorted(kind.options)}")
        if "Q" in self.options:
            _check_initial_covariance(self.options["Q"], model.d, scalar=kind.scalar)
        for key in _OPTION_RANGES.keys() & self.options.keys():
            _check_option_range(key, self.options[key])
        for axis in _AXES:
            if axis != kind.axis and getattr(self, axis) is not None:
                raise ConfigError(f"{self.kind} takes no {axis}, "
                                  f"got {getattr(self, axis)!r}")

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
            "master_seed": self.master_seed, "trials": self.trials,
            "N": list(self.N), "variant": self.variant,
            "kappa": self.kappa, "out": self.out, "chunk": self.chunk,
            "options": copy.deepcopy(self.options),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StudySpec":
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown StudySpec keys: {sorted(unknown)}")
        if "kind" not in payload or "model" not in payload or "grid" not in payload:
            raise ConfigError("StudySpec requires kind, model, and grid")
        return cls(**payload)


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
        out = io.Path(out_dir)
        return [io.write_summary_json(out / "summary.json", self.to_dict()),
                io.write_per_point_csv(out / "per_point.csv", self.per_point)]


# ---------------------------------------------------------------------------
# chunked execution
# ---------------------------------------------------------------------------

def _timed_chunk(engine, kw: dict):
    t0 = time.perf_counter()
    out = engine(**kw)
    return out, time.perf_counter() - t0


def _map_chunks(engine, trials: int, chunk: int, workers: int, jobs=({},),
                **kw) -> list[dict]:
    """Run every job of a study over trial chunks, in one pass.

    Job ``j`` runs the batch engine ``engine`` with ``trials``, ``chunk``,
    ``first_chunk = 0`` and the keyword arguments ``kw``, each updated by
    ``jobs[j]``; its trials are split into chunks of ``chunk``.  With more
    than one worker and more than one chunk, the chunks of all jobs share
    one process pool; otherwise they run in this process.  Returns one
    result per job, its chunks joined in chunk order by the kernels'
    ``_engines._join``.  If a chunk raises or the run is interrupted, the chunks
    not yet started are cancelled before the error propagates.
    """
    tasks = []  # (job, chunk index, engine keywords)
    for j, over in enumerate(jobs):
        job = {**kw, "trials": trials, "chunk": chunk, "first_chunk": 0, **over}
        for c, size in _engines._chunks(job["trials"], job["chunk"], job["first_chunk"]):
            tasks.append((j, c, dict(job, trials=size, first_chunk=c)))
    parts = [{} for _ in jobs]

    def done(j, c, out, seconds):
        parts[j][c] = out
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
    return [_engines._join([p[c] for c in sorted(p)]) for p in parts]


def default_workers() -> int:
    """Worker count: ``KBFLOW_WORKERS`` if it is set to an integer, else the
    number of CPUs this process may run on (``os.sched_getaffinity``, or
    ``os.cpu_count()`` where that is missing).  :func:`_map_chunks` caps it
    at the study's chunk count, so a one-chunk study runs in process."""
    try:
        return max(1, int(os.environ["KBFLOW_WORKERS"]))
    except (KeyError, ValueError):
        pass
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# study runners
# ---------------------------------------------------------------------------

def _core_row(**kw) -> dict:
    row = {"N": None, "t": None, "mean": None, "var": None, "l2": None,
           "l4": None, "std_moments": None, "ks": None, "diverged": 0}
    row.update(kw)
    return row


class _Survivors(NamedTuple):
    values: np.ndarray  # the surviving trials, in trial order
    diverged: int
    mean: object  # a float, or an array of the trailing shape
    var: object
    se: object
    l2: float
    l4: float


def _survivors(values, diverged_step, step: int, target=0.0) -> _Survivors:
    """The trials of ``values`` (trials, ...) alive at record step ``step``
    and their statistics: the one survivor rule of every study kind.

    A trial is alive at ``step`` if it never diverged (``diverged_step`` < 0,
    one step per trial or one for all) or diverged after ``step``; the others
    are counted in ``diverged``.  The statistics of the survivors are the
    mean, variance (ddof = 1) and standard error along the trials axis, and
    L2 and L4, (E|D|^2)^(1/2) and (E|D|^4)^(1/4) for D a trial's deviation
    from ``target`` (its Frobenius norm for a matrix).  Var and SE are NaN
    below two survivors, every statistic is NaN without one, and survivors
    near overflow give inf or NaN statistics without a warning.
    """
    alive = np.broadcast_to((diverged_step < 0) | (diverged_step > step), values.shape[:1])
    x = values[alive]
    n = x.shape[0]
    nan = np.full(x.shape[1:], np.nan)[()]
    if n == 0:
        return _Survivors(x, alive.size, nan, nan, nan, math.nan, math.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        var = np.var(x, axis=0, ddof=1) if n > 1 else nan
        dev = x - target
        if dev.ndim > 1:
            dev = np.sqrt(np.sum(dev * dev, axis=tuple(range(1, dev.ndim))))
        return _Survivors(x, int(alive.size - n), mean, var, np.sqrt(var) / math.sqrt(n),
                          np.sqrt(np.mean(dev ** 2)), np.mean(dev ** 4) ** 0.25)


def _record_indices(steps: int, every: int) -> np.ndarray:
    rec = np.arange(0, steps + 1, every)
    if rec[-1] != steps:
        rec = np.append(rec, steps)
    return rec


def _scalar_of(model: LinearGaussianModel) -> ScalarModel:
    return ScalarModel(A=float(model.A[0, 0]), R=float(model.R[0, 0]),
                       S=float(model.S[0, 0]))


def _run_bias(spec: StudySpec, model, workers):
    grid = spec.time_grid()
    d = model.d
    Q = np.asarray(spec.options.get("Q", np.eye(d)), dtype=float).reshape(d, d)
    every = int(spec.options.get("record_every", max(1, grid.steps // 20)))
    z = NormalDist().inv_cdf(float(spec.options.get("confidence", 0.99)))
    rec = _record_indices(grid.steps, every)
    phis = riccati_flow(model, Q, grid).P[rec]
    times = grid.times()[rec]
    N = spec.N[0]

    out = _map_chunks(_engines.particle_cov_paths_nd, spec.trials, spec.chunk, workers,
                      model=model, variant=spec.variant, N=N, grid=grid,
                      seed=spec.master_seed, record_indices=rec, P0=Q)[0]

    per_point = []
    for j, (t, phi) in enumerate(zip(times, phis)):
        s = _survivors(out["cov"][:, j], out["diverged_step"], rec[j], phi)
        if d > 1 and s.values.size:  # along the most under-estimated direction
            u = np.linalg.eigh(phi - s.mean)[1][:, 0]
            proj = np.einsum("i,nij,j->n", u, s.values, u)
            target, mean_rep = float(u @ phi @ u), s.mean.tolist()
        else:
            proj, target, mean_rep = s.values[:, 0, 0], float(phi[0, 0]), float(s.mean[0, 0])
        p = _survivors(proj, -1, rec[j])  # the survivors' projections
        margin = float(p.mean) - target
        per_point.append(_core_row(
            N=N, t=float(t), mean=mean_rep, var=p.var, l2=s.l2, l4=s.l4,
            diverged=s.diverged, margin=margin, margin_se=p.se,
            ci_ok=bool(margin <= z * p.se)))
    return per_point, {}, {}


#: The fig3 sample covariance paths at the extreme N values: one chunk of
#: three trials, addressed apart from the study's own chunks.
_FIG3_PATHS = {"trials": 3, "chunk": 3, "first_chunk": 10_000}


def _run_fluctuation_rate(spec: StudySpec, model, workers):
    grid = spec.time_grid()
    sm = _scalar_of(model)
    Q = float(spec.options.get("Q", 1.0))
    phi_T = float(riccati_closed_form(sm, Q, grid.horizon))
    n_chunks = len(list(_engines._chunks(spec.trials, spec.chunk)))
    fig3_N = (spec.N[0], spec.N[-1])
    fig3_rec = _record_indices(grid.steps, max(1, grid.steps // 200))
    outs = _map_chunks(
        _engines.law_cov_paths_1d, spec.trials, spec.chunk, workers,
        jobs=[{"N": N, "first_chunk": i * n_chunks} for i, N in enumerate(spec.N)]
        + [{"N": N, **_FIG3_PATHS, "record_indices": fig3_rec} for N in fig3_N],
        model=model, kappa=spec.kappa, Q=Q, grid=grid, seed=spec.master_seed,
        record_indices=[grid.steps])
    per_point = []
    for N, out in zip(spec.N, outs):
        s = _survivors(out["cov"][:, 0], out["diverged_step"], grid.steps, phi_T)
        per_point.append(_core_row(N=N, t=float(grid.horizon), mean=s.mean, var=s.var,
                                   l2=s.l2, l4=s.l4, diverged=s.diverged))
    slope, stderr = slope_fit(np.log([p["N"] for p in per_point]),
                              np.log([p["l2"] for p in per_point]))
    times = grid.times()[fig3_rec]
    cols = {"t": times, "phi": riccati_closed_form(sm, Q, times)}
    for N, out in zip(fig3_N, outs[len(spec.N):]):
        for j, path in enumerate(out["cov"]):
            cols[f"path_N{N}_{j + 1}"] = path
    return per_point, {"slope": slope, "stderr": stderr}, {"fig3_riccati_paths": cols}


def _run_invariant_ks(spec: StudySpec, model, workers):
    grid = spec.time_grid()
    sm = _scalar_of(model)
    N = spec.N[0]
    opts = spec.options
    record_stride = int(opts.get("record_stride", 10))
    try:
        job = _stationary_job(model, N, grid.dt, float(opts.get("horizon", grid.horizon)),
                              opts.get("burn_in"), record_stride)
    except ValueError as exc:
        raise ConfigError(f"invariant_ks: {exc}") from None
    n_chunks = len(list(_engines._chunks(spec.trials, spec.chunk)))
    variants = (("vanilla", 1.0), ("deterministic", 0.0))
    outs = _map_chunks(_engines.particle_cov_paths_1d, spec.trials, spec.chunk, workers,
                       jobs=[{"variant": variant, "first_chunk": i * n_chunks}
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
        pooled = _survivors(occ["samples"], -1, 0)  # the survivors' samples
        pools[variant] = occ
        per_point.append(_core_row(
            N=N, mean=acc.mean, var=acc.variance, l2=pooled.l2, l4=pooled.l4,
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


def _run_moments_flow(spec: StudySpec, model, workers):
    grid = spec.time_grid()
    N = spec.N[0]
    Q = float(spec.options.get("Q", 1.0))
    every = int(spec.options.get("record_every", max(1, grid.steps // 50)))
    rec = _record_indices(grid.steps, every)
    out = _map_chunks(_engines.law_cov_paths_1d, spec.trials, spec.chunk, workers,
                      model=model, kappa=spec.kappa, N=N, Q=Q, grid=grid,
                      seed=spec.master_seed, record_indices=rec)[0]
    times = grid.times()[rec]
    per_point = []
    raw = {p: [] for p in range(1, 10)}
    for j, t in enumerate(times):
        s = _survivors(out["cov"][:, j], out["diverged_step"], rec[j])
        # survivors near overflow give inf or NaN moments, recorded as such
        with np.errstate(over="ignore", invalid="ignore"):
            acc = MomentAccumulator(9).add(s.values)
            for p in range(1, 10):
                raw[p].append(float(np.mean(s.values ** p)) if s.values.size else math.nan)
            std_moments = acc.std_moments()
        per_point.append(_core_row(
            N=N, t=float(t), mean=acc.mean, var=acc.variance, l2=s.l2, l4=s.l4,
            std_moments=std_moments, diverged=s.diverged))
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


def _run_lyapunov(spec: StudySpec, model, workers):
    grid = spec.time_grid()
    sm = _scalar_of(model)
    N = spec.N[0]
    burn_in = float(spec.options.get("burn_in", 20.0 / contraction_rate(sm)))
    burn_idx = int(round(burn_in / grid.dt))
    if burn_idx >= grid.steps:
        raise ConfigError("burn-in exceeds the study horizon")
    Q = float(spec.options.get("Q", equilibria(sm).rho_plus))
    out = _map_chunks(_engines.law_cov_paths_1d, spec.trials, spec.chunk, workers,
                      model=model, kappa=spec.kappa, N=N, Q=Q, grid=grid,
                      seed=spec.master_seed, record_indices=[grid.steps],
                      integral_from=burn_idx)[0]
    # a diverged trial's integral is finite: it stops at the divergence
    rates = _survivors(out["integral"] / ((grid.steps - burn_idx) * grid.dt),
                       out["diverged_step"], grid.steps)
    lam_hat = float(rates.mean)
    lam_quad = lyapunov_exponent(sm, spec.kappa, N)
    row = _core_row(N=N, t=float(grid.horizon), mean=lam_hat, var=rates.var,
                    diverged=rates.diverged, lambda_quadrature=lam_quad,
                    lambda_se=rates.se, rel_err=abs(lam_hat - lam_quad) / abs(lam_quad))
    if N > 4:
        lo, hi = lyapunov_bounds(sm, N, spec.kappa)
        row.update(bound_lo=lo, bound_hi=hi, in_bounds=bool(lo <= lam_quad <= hi))
    return [row], {}, {}


def _run_inflation_sweep(spec: StudySpec, model, workers):
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
            for k, t in zip(rec, times):
                diff = infl.P[k] - base.P[k] if kappa == 1.0 \
                    else base.P[k] - infl.P[k]
                margin = float(np.linalg.eigvalsh(0.5 * (diff + diff.T))[0])
                per_point.append(_core_row(
                    N=None, t=float(t), kappa=kappa,
                    xi=float(xi), margin=margin))
    return per_point, {}, {}


def _run_semigroup_contraction(spec: StudySpec, model, workers):
    grid = spec.time_grid()
    N = spec.N[0]
    sm = _scalar_of(model)
    Q = float(spec.options.get("Q", equilibria(sm).rho_plus))
    P_inf = solve_are(model).P
    mu = float(model.A[0, 0] - P_inf[0, 0] * model.S[0, 0])
    threshold = 0.5 * mu
    out = _map_chunks(_engines.particle_cov_paths_1d, spec.trials, spec.chunk, workers,
                      model=model, variant=spec.variant, N=N, grid=grid,
                      seed=spec.master_seed, record_indices=[grid.steps], P0=Q,
                      integral_from=0)[0]
    # a diverged trial's integral is finite (it stops at the divergence),
    # and the trial counts as not contracting
    rates = _survivors(out["integral"] / grid.horizon, out["diverged_step"], grid.steps)
    freq = np.count_nonzero(rates.values < threshold) / spec.trials
    row = _core_row(N=N, t=float(grid.horizon), mean=freq, var=rates.var,
                    diverged=rates.diverged, threshold=threshold, mu_closed_loop=mu,
                    rate_mean=rates.mean)
    return [row], {}, {}


def _run_clt_variance(spec: StudySpec, model, workers):
    grid = spec.time_grid()
    sm = _scalar_of(model)
    N = spec.N[0]
    Q = float(spec.options.get("Q", 0.0))
    out = _map_chunks(_engines.law_cov_paths_1d, spec.trials, spec.chunk, workers,
                      model=model, kappa=spec.kappa, N=N, Q=Q, grid=grid,
                      seed=spec.master_seed, record_indices=[grid.steps])[0]
    phi_T = float(riccati_closed_form(sm, Q, grid.horizon))
    dev = _survivors(math.sqrt(N) * (out["cov"][:, 0] - phi_T), out["diverged_step"],
                     grid.steps)
    oracle = clt_variance_oracle(sm, spec.kappa, Q, grid.horizon)
    rel = abs(dev.var - oracle) / oracle if oracle > 0 else math.nan
    # the normal-theory SE of a variance; NaN with the variance below two survivors
    var_se = dev.var * math.sqrt(2.0 / max(len(dev.values) - 1, 1))
    row = _core_row(N=N, t=float(grid.horizon), mean=dev.mean, var=dev.var,
                    diverged=dev.diverged, oracle=oracle, rel_err=rel, var_se=var_se)
    return [row], {}, {}


#: Every study kind: what its spec must satisfy and the runner it calls.
_KINDS = {
    "bias": _Kind(_run_bias, frozenset({"Q", "record_every", "confidence"}),
                  axis="variant", ci=True),
    "fluctuation_rate": _Kind(_run_fluctuation_rate, frozenset({"Q"}), axis="kappa",
                              scalar=True, needs_R=True, n_list=True),
    "invariant_ks": _Kind(_run_invariant_ks, frozenset({"burn_in", "record_stride",
                                                        "target_lag_corr", "horizon"}),
                          scalar=True, needs_R=True),
    "moments_flow": _Kind(_run_moments_flow, frozenset({"Q", "record_every"}),
                          axis="kappa", scalar=True),
    "lyapunov": _Kind(_run_lyapunov, frozenset({"burn_in", "Q"}), axis="kappa",
                      scalar=True, needs_R=True),
    "inflation_sweep": _Kind(_run_inflation_sweep, frozenset({"Q", "xi", "record_every"})),
    "semigroup_contraction": _Kind(_run_semigroup_contraction, frozenset({"Q"}),
                                   axis="variant", scalar=True, needs_R=True, ci=True),
    "clt_variance": _Kind(_run_clt_variance, frozenset({"Q"}), axis="kappa",
                          scalar=True, needs_R=True, ci=True),
}
STUDY_KINDS = tuple(_KINDS)


def run_study(spec: StudySpec, workers: int | None = None) -> StudySummary:
    """Execute a study and (when ``spec.out`` is set) persist its outputs.

    Writes ``summary.json``, ``per_point.csv``, and any figure-ready CSVs
    into the output directory, once the study has finished; an interrupted
    or failing study writes nothing.
    """
    workers = default_workers() if workers is None else max(1, int(workers))
    model = spec.lg_model()
    log.info("study %s: %d trials in chunks of %d, %d workers", spec.kind,
             spec.trials, spec.chunk, workers)
    t0 = time.perf_counter()
    per_point, fits, figures = _KINDS[spec.kind].run(spec, model, workers)
    log.info("study %s: done in %.2f s", spec.kind, time.perf_counter() - t0)
    summary = StudySummary(spec_echo=spec.to_dict(), per_point=per_point,
                           fits=fits)
    if spec.out is not None:
        out = io.Path(spec.out)
        summary.save(out)
        for name, cols in figures.items():
            io.write_columns_csv(out / f"{name}.csv", cols)
    return summary
