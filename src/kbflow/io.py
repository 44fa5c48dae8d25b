"""CSV/JSON persistence for trajectories, study summaries, and figure data.

Trajectory CSV layout (one row per grid point): ``t, X_1..X_d, Z_1..Z_d,
P_11..P_dd`` with the covariance stored as the row-major upper triangle.
Run trajectories (exact, ensemble or law-level) append the metadata
columns ``variant, N, xi, kappa, mu_closed_loop, diverged_at`` (metadata
repeats per row so the file stands alone; an exact run's ``N`` is empty).
Every writer here has a matching loader and round-trips.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np


def _upper_triangle_labels(d: int) -> list[str]:
    return [f"P_{i + 1}{j + 1}" for i in range(d) for j in range(i, d)]


def _pack_upper(P: np.ndarray) -> list[float]:
    d = P.shape[0]
    return [float(P[i, j]) for i in range(d) for j in range(i, d)]


def _unpack_upper(values, d: int) -> np.ndarray:
    P = np.empty((d, d))
    it = iter(values)
    for i in range(d):
        for j in range(i, d):
            P[i, j] = P[j, i] = next(it)
    return P


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return repr(float(value))


def write_trajectory_csv(path, t, mean, cov, error, extras: dict | None = None):
    """Write a trajectory to CSV.

    ``extras`` (see :func:`trajectory_extras`) carries the constant run
    metadata columns (variant, N, xi, kappa, diverged_at) plus the per-row
    ``mu_closed_loop`` array; ``N = None`` is written as an empty cell.
    Without ``extras`` only the state columns are written.
    """
    t = np.asarray(t, dtype=float)
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    error = np.asarray(error, dtype=float)
    K, d = mean.shape
    header = ["t"] + [f"X_{i + 1}" for i in range(d)] \
        + [f"Z_{i + 1}" for i in range(d)] + _upper_triangle_labels(d)
    mu = None
    if extras is not None:
        header += ["variant", "N", "xi", "kappa", "mu_closed_loop", "diverged_at"]
        mu = np.asarray(extras["mu_closed_loop"], dtype=float)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k in range(K):
            row = [_fmt(t[k])] + [_fmt(v) for v in mean[k]] \
                + [_fmt(v) for v in error[k]] + [_fmt(v) for v in _pack_upper(cov[k])]
            if extras is not None:
                row += [str(extras["variant"]),
                        "" if extras["N"] is None else str(int(extras["N"])),
                        _fmt(extras["xi"]), _fmt(extras["kappa"]),
                        _fmt(mu[k]), _fmt(extras.get("diverged_at"))]
            w.writerow(row)
    return path


def load_trajectory_csv(path) -> dict:
    """Load a trajectory CSV back into arrays (plus extras when present)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    d = sum(1 for name in header if name.startswith("X_"))
    n_tri = d * (d + 1) // 2
    has_extras = "variant" in header
    t, mean, err, cov, mu = [], [], [], [], []
    for row in rows:
        t.append(float(row[0]))
        mean.append([float(v) for v in row[1:1 + d]])
        err.append([float(v) for v in row[1 + d:1 + 2 * d]])
        cov.append(_unpack_upper([float(v) for v in row[1 + 2 * d:1 + 2 * d + n_tri]], d))
        if has_extras:
            mu.append(float(row[1 + 2 * d + n_tri + 4]))
    out = {
        "t": np.array(t), "mean": np.array(mean), "error": np.array(err),
        "cov": np.array(cov),
    }
    if has_extras:
        base = 1 + 2 * d + n_tri
        last = rows[-1]
        out["variant"] = last[base]
        out["N"] = int(last[base + 1]) if last[base + 1] else None
        out["xi"] = float(last[base + 2])
        out["kappa"] = float(last[base + 3]) if last[base + 3] != "nan" else math.nan
        out["mu_closed_loop"] = np.array(mu)
        out["diverged_at"] = float(last[base + 5]) if last[base + 5] else None
    return out


def trajectory_extras(record) -> dict:
    """Extras dict for write_trajectory_csv from a TrajectoryRecord of any
    variant: ``kappa = None`` (the exact filter, transport) becomes nan, and
    ``N = None`` (the exact filter) an empty cell."""
    return {
        "variant": record.variant, "N": record.N, "xi": record.xi,
        "kappa": record.kappa if record.kappa is not None else math.nan,
        "mu_closed_loop": record.mu_closed_loop,
        "diverged_at": record.diverged_at,
    }


# ---------------------------------------------------------------------------
# study summaries
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "Divergent" if obj > 0 else "-Divergent"
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_summary_json(path, summary_dict: dict):
    """Serialize {spec_echo, per_point, fits} deterministically."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(summary_dict), fh, indent=1, sort_keys=True,
                  allow_nan=True)
        fh.write("\n")
    return path


def load_summary_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


_PER_POINT_KEYS = ["N", "t", "mean", "var", "l2", "l4", "std_moments",
                   "ks", "diverged"]


def write_per_point_csv(path, per_point: list[dict]):
    """CSV mirror of the per_point block: core keys first, then any extra
    keys (sorted) that appear in the rows; lists are JSON-encoded cells."""
    extra = sorted({k for row in per_point for k in row} - set(_PER_POINT_KEYS))
    header = _PER_POINT_KEYS + extra
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in per_point:
            out = []
            for key in header:
                v = _jsonable(row.get(key))
                if isinstance(v, (list, dict)):
                    out.append(json.dumps(v))
                elif v is None:
                    out.append("")
                elif isinstance(v, float):
                    out.append(repr(v))
                else:
                    out.append(str(v))
            w.writerow(out)
    return path


def load_per_point_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    out = []
    for row in rows:
        rec = {}
        for key, cell in zip(header, row):
            if cell == "":
                rec[key] = None
            elif cell.startswith(("[", "{")):
                rec[key] = json.loads(cell)
            else:
                try:
                    rec[key] = float(cell)
                except ValueError:
                    rec[key] = cell
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

def write_columns_csv(path, columns: dict[str, np.ndarray]):
    """Write named, equal-length columns as CSV (figure-ready data)."""
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise ValueError("columns must have equal length")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        for k in range(n):
            w.writerow([_fmt(a[k]) if np.issubdtype(a.dtype, np.floating)
                        else str(a[k]) for a in arrays])
    return path


def load_columns_csv(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    cols = {name: [] for name in header}
    for row in rows:
        for name, cell in zip(header, row):
            try:
                cols[name].append(float(cell) if cell != "" else math.nan)
            except ValueError:
                cols[name].append(cell)
    return {name: np.array(vals) for name, vals in cols.items()}
