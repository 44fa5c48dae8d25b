"""CSV/JSON persistence for trajectories, study summaries, and figure data.

Trajectory CSV layout (one row per grid point): ``t, X_1..X_d, Z_1..Z_d,
P_11..P_dd`` with the covariance stored as the row-major upper triangle.
Run trajectories (exact, ensemble or law-level) append the metadata
columns ``variant, N, xi, kappa, mu_closed_loop, diverged_at`` (metadata
repeats per row so the file stands alone; an exact run's ``N`` is empty).

Every CSV table goes through one cell rule.  Written: None is an empty
cell, a list or dict its ``json.dumps``, a float (numpy's too) its
``repr(float(v))`` (so ``nan`` and ``inf``), anything else its ``str``.
Read: an empty cell is None, a cell starting with ``[`` or ``{`` is JSON,
any other cell a float, or the string itself if it is not a number.
Every writer here has a matching loader and round-trips.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, (list, dict)):
        return json.dumps(value)
    return str(value)


def _parse_cell(cell: str):
    if not cell:
        return None
    if cell[0] in "[{":
        return json.loads(cell)
    try:
        return float(cell)
    except ValueError:
        return cell


def _write_table(path, columns: dict) -> Path:
    """Write named, equal-length columns of cells as CSV."""
    cells = [[_format_cell(v) for v in col] for col in columns.values()]
    if len({len(col) for col in cells}) > 1:
        raise ValueError("columns must have equal length")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(columns))
        w.writerows(zip(*cells))
    return path


def _read_table(path) -> dict[str, list]:
    """The columns of a CSV written by :func:`_write_table`, cells parsed."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cells = list(zip(*reader)) or [()] * len(header)
    return {name: [_parse_cell(c) for c in col] for name, col in zip(header, cells)}


def _covariance_labels(d: int):
    """``(label, i, j)`` of the row-major upper triangle of a d x d matrix."""
    return [(f"P_{i + 1}{j + 1}", i, j) for i, j in zip(*np.triu_indices(d))]


def write_trajectory_csv(path, t, mean, cov, error, extras: dict | None = None):
    """Write a trajectory to CSV.

    ``extras`` (see :func:`trajectory_extras`) carries the constant run
    metadata columns (variant, N, xi, kappa, diverged_at) plus the per-row
    ``mu_closed_loop`` array; ``N = None`` is written as an empty cell.
    Without ``extras`` only the state columns are written.
    """
    cov = np.asarray(cov, dtype=float)
    d = cov.shape[-1]
    columns = {"t": np.asarray(t, dtype=float).tolist()}
    for prefix, value in (("X", mean), ("Z", error)):
        for i, col in enumerate(np.asarray(value, dtype=float).T.tolist()):
            columns[f"{prefix}_{i + 1}"] = col
    for label, i, j in _covariance_labels(d):
        columns[label] = cov[:, i, j].tolist()
    if extras is not None:
        K, N, diverged_at = len(columns["t"]), extras["N"], extras.get("diverged_at")
        columns.update(
            variant=[extras["variant"]] * K, N=[None if N is None else int(N)] * K,
            xi=[float(extras["xi"])] * K, kappa=[float(extras["kappa"])] * K,
            mu_closed_loop=np.asarray(extras["mu_closed_loop"], dtype=float).tolist(),
            diverged_at=[None if diverged_at is None else float(diverged_at)] * K)
    return _write_table(path, columns)


def load_trajectory_csv(path) -> dict:
    """Load a trajectory CSV back into arrays (plus extras when present)."""
    cols = _read_table(path)
    d = sum(1 for name in cols if name.startswith("X_"))
    cov = np.empty((len(cols["t"]), d, d))
    for label, i, j in _covariance_labels(d):
        cov[:, i, j] = cov[:, j, i] = cols[label]
    out = {
        "t": np.array(cols["t"]),
        "mean": np.column_stack([cols[f"X_{i + 1}"] for i in range(d)]),
        "error": np.column_stack([cols[f"Z_{i + 1}"] for i in range(d)]),
        "cov": cov,
    }
    if "variant" in cols:
        last = {name: col[-1] for name, col in cols.items()}
        out.update(variant=last["variant"],
                   N=None if last["N"] is None else int(last["N"]),
                   xi=last["xi"], kappa=last["kappa"],
                   mu_closed_loop=np.array(cols["mu_closed_loop"]),
                   diverged_at=last["diverged_at"])
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
        return _jsonable(obj.item())
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
    return _write_table(path, {key: [_jsonable(row.get(key)) for row in per_point]
                               for key in _PER_POINT_KEYS + extra})


def load_per_point_csv(path) -> list[dict]:
    cols = _read_table(path)
    return [dict(zip(cols, row)) for row in zip(*cols.values())]


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

def write_columns_csv(path, columns: dict[str, np.ndarray]):
    """Write named, equal-length columns as CSV (figure-ready data)."""
    return _write_table(path, {name: np.asarray(col).tolist()
                               for name, col in columns.items()})


def _column(cells: list) -> np.ndarray:
    values = [math.nan if v is None else v for v in cells]
    try:
        return np.array(values)
    except ValueError:  # ragged: JSON lists mixed with numbers or other lists
        column = np.empty(len(values), dtype=object)
        for i, v in enumerate(values):
            column[i] = v
        return column


def load_columns_csv(path) -> dict[str, np.ndarray]:
    """The columns of a CSV as arrays; an empty cell is nan, and a column
    whose cells do not make one rectangular array (JSON lists mixed with
    numbers, lists of other lengths) is an object array of the cells."""
    return {name: _column(col) for name, col in _read_table(path).items()}
