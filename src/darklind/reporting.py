"""Deterministic CSV/JSON artifact writers.

Floats are rendered with Python's shortest round-trip representation (17
significant digits at most), files are written atomically (temp + rename in
the target directory), and every artifact stays inside the configured output
directory.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

SCHEMA_VERSION = 2

TRAJECTORY_COLUMNS = ("tau", "purity", "trace", "min_eig", "nx", "ny", "nz", "td_effective")
SWEEP_COLUMNS = (
    "gammaT",
    "purity_loss_exact",
    "purity_loss_eq12",
    "purity_loss_eq21",
    "trace_distance_final",
)


def format_float(x: float) -> str:
    """Shortest representation that round-trips the double."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x)


def _atomic_write(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def resolve_inside(outdir: Path, name: str) -> Path:
    """Artifact path confined to the output directory."""
    outdir = Path(outdir).resolve()
    target = (outdir / name).resolve()
    if not str(target).startswith(str(outdir) + os.sep) and target != outdir:
        raise ValueError(f"artifact path {name!r} escapes the output directory")
    return target


def write_csv(path: Path, columns: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError("row length does not match the column schema")
        lines.append(",".join(format_float(v) for v in row))
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return None if math.isnan(x) else x
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_json(path: Path, payload: dict) -> None:
    body = dict(payload)
    body.setdefault("schema_version", SCHEMA_VERSION)
    _atomic_write(Path(path), json.dumps(_jsonable(body), indent=2, sort_keys=True) + "\n")


def write_text(path: Path, text: str) -> None:
    _atomic_write(Path(path), text)


def gnuplot_script(csv_name: str, columns: Sequence[str], ycols: Sequence[str], title: str) -> str:
    """Ready-to-run gnuplot script for a written CSV."""
    idx = {c: i + 1 for i, c in enumerate(columns)}
    plots = ", ".join(
        f"'{csv_name}' using 1:{idx[c]} with lines title '{c}'" for c in ycols
    )
    return (
        "set datafile separator ','\n"
        f"set title '{title}'\n"
        "set key outside\n"
        f"set xlabel '{columns[0]}'\n"
        f"plot {plots}\n"
    )
