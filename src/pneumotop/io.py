"""Artifact serialization: design files, history CSV, summaries, VTK export.

All writers go through a temp-file-plus-rename so partially written
artifacts never appear under their final names. History CSVs are the
determinism surface: identical runs must produce bit-identical files, so
floats are rendered with ``repr`` (shortest round-trip form).
"""
from __future__ import annotations

import csv
import json
import os
import tempfile
from io import StringIO
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import Grid, GridSpec

DESIGN_FORMAT_VERSION = 1
HISTORY_COLUMNS = (
    "iter", "f", "g1", "g2", "g3", "change", "grayness", "u_out", "SE", "E_t",
)
METRICS_COLUMNS = ("k_out", "u_out", "SE", "W", "E_t")
# Largest excursion of a stored density outside [0, 1] taken for rounding,
# and clipped.
DENSITY_TOL = 1e-9


def atomic_write_text(path: Path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        # no newline translation: csv's \r\n row ends stay as they are
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_design(path, grid_spec: GridSpec, rho_bar: np.ndarray, note: str = ""):
    """Write a physical density field as a versioned JSON document."""
    rho_bar = np.asarray(rho_bar, dtype=float)
    if rho_bar.shape != (3, int(np.prod(grid_spec.nel))):
        raise ConfigError(
            f"design array has shape {rho_bar.shape}, expected "
            f"(3, {int(np.prod(grid_spec.nel))})"
        )
    doc = {
        "format": "pneumotop-design",
        "version": DESIGN_FORMAT_VERSION,
        "dim": grid_spec.dim,
        "nel": list(grid_spec.nel),
        "h_m": grid_spec.h,
        "field": "physical",
        "channels": ["topology", "material2", "material3"],
        "note": note,
        "data": rho_bar.tolist(),  # Python floats, as json formats them
    }
    atomic_write_text(Path(path), json.dumps(doc))


def load_design(path):
    """Read a design file; returns (GridSpec, rho_bar of shape (3, nelem))."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"design file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # ValueError covers JSON and decoding errors
        raise ConfigError(f"{path}: cannot read design file ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != "pneumotop-design":
        raise ConfigError(f"{path}: not a design file")
    if doc.get("version") != DESIGN_FORMAT_VERSION:
        raise ConfigError(f"{path}: unsupported design version {doc.get('version')}")
    try:
        spec = GridSpec(dim=doc["dim"], nel=tuple(doc["nel"]), h=doc["h_m"])
        data = np.asarray(doc["data"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed design header or data ({exc!r})") from exc
    if data.shape != (3, int(np.prod(spec.nel))):
        raise ConfigError(f"{path}: data shape {data.shape} does not match header")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"{path}: densities must be finite")
    if data.min() < -DENSITY_TOL or data.max() > 1.0 + DENSITY_TOL:
        raise ConfigError(
            f"{path}: densities must lie in [0, 1], found "
            f"[{data.min():.6g}, {data.max():.6g}]"
        )
    # a rounding excursion below 0 would make r**p NaN for a fractional p
    return spec, np.clip(data, 0.0, 1.0)


class HistoryWriter:
    """Collects iteration records as CSV rows and publishes them atomically
    on close; a run that never closes it leaves no file."""

    def __init__(self, path):
        self.path = Path(path)
        self._buffer = StringIO()
        self._writer = csv.writer(self._buffer)
        self._writer.writerow(HISTORY_COLUMNS)

    def __call__(self, rec):
        g = list(rec.g) + [None] * (3 - len(rec.g))
        row = [
            rec.iteration,
            repr(rec.f),
            *(repr(v) if v is not None else "" for v in g),
            repr(rec.change),
            repr(rec.grayness),
            repr(rec.u_out),
            repr(rec.SE),
            repr(rec.E_t),
        ]
        self._writer.writerow(row)

    def close(self):
        atomic_write_text(self.path, self._buffer.getvalue())


def write_summary(path, summary: dict):
    atomic_write_text(Path(path), json.dumps(summary, indent=2, sort_keys=True) + "\n")


def write_metrics_csv(path, rows):
    """Evaluation sweep table, one row per spring stiffness."""
    lines = [",".join(METRICS_COLUMNS)]
    for row in rows:
        lines.append(",".join(repr(float(row[c])) for c in METRICS_COLUMNS))
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def export_vtk(path, grid: Grid, cell_data: dict | None = None,
               point_data: dict | None = None):
    """Legacy-ASCII structured-points file viewable in ParaView and friends.

    Cell arrays must have ``nelem`` values; point arrays ``nnodes`` scalars
    or (nnodes, dim) vectors. 2-D data is exported as a one-cell-thick slab.
    """
    dims = list(grid.nnod_axis) + [1] * (3 - grid.dim)
    lines = [
        "# vtk DataFile Version 3.0",
        "pneumotop fields",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}",
        "ORIGIN 0.0 0.0 0.0",
        f"SPACING {grid.h!r} {grid.h!r} {grid.h!r}",
    ]
    if point_data:
        lines.append(f"POINT_DATA {grid.nnodes}")
        for name, arr in point_data.items():
            arr = np.asarray(arr)
            if arr.ndim == 1:
                lines.append(f"SCALARS {name} double")
                lines.append("LOOKUP_TABLE default")
                lines.extend(map(repr, arr.astype(float).tolist()))
            else:
                vec = np.zeros((arr.shape[0], 3))
                vec[:, : arr.shape[1]] = arr
                lines.append(f"VECTORS {name} double")
                lines.extend(f"{x!r} {y!r} {z!r}" for x, y, z in vec.tolist())
    if cell_data:
        lines.append(f"CELL_DATA {grid.nelem}")
        for name, arr in cell_data.items():
            arr = np.asarray(arr)
            if np.issubdtype(arr.dtype, np.integer):
                lines.append(f"SCALARS {name} int")
                lines.append("LOOKUP_TABLE default")
                lines.extend(map(str, arr.tolist()))
            else:
                lines.append(f"SCALARS {name} double")
                lines.append("LOOKUP_TABLE default")
                lines.extend(map(repr, arr.astype(float).tolist()))
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def dominant_material_labels(rho_bar: np.ndarray, n_materials: int) -> np.ndarray:
    """Per-element label: 0 void, otherwise the selected material index.
    Channel k selects material k + 1 where it and every channel before it
    are at least 0.5."""
    label = np.zeros(rho_bar[0].shape, dtype=np.int32)
    selected = np.ones(rho_bar[0].shape, dtype=bool)
    for k in range(n_materials):
        selected &= rho_bar[k] >= 0.5
        label[selected] = k + 1
    return label
