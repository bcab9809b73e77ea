"""Airtightness: median-pressure skins, non-design boundary skins, seal checks.

The flood-fill check is the ground truth for "sealed": it walks face-adjacent
void elements from the inlet and reports any path that reaches a drain.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import TAG_DESIGN, Grid, lattice_neighbours
from .materials import FlowParams

VOID_THRESHOLD = 0.5  # topology density below which an element is void


@dataclass(frozen=True)
class SealReport:
    """Flood-fill verdict plus an example leak path when one exists."""

    sealed: bool
    leak_path: tuple | None = None
    added_volume_fraction: float = 0.0

    def to_dict(self) -> dict:
        return {
            "sealed": self.sealed,
            "leak_path": list(self.leak_path) if self.leak_path else None,
            "added_volume_fraction": self.added_volume_fraction,
        }


def heuristic_skin(
    rho_bar: np.ndarray,
    p: np.ndarray,
    grid: Grid,
    params: FlowParams,
    skin_pattern: np.ndarray,
):
    """Solidify void elements straddled by the median pressure level.

    Any element whose nodal pressures bracket p_atm + 0.5 (P_in - p_atm) and
    whose topology density is below 0.5 receives the skin material pattern.
    Returns (sealed_design, n_added); applying it twice with the same
    pressure field changes nothing further.
    """
    rho_bar = np.array(rho_bar, dtype=float)
    level = params.p_atm + 0.5 * (params.P_in - params.p_atm)
    pe = np.asarray(p, dtype=float)[grid.conn]
    straddles = (pe.min(axis=1) <= level) & (pe.max(axis=1) >= level)
    target = straddles & (rho_bar[0] < VOID_THRESHOLD)
    rho_bar[:, target] = np.asarray(skin_pattern, dtype=float)[:, None]
    return rho_bar, int(target.sum())


def check_sealed(rho_bar1: np.ndarray, grid: Grid, inlet_faces, drain_faces) -> SealReport:
    """Breadth-first flood fill through void from inlet toward drain.

    Elements with topology density below ``VOID_THRESHOLD`` conduct;
    adjacency is face-based (corner contact does not pass fluid). The report
    includes a shortest inlet-to-drain element path when the domain leaks.
    """
    void = np.asarray(rho_bar1) < VOID_THRESHOLD
    seeds = [f[0] for f in inlet_faces if void[f[0]]]
    drain_elems = {f[0] for f in drain_faces}
    # face-adjacent element ids in (axis, side) order, -1 past the boundary
    faces = np.stack([side * e for e in np.eye(grid.dim, dtype=int) for side in (-1, 1)])
    inside, ids = lattice_neighbours(grid.elem_ijk, grid.nel_axis, faces)
    nbrs = np.where(inside, ids, -1)

    pred: dict[int, int] = {s: -1 for s in seeds}
    hit = next((s for s in seeds if s in drain_elems), None)  # an inlet that drains
    queue = deque(seeds if hit is None else ())
    while queue:
        e = queue.popleft()
        for nb in nbrs[e]:
            if nb < 0 or nb in pred or not void[nb]:
                continue
            pred[int(nb)] = e
            if nb in drain_elems:
                hit = int(nb)
                queue.clear()
                break
            queue.append(int(nb))

    if hit is None:
        return SealReport(sealed=True)
    path = [hit]
    while pred[path[-1]] != -1:
        path.append(pred[path[-1]])
    return SealReport(sealed=False, leak_path=tuple(reversed(path)))


def non_design_skin(
    grid: Grid,
    mask: np.ndarray,
    thickness: int,
    material: int,
    exempt_faces=(),
) -> np.ndarray:
    """Mark boundary layers passive solid, skipping inlet/symmetry faces.

    ``exempt_faces`` lists (axis, side) pairs of domain faces left open.
    Only design-tagged elements are converted; explicit passive regions
    (for example an inlet channel) keep their tags.
    """
    if thickness < 1:
        raise ConfigError(f"skin thickness must be >= 1 element, got {thickness}")
    exempt = set(exempt_faces)
    shell = np.zeros(grid.nelem, dtype=bool)
    for ax in range(grid.dim):
        if (ax, 0) not in exempt:
            shell |= grid.elem_ijk[:, ax] < thickness
        if (ax, 1) not in exempt:
            shell |= grid.elem_ijk[:, ax] >= grid.nel_axis[ax] - thickness
    new_mask = np.array(mask, dtype=np.int64)
    new_mask[shell & (new_mask == TAG_DESIGN)] = material
    if not np.any(new_mask == TAG_DESIGN):
        raise ConfigError(
            f"skin of thickness {thickness} leaves no design elements"
        )
    return new_mask
