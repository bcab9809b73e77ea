"""Structured quad/hex grids: DOF numbering, region selection, filter neighborhoods.

Elements are uniform squares (2-D) or cubes (3-D), numbered lexicographically
with x fastest. Each node carries one pressure DOF (equal to the node index)
and ``dim`` displacement DOFs (``dim * node + component``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import ConfigError

REGION_ROLES = (
    "pressure_inlet",
    "pressure_drain",
    "fixed_support",
    "output",
    "symmetry",
)

# Design/passive element tags used in DomainMask arrays.
TAG_DESIGN = 0
TAG_PASSIVE_VOID = -1
# Passive solid of material m carries tag m (1..3).

MAX_DOFS = 2**31 - 1

BOX_TOL_FACTOR = 1e-6


@dataclass(frozen=True)
class GridSpec:
    """Uniform structured grid: ``nel`` elements per axis, edge length ``h`` in m."""

    dim: int
    nel: tuple[int, ...]
    h: float

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ConfigError(f"grid dim must be 2 or 3, got {self.dim}")
        object.__setattr__(self, "nel", tuple(int(n) for n in self.nel))
        if len(self.nel) != self.dim:
            raise ConfigError(
                f"nel must have {self.dim} entries, got {len(self.nel)}"
            )
        if any(n < 1 for n in self.nel):
            raise ConfigError(f"element counts must be >= 1, got {self.nel}")
        if not self.h > 0:
            raise ConfigError(f"element size h must be > 0, got {self.h}")
        nnodes = 1
        for n in self.nel:
            nnodes *= n + 1
        if self.dim * nnodes > MAX_DOFS:
            raise ConfigError(
                f"grid {self.nel} would need {self.dim * nnodes} displacement "
                f"DOFs, exceeding the {MAX_DOFS} index space"
            )


# Corner offsets in element-local (i,j[,k]) coordinates; must match the
# shape-function corner ordering in shapefn.
_CORNER_OFFSETS = {
    2: np.array([[0, 0], [1, 0], [1, 1], [0, 1]]),
    3: np.array(
        [
            [0, 0, 0],
            [1, 0, 0],
            [1, 1, 0],
            [0, 1, 0],
            [0, 0, 1],
            [1, 0, 1],
            [1, 1, 1],
            [0, 1, 1],
        ]
    ),
}


def _lattice(shape: tuple[int, ...]) -> np.ndarray:
    """Integer coordinates of every point of a ``shape`` lattice, x fastest."""
    return np.stack(np.unravel_index(np.arange(np.prod(shape)), shape, order="F"), axis=-1)


class Grid:
    """Geometry, connectivity, and DOF maps for a structured grid."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.dim = spec.dim
        self.h = spec.h
        self.nel_axis = spec.nel
        self.nnod_axis = tuple(n + 1 for n in spec.nel)
        self.nelem = int(np.prod(self.nel_axis))
        self.nnodes = int(np.prod(self.nnod_axis))
        self.n_disp_dofs = self.dim * self.nnodes
        self.element_volume = spec.h**spec.dim

        self.node_ijk = _lattice(self.nnod_axis)
        self.coords = self.node_ijk * spec.h
        self.elem_ijk = _lattice(self.nel_axis)
        self.centroids = (self.elem_ijk + 0.5) * spec.h

        offsets = _CORNER_OFFSETS[self.dim]
        self.nen = offsets.shape[0]
        corner_ijk = self.elem_ijk[:, None, :] + offsets[None, :, :]
        # int32, the index type of scipy's sparse matrices on any grid that
        # fits in memory, so assembly hands its index arrays over uncopied
        self.conn = np.ravel_multi_index(
            tuple(np.moveaxis(corner_ijk, -1, 0)), self.nnod_axis, order="F"
        ).astype(np.int32)

        comps = np.arange(self.dim, dtype=np.int32)
        self.edof_u = (
            self.dim * self.conn[:, :, None] + comps[None, None, :]
        ).reshape(self.nelem, self.dim * self.nen)

        # Local corner ids per (axis, side) element face.
        self._face_corners = {
            (ax, side): np.nonzero(offsets[:, ax] == side)[0]
            for ax in range(self.dim)
            for side in (0, 1)
        }


def build_grid(spec: GridSpec) -> Grid:
    """Construct the grid with deterministic lexicographic numbering."""
    return Grid(spec)


@dataclass(frozen=True)
class BoundaryRegion:
    """Axis-aligned box selector with a physical role.

    ``box`` is ((lo...), (hi...)) in meters. Output regions carry a unit
    ``direction`` and a total spring stiffness ``k_out`` in N/m, split
    evenly over the selected nodes.
    """

    role: str
    box: tuple
    direction: tuple | None = None
    k_out: float = 0.0
    name: str = ""

    def __post_init__(self):
        if self.role not in REGION_ROLES:
            raise ConfigError(
                f"region '{self.label}': unknown role {self.role!r}"
            )
        lo, hi = (np.asarray(b, dtype=float) for b in self.box)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ConfigError(f"region '{self.label}': malformed box")
        if np.any(hi < lo):
            raise ConfigError(f"region '{self.label}': box hi < lo")
        if self.role == "output":
            if self.direction is None:
                raise ConfigError(f"region '{self.label}': output needs a direction")
            d = np.asarray(self.direction, dtype=float)
            if abs(np.linalg.norm(d) - 1.0) > 1e-9:
                raise ConfigError(
                    f"region '{self.label}': output direction must be a unit vector"
                )
            if self.k_out < 0:
                raise ConfigError(f"region '{self.label}': k_out must be >= 0")

    @property
    def label(self) -> str:
        return self.name or self.role


@dataclass(frozen=True)
class RegionSelection:
    """Resolved region: node ids plus domain-boundary faces inside the box."""

    region: BoundaryRegion
    nodes: np.ndarray
    faces: tuple  # of (element, axis, side)
    normal_axis: int | None = None


def select_region(grid: Grid, region: BoundaryRegion) -> RegionSelection:
    """All nodes and domain-boundary faces inside the region box (inclusive)."""
    lo = np.asarray(region.box[0], dtype=float)
    hi = np.asarray(region.box[1], dtype=float)
    if lo.size != grid.dim:
        raise ConfigError(
            f"region '{region.label}': box has {lo.size} axes, grid has {grid.dim}"
        )
    tol = grid.h * BOX_TOL_FACTOR
    inside = np.all(
        (grid.coords >= lo - tol) & (grid.coords <= hi + tol), axis=1
    )
    nodes = np.nonzero(inside)[0]
    if nodes.size == 0:
        raise ConfigError(f"region '{region.label}': selects no nodes")

    faces = []
    for ax in range(grid.dim):
        for side in (0, 1):
            layer = side * (grid.nel_axis[ax] - 1)
            elems = np.nonzero(grid.elem_ijk[:, ax] == layer)[0]
            face_nodes = grid.conn[elems][:, grid._face_corners[(ax, side)]]
            ok = inside[face_nodes].all(axis=1)
            faces.extend((int(e), ax, side) for e in elems[ok])

    normal_axis = None
    if region.role == "symmetry":
        degenerate = np.nonzero(hi - lo < tol)[0]
        if degenerate.size != 1:
            raise ConfigError(
                f"region '{region.label}': symmetry box must be a plane "
                f"(exactly one zero-thickness axis)"
            )
        normal_axis = int(degenerate[0])

    return RegionSelection(region, nodes, tuple(faces), normal_axis)


@dataclass(frozen=True)
class Neighborhoods:
    """Cone-weighted filter neighborhoods over element centroids.

    ``weights`` holds w_ij = max(0, r_min - |c_i - c_j|); ``normalized`` is
    the same matrix with rows scaled to sum to one.
    """

    weights: sparse.csr_matrix
    normalized: sparse.csr_matrix = field(repr=False)


def filter_neighborhoods(grid: Grid, r_min: float) -> Neighborhoods:
    """Precompute the linear distance-weighted neighbor matrix."""
    if not r_min > 0:
        raise ConfigError(f"filter radius must be > 0, got {r_min}")
    reach = int(np.ceil(r_min / grid.h))
    offsets = _lattice((2 * reach + 1,) * grid.dim) - reach
    dist = np.linalg.norm(offsets, axis=1) * grid.h
    keep = r_min - dist > 0
    offsets, wvals = offsets[keep], (r_min - dist)[keep]

    eids = np.arange(grid.nelem)
    rows, cols, vals = [], [], []
    for off, w in zip(offsets, wvals):
        shifted = grid.elem_ijk + off
        valid = np.all(
            (shifted >= 0) & (shifted < np.array(grid.nel_axis)), axis=1
        )
        rows.append(eids[valid])
        cols.append(np.ravel_multi_index(tuple(shifted[valid].T), grid.nel_axis, order="F"))
        vals.append(np.full(valid.sum(), w))

    weights = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.nelem, grid.nelem),
    ).tocsr()
    row_sums = np.asarray(weights.sum(axis=1)).ravel()
    normalized = sparse.diags(1.0 / row_sums) @ weights
    return Neighborhoods(weights, normalized.tocsr())
