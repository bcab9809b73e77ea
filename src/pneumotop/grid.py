"""Structured quad/hex grids: DOF numbering, region selection, the density
filter, and the fixed-pattern stencil operators assembly uses.

Elements are uniform squares (2-D) or cubes (3-D), numbered lexicographically
with x fastest. Each node carries one pressure DOF (equal to the node index)
and ``dim`` displacement DOFs (``dim * node + component``, ``node_dofs``).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

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


def _is_count(n) -> bool:
    """Whether ``n`` is an integral number (an integral float too), not a bool."""
    return (isinstance(n, numbers.Real) and not isinstance(n, bool)
            and float(n).is_integer())


@dataclass(frozen=True)
class GridSpec:
    """Uniform structured grid: ``nel`` elements per axis, edge length ``h`` in m."""

    dim: int
    nel: tuple[int, ...]
    h: float

    def __post_init__(self):
        if not all(_is_count(n) for n in (self.dim, *self.nel)):
            raise ConfigError(
                f"grid dim and nel must be integers, got {self.dim} and {self.nel}"
            )
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "nel", tuple(int(n) for n in self.nel))
        if self.dim not in (2, 3):
            raise ConfigError(f"grid dim must be 2 or 3, got {self.dim}")
        if len(self.nel) != self.dim:
            raise ConfigError(
                f"nel must have {self.dim} entries, got {len(self.nel)}"
            )
        if any(n < 1 for n in self.nel):
            raise ConfigError(f"element counts must be >= 1, got {self.nel}")
        if not self.h > 0:
            raise ConfigError(f"element size h must be > 0, got {self.h}")
        # the element matrices (shapefn) scale by (2/h)^2 and (h/2)^dim
        log_half_h = math.log(self.h) - math.log(2.0)
        if max(-2.0 * log_half_h, self.dim * log_half_h) >= np.log(np.finfo(float).max):
            raise ConfigError(f"element size h = {self.h} m overflows the element matrices")
        # The largest int32 index space a model builds is a StencilOperator
        # scatter's, one entry per element and template entry: in 2-D the
        # stiffness's (dim 2^dim)^2 = 64, and in 3-D, where the stiffness and
        # T are multiplied element by element and an assembly of either
        # checks its own scatter where it is built (StencilOperator._build),
        # the flow operator's, whose two templates hold 2 4^dim = 128. It
        # bounds the DOF indices too: dim * nnodes <= dim 2^dim nelem.
        entries = (64 if self.dim == 2 else 128) * math.prod(self.nel)
        if entries > MAX_DOFS:
            raise ConfigError(
                f"grid {self.nel} would need {entries} scatter entries, "
                f"exceeding the {MAX_DOFS} index space"
            )


# Corner offsets in element-local (i,j[,k]) coordinates, the element node
# order: counter-clockwise in 2-D, bottom face then top face in 3-D.
CORNER_OFFSETS = {
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


def lattice(shape: tuple[int, ...]) -> np.ndarray:
    """Integer coordinates of every point of a ``shape`` lattice, x fastest."""
    return np.stack(np.unravel_index(np.arange(np.prod(shape)), shape, order="F"), axis=-1)


def lattice_neighbours(ijk: np.ndarray, shape: tuple[int, ...], offsets: np.ndarray):
    """For each point ``ijk`` (n x d) of a ``shape`` lattice and each of the
    ``offsets`` (k x d), as ``(inside, ids)``, both n x k: whether the point
    plus the offset lies in the lattice, and its int32 flat index, x fastest
    (meaningless where it does not). With x fastest, a point's ids grow with
    the offset's position when the offsets are listed x fastest too."""
    inside = np.ones((ijk.shape[0], offsets.shape[0]), dtype=bool)
    for ax, n in enumerate(shape):
        # tested once per distinct step along the axis, then spread
        steps, col = np.unique(offsets[:, ax], return_inverse=True)
        c = ijk[:, ax, None] + steps
        inside &= ((c >= 0) & (c < n))[:, col]
    strides = np.cumprod((1,) + tuple(shape[:-1]))
    ids = (ijk @ strides).astype(np.int32)[:, None] + (offsets @ strides).astype(np.int32)
    return inside, ids


def node_dofs(nodes: np.ndarray, comps: int) -> np.ndarray:
    """The DOFs ``comps * node + c`` of ``nodes``, one component c per entry
    of a new last axis, in the nodes' index dtype; written one component at
    a time (numpy loops slowly over a short last axis)."""
    nodes = np.asarray(nodes)
    base = nodes * nodes.dtype.type(comps)
    out = np.empty(nodes.shape + (comps,), dtype=nodes.dtype)
    for c in range(comps):
        np.add(base, nodes.dtype.type(c), out=out[..., c])
    return out


def in_box(points: np.ndarray, box, h: float) -> np.ndarray:
    """Which ``points`` (n x d, in m) lie in the axis-aligned ``box``
    ((lo...), (hi...)), its faces included and widened by h BOX_TOL_FACTOR
    for roundoff in the coordinates."""
    tol = h * BOX_TOL_FACTOR
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    return np.all((points >= lo - tol) & (points <= hi + tol), axis=1)


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

        self.node_ijk = lattice(self.nnod_axis)
        self.coords = self.node_ijk * spec.h
        self.elem_ijk = lattice(self.nel_axis)
        self.centroids = (self.elem_ijk + 0.5) * spec.h

        offsets = CORNER_OFFSETS[self.dim]
        self.nen = offsets.shape[0]
        # int32, the index type of scipy's sparse matrices on any grid that
        # fits in memory, so assembly hands its index arrays over uncopied;
        # every corner is a node
        self.conn = lattice_neighbours(self.elem_ijk, self.nnod_axis, offsets)[1]

        self.edof_u = node_dofs(self.conn, self.dim).reshape(self.nelem, -1)
        # The stiffness and T are multiplied element by element in 3-D, where
        # every solve of a large block is a multigrid solve, and assembled
        # in 2-D, where every solve is a band solve.
        self.matrix_free = self.dim == 3

        # the stencil and node patterns the model's operators share; None
        # once released
        self._patterns = {}

    @cached_property
    def boundary_faces(self):
        """The domain faces, one ``(axis, side, elements, face_nodes)`` per
        face of the box, axis by axis and low side first: the elements of
        its layer, ascending, and the nodes of their faces on it. Scanned
        once per grid; every region selects from them."""
        corners = CORNER_OFFSETS[self.dim]
        faces = []
        for ax in range(self.dim):
            for side in (0, 1):
                elems = np.nonzero(self.elem_ijk[:, ax] == side * (self.nel_axis[ax] - 1))[0]
                on_face = np.nonzero(corners[:, ax] == side)[0]
                faces.append((ax, side, elems, self.conn[elems][:, on_face]))
        return tuple(faces)

    def _shared(self, key, build):
        """``build()``, kept under ``key`` until ``release_patterns``; built
        afresh, and kept nowhere, for an operator built after that."""
        if self._patterns is None:
            return build()
        if key not in self._patterns:
            self._patterns[key] = build()
        return self._patterns[key]

    @property
    def stencil(self):
        """The node stencil every operator on this grid shares, as
        ``(count, neighbours, corner_rank)``: each node's number of nodes in
        its 3^d neighbourhood; those nodes, node by node in ascending order;
        and, per element corner pair (i, j), the place of corner j's node
        among corner i's node's neighbours."""
        return self._shared("stencil", self._stencil)

    def _stencil(self):
        offsets = lattice((3,) * self.dim) - 1
        valid, ids = lattice_neighbours(self.node_ijk, self.nnod_axis, offsets)
        rank = np.cumsum(valid, axis=1, dtype=np.int32) - 1
        neighbours = ids[valid]
        corners = CORNER_OFFSETS[self.dim]
        pair = ((corners[None, :, :] - corners[:, None, :] + 1) * 3 ** np.arange(self.dim)).sum(axis=-1)
        corner_rank = np.take(rank, self.conn[:, :, None] * rank.shape[1] + pair)
        return rank[:, -1] + 1, neighbours, corner_rank

    def node_pattern(self, row_comps: int):
        """``(indptr, indices, slot)`` of an operator with ``row_comps`` rows
        per node and one column per node of its stencil: its CSR pattern,
        and the place in its data of every element entry (corner i, row DOF
        a; corner j), shape (nelem, nen, row_comps, nen). Shared as the
        stencil is."""
        return self._shared(row_comps, lambda: self._node_pattern(row_comps))

    def _node_pattern(self, row_comps: int):
        count, neighbours, corner_rank = self.stencil
        lens = np.repeat(count, row_comps)
        indptr = np.zeros(lens.size + 1, dtype=np.int32)
        np.cumsum(lens, out=indptr[1:])
        indices = neighbours
        if row_comps > 1:  # each node's neighbours once per row DOF
            node_ptr = np.zeros(self.nnodes, dtype=np.int32)
            np.cumsum(count[:-1], out=node_ptr[1:])
            src = np.arange(indptr[-1], dtype=np.int32)
            src -= np.repeat(indptr[:-1] - np.repeat(node_ptr, row_comps), lens)
            indices = np.take(neighbours, src)
        # an entry's place: its row's start plus its column node's rank
        row_start = np.take(indptr, node_dofs(self.conn, row_comps))
        slot = row_start[:, :, :, None] + corner_rank[:, :, None, :]
        return indptr, indices, slot

    def release_patterns(self):
        """Drop the stencil and node patterns once the model's operators are
        built, and keep none from then on."""
        self._patterns = None


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
    inside = in_box(grid.coords, (lo, hi), grid.h)
    nodes = np.nonzero(inside)[0]
    if nodes.size == 0:
        raise ConfigError(f"region '{region.label}': selects no nodes")

    faces = []
    for ax, side, elems, face_nodes in grid.boundary_faces:
        ok = inside[face_nodes].all(axis=1)
        faces.extend((int(e), ax, side) for e in elems[ok])

    normal_axis = None
    if region.role == "symmetry":
        degenerate = np.nonzero(hi - lo < grid.h * BOX_TOL_FACTOR)[0]
        if degenerate.size != 1:
            raise ConfigError(
                f"region '{region.label}': symmetry box must be a plane "
                f"(exactly one zero-thickness axis)"
            )
        normal_axis = int(degenerate[0])

    return RegionSelection(region, nodes, tuple(faces), normal_axis)


def pattern_slots(indptr, indices, rows, cols) -> np.ndarray:
    """Positions in the data of a CSR pattern (no duplicates, its columns
    in any order) of the entries ``(rows, cols)``; ``ValueError`` if one is
    not in the pattern."""
    start, length = indptr[rows], np.diff(indptr)[rows]
    offsets = np.arange(length.max(initial=0))
    window = np.minimum(start[:, None] + offsets, indices.size - 1)
    hit = (indices[window] == np.asarray(cols)[:, None]) & (offsets < length[:, None])
    missing = np.count_nonzero(~hit.any(axis=1))
    if missing:
        raise ValueError(f"{missing} entries lie outside the sparsity pattern")
    return start + hit.argmax(axis=1)


def element_pattern(grid: Grid, row_comps: int = 1, col_comps: int = 1):
    """``(indptr, indices, slot)`` of an operator mapping ``col_comps`` DOFs
    per node to ``row_comps``: its CSR pattern, and the place in its data of
    every element matrix entry (local DOFs corner-major as in ``edof_u``),
    shape (nelem, nen·row_comps·nen·col_comps): its row's start plus the
    rank of its column node among the row node's stencil neighbours, so no
    triplet is formed (Andreassen et al. 2011, SMO 43:1, without ``coo ->
    csr``)."""
    # The pattern with one column per node, then every column widened to
    # its node's col_comps DOFs.
    indptr, indices, slot = grid.node_pattern(row_comps)
    if col_comps > 1:
        indptr = np.int32(col_comps) * indptr
        indices = node_dofs(indices, col_comps).ravel()
        slot = node_dofs(slot, col_comps)
    return indptr, indices, slot.reshape(grid.nelem, -1)


class StencilOperator:
    """A global operator ``Σ_t Σ_e coef[t·nelem + e] G_eᵀ K_t G_e`` of the t
    element ``templates`` K_t (nen·row_comps x nen·col_comps, local DOFs
    corner-major) on a structured grid, from ``col_comps`` to ``row_comps``
    DOFs per node.

    ``assemble`` forms it by a pattern and a scatter built once. The CSR
    pattern ``(indptr, indices)`` is the ``element_pattern``: for each
    node's row DOFs, the column DOFs of every node of its 3^d stencil, with
    sorted columns; it is the pattern that ``coo -> csr`` of all element
    triplets gives, exact zeros included, so it is the same for every
    coefficient field. ``scatter`` (nnz x t·nelem) maps the coefficients,
    template-major, to the CSR data; exact zeros of the templates are left
    out of it. Every assembled matrix shares the pattern arrays (not to be
    modified). The three are built with the operator or, for a
    ``matrix_free`` one (``grid.matrix_free``: the 3-D stiffness and T), at
    their first use: a multigrid solve multiplies such an operator element
    by element (see ``linalg.DirichletReduction``), and so does the model
    with T and Tᵀ (``product``, through an ``ElementSum``), so only a band
    solve or an assembly builds them.
    """

    def __init__(self, grid: Grid, templates, row_comps: int = 1, col_comps: int = 1,
                 matrix_free: bool = False):
        self.grid, self.comps, self.matrix_free = grid, (row_comps, col_comps), matrix_free
        self.templates = np.asarray(templates, dtype=float).reshape(
            -1, grid.nen * row_comps, grid.nen * col_comps)
        self.shape = (row_comps * grid.nnodes, col_comps * grid.nnodes)
        self._pattern = None if matrix_free else self._build()
        self._buffers = None  # product's, built at its first call

    def _build(self):
        grid, templates, nelem = self.grid, self.templates, self.grid.nelem
        # The scatter's rows and pointers and the pattern's are int32, and
        # the pattern holds at most one entry per element and template entry.
        entries = templates.size * nelem
        if entries > MAX_DOFS:
            raise ConfigError(
                f"{nelem} elements would need {entries} scatter entries, "
                f"exceeding the {MAX_DOFS} index space"
            )
        indptr, indices, slot = element_pattern(grid, *self.comps)
        kept = [np.flatnonzero(t) for t in templates]
        col_ptr = np.zeros(len(kept) * nelem + 1, dtype=np.int32)
        np.cumsum(np.repeat([k.size for k in kept], nelem), out=col_ptr[1:])
        rows, vals = np.empty(col_ptr[-1], dtype=np.int32), np.empty(col_ptr[-1])
        for t, k in enumerate(kept):
            block = slice(col_ptr[t * nelem], col_ptr[(t + 1) * nelem])
            np.take(slot, k, axis=1, out=rows[block].reshape(nelem, k.size), mode="clip")
            vals[block].reshape(nelem, k.size)[:] = templates[t].flat[k]
        scatter = sparse.csc_matrix((vals, rows, col_ptr), shape=(indices.size, col_ptr.size - 1))
        return indptr, indices, scatter

    @property
    def pattern(self):
        """``(indptr, indices, scatter)``, built here at the first use of a
        ``matrix_free`` operator's."""
        if self._pattern is None:
            self._pattern = self._build()
        return self._pattern

    indptr = property(lambda self: self.pattern[0])
    indices = property(lambda self: self.pattern[1])
    scatter = property(lambda self: self.pattern[2])

    def _dofs(self, comps: int) -> np.ndarray:
        return self.grid.conn if comps == 1 else self.grid.edof_u

    @property
    def edof(self) -> np.ndarray:
        """Each element's column DOFs, in the templates' local order:
        ``grid.conn`` for one DOF per node, ``edof_u`` for ``dim``; a square
        operator's row DOFs too."""
        return self._dofs(self.comps[1])

    def assemble(self, coef: np.ndarray) -> sparse.csr_matrix:
        """The operator of ``coef``, assembled on the pattern."""
        return sparse.csr_matrix(
            (self.scatter @ coef, self.indices, self.indptr), shape=self.shape
        )

    def product(self, coef: np.ndarray, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """``A x``, or ``Aᵀ x`` if ``transpose``, for the operator A of
        ``coef``, element by element, with no pattern: every element's
        entries of ``x`` at its column DOFs (its row DOFs for ``Aᵀ``), one
        product with each template, and one weighted ``bincount`` onto its
        row DOFs (column DOFs). The gathered entries and the products are
        written to two buffers the operator keeps, one shaped as the
        elements' row DOFs and one as their column DOFs, which the two
        directions swap, so a one-template product allocates no
        element-sized temporary."""
        rows, cols = (self._dofs(c) for c in self.comps)
        if self._buffers is None:
            self._buffers = np.empty(rows.shape), np.empty(cols.shape)
        at_rows, at_cols = self._buffers
        templates = np.swapaxes(self.templates, 1, 2)  # x_e @ K_tᵀ = (K_t x_e)ᵀ
        if transpose:
            rows, cols, at_rows, at_cols, templates = cols, rows, at_cols, at_rows, self.templates
        np.take(x, cols, out=at_cols, mode="clip")  # "raise" would copy through a buffer
        coef = np.reshape(coef, (len(templates), -1))
        np.matmul(at_cols, templates[0], out=at_rows)
        at_rows *= coef[0][:, None]
        for c, k in zip(coef[1:], templates[1:]):
            at_rows += c[:, None] * (at_cols @ k)
        return np.bincount(rows.ravel(), weights=at_rows.ravel(),
                           minlength=self.shape[1 if transpose else 0])


class ElementSum:
    """The operator of ``op`` (a ``StencilOperator``) for the coefficients
    ``coef``, or its transpose if ``transpose``, not assembled: ``@``
    multiplies element by element, ``T`` is the transposed element sum, and
    ``assemble`` forms the CSR."""

    def __init__(self, op: StencilOperator, coef: np.ndarray, transpose: bool = False):
        self.op, self.coef, self.transpose = op, coef, transpose
        self.shape = op.shape[::-1] if transpose else op.shape

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.op.product(self.coef, x, self.transpose)

    @property
    def T(self) -> "ElementSum":
        return ElementSum(self.op, self.coef, not self.transpose)

    def assemble(self) -> sparse.csr_matrix:
        a = self.op.assemble(self.coef)
        return a.T.tocsr() if self.transpose else a


def filter_matrix(grid: Grid, r_min: float) -> sparse.csr_matrix:
    """The density filter: the cone weights w_ij = max(0, r_min - |c_i -
    c_j|) between element centroids, each row scaled to sum to one. Built in
    one pass over the (element, offset) table: with x fastest, the column
    ids of a row grow with the offset, so the table read row by row is the
    CSR."""
    if not r_min > 0:
        raise ConfigError(f"filter radius must be > 0, got {r_min}")
    reach = int(np.ceil(r_min / grid.h))
    offsets = lattice((2 * reach + 1,) * grid.dim) - reach
    dist = np.linalg.norm(offsets, axis=1) * grid.h
    keep = r_min - dist > 0
    offsets, wvals = offsets[keep], (r_min - dist)[keep]

    valid, cols = lattice_neighbours(grid.elem_ijk, grid.nel_axis, offsets)
    counts = valid.sum(axis=1)
    indptr = np.zeros(grid.nelem + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    kernel = sparse.csr_matrix(
        (np.broadcast_to(wvals, valid.shape)[valid], cols[valid], indptr),
        shape=(grid.nelem, grid.nelem),
    )
    kernel.data *= np.repeat(1.0 / np.asarray(kernel.sum(axis=1)).ravel(), counts)
    return kernel
