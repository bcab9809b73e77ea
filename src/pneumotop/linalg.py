"""Sparse SPD solves to one backward-error contract, through one of three
inverse operators.

Solutions are accepted when the normwise backward error
``||b - A x|| / (||A||_1 ||x|| + ||b||)`` drops below the tolerance. Plain
``||r|| / ||b||`` is the wrong yardstick here: void regions at the stiffness
floor accumulate displacements orders of magnitude above the structural
ones, which raises the attainable residual floor to eps * ||A|| * ||x||
regardless of solver quality.

``DirichletReduction.solve`` is the one entry point: a reduction holds one
Dirichlet set, its fixed DOFs and the values they hold, and reduces every
grid system of one pattern to its free DOFs, by a gather map built once.
The free block is a ``FactorizedSystem``, the one system class, which holds
the contract and solves through one of three inverse operators:

- ``BandedCholesky`` wherever the reduction has no coarse level, its band
  filled from the full matrix's data by one scatter through a map the
  reduction builds once, and factored in place by LAPACK (Anderson et al.
  1999, "LAPACK Users' Guide", §5.3.3). The band is in LAPACK's lower
  storage: ``dpbtrf`` factors the pneunet2d elastic band (half-bandwidth
  73) in about 0.6x the time of the upper.
- ``WoodburyUpdate`` for a spring sweep on it, which solves ``A + c U Uᵀ``
  (U: the r output DOFs) for several c through the one factor ``A = L Lᵀ``
  and its two triangular halves (``dtbtrs``), with ``W = L⁻¹ U``:
  ``(A + c U Uᵀ)⁻¹ = L⁻ᵀ (I - c W (I + c Wᵀ W)⁻¹ Wᵀ) L⁻¹``. ``W`` is zero
  above the first row U touches, and the 2-D output DOFs come last in band
  order, so it costs a half-solve on the last rows only (70 of 10,080 on
  pneunet2d), and each point costs what one band solve does.
  ``A + c U Uᵀ`` is ``L (I + c W Wᵀ) Lᵀ``, so it is SPD exactly when the
  r x r capacitance ``I + c Wᵀ W`` is, and that is factored by Cholesky too.
- ``MultigridCG`` wherever it has coarse levels (a 3-D free block of more
  than COARSEST_DOFS DOFs): conjugate gradients preconditioned with a
  geometric-multigrid V-cycle (Amir, Aage & Lazarov 2014, "On multigrid-CG
  for efficient topology optimization", SMO 49:815) that smooths by one
  damped-Jacobi sweep on each side of every coarse correction. Each coarse
  level (``GalerkinLevel``) holds its kept DOFs, its transfers and its
  Galerkin product ``Pᵀ A P`` as a linear map of the element coefficients,
  built once, so no sparse product is formed.

Every system solved here is SPD. On a 2-D grid, listing the nodes with the
shorter axis varying fastest keeps the half-bandwidth below
dofs * (n_short + 2) for n_short nodes on that axis (George & Liu 1981,
"Computer Solution of Large Sparse Positive Definite Systems"), and LAPACK's
banded Cholesky of that band is many times faster than sparse LU (finger2d
elastic: 3 ms against 45 ms). In 3-D a band spans a whole layer of nodes, so
multigrid coarsens until the coarsest level is small enough for the same
banded Cholesky, whatever the grid's shape.
"""
from __future__ import annotations

from functools import partial

import numpy as np
from scipy import linalg, sparse
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpbtrf, dpbtrs, dtbtrs

from .errors import SingularSystemError, SolveError
from .grid import CORNER_OFFSETS, GridSpec, build_grid, element_pattern, lattice, pattern_slots

RESIDUAL_TOL = 1e-9
MAX_REFINEMENTS = 4
# CG runs well past RESIDUAL_TOL so that it agrees with a direct solve to the
# precision gradients and sweeps compare: on a 40-iteration gripper3d design,
# stopping at 1e-9 left u_out 1.2e-5 relative from a sparse-LU solve of the
# same system, stopping at 1e-12 left it 8.7e-9.
CG_TOL = 1e-12
CG_MAX_ITERS = 500
# One damped-Jacobi sweep before and one after each coarse correction. With
# one sweep, omega = 0.4 and 0.5 took more CG iterations on gripper3d designs,
# and 0.7 left the initial design's adjoint solve at a backward error of
# 1.3e-9.
JACOBI_OMEGA = 0.6
# Multigrid halves every axis while its level keeps more DOFs than this, so
# the coarsest level (6x3x3 elements, 112 and 336 DOFs, on gripper3d) is
# cheap to factor by banded Cholesky. Any value in [384, 637) keeps the
# hierarchies of gripper3d, 25x12x12 and 48x24x24.
COARSEST_DOFS = 500
# A pivot this small against the largest marks a numerically singular matrix.
# It lies 970x above a rigid rotation left free (finger2d pinned at one node
# reads 2.0e-14, 1.0e-13 at twice the resolution) and 670x below random 0/1
# finger2d designs at beta 16 (6.7e-8 at modulus contrast 1e6; 2.5e-10 at 1e9).
PIVOT_RATIO_TOL = 1e-10


def _row_sums(a) -> np.ndarray:
    """The absolute row sums of ``a`` (CSR). ``reduceat`` sums each row
    correctly only because none is empty (an SPD matrix stores its
    diagonal)."""
    with np.errstate(over="ignore"):  # an overflowed sum is caught as non-finite
        return np.add.reduceat(np.abs(a.data), a.indptr[:-1])


def _norm1(a) -> float:
    """The 1-norm of ``a`` (CSR), taken as its largest absolute row sum,
    which equals the largest column sum because every matrix solved here is
    symmetric. It is NaN or inf when an entry is (or the sum overflows)."""
    return float(_row_sums(a).max(initial=0.0))


class FactorizedSystem:
    """An SPD system ``a`` (CSR), solved to the backward-error contract through
    the inverse operator ``lu = inverse(self)``, built once ``a``, ``context``
    and ``norm1`` (given, or taken from ``a``) are set. An operator that held
    the system would make a cycle, which outlives its last use until the
    garbage collector runs."""

    def __init__(self, a, *, context: str, inverse, norm1: float | None = None):
        self.a = a.tocsr()
        self.context = context
        self.norm1 = _norm1(self.a) if norm1 is None else norm1
        if not np.isfinite(self.norm1):
            raise SolveError(f"{context}: matrix has a non-finite 1-norm ({self.norm1})")
        self.lu = inverse(self)

    def _backward_error(self, x, b, resid):
        return resid / (self.norm1 * np.linalg.norm(x) + np.linalg.norm(b))

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        # an overflowed or NaN norm fails the check below
        with np.errstate(over="ignore", invalid="ignore"):
            if np.linalg.norm(b) == 0.0:
                return np.zeros_like(b)
            x = self.lu.solve(b)
            if not np.all(np.isfinite(x)):
                raise SingularSystemError(
                    f"{self.context}: produced non-finite solution"
                )
            resid = np.linalg.norm(b - self.a @ x)
            for _ in range(MAX_REFINEMENTS):
                # an overflowed residual cannot be refined on
                if not np.isfinite(resid) or self._backward_error(x, b, resid) <= RESIDUAL_TOL:
                    break
                x = x + self.lu.solve(b - self.a @ x)
                resid = np.linalg.norm(b - self.a @ x)
            err = self._backward_error(x, b, resid)
        if not err <= RESIDUAL_TOL:  # also rejects a NaN or an overflow
            raise SolveError(
                f"{self.context}: backward error {err:.3e} exceeds "
                f"{RESIDUAL_TOL:.0e} after refinement"
            )
        return x

    def rank_updates(self, u, coefficients):
        """Yield the system ``a + c U Uᵀ`` (U sparse, n × r) for each c, its
        matrix and inverse given by this system's operator. Only the rows U
        touches change, so each 1-norm sums those rows alone."""
        u = sparse.csr_matrix(u)
        rows = np.flatnonzero(np.diff(u.indptr))
        rest = np.delete(_row_sums(self.a), rows).max(initial=0.0)
        for a_c, inverse in self.lu.rank_updates(self, u, coefficients):
            norm1 = float(np.maximum(rest, _norm1(a_c[rows])))  # NaN stays NaN
            yield FactorizedSystem(a_c, context=self.context, inverse=inverse, norm1=norm1)
            del a_c, inverse  # a dropped system is freed before the next is built


class BandMap:
    """Where an SPD matrix with a fixed CSR pattern (no duplicate entries)
    goes in LAPACK's lower band storage, built once per pattern.

    ``width`` is the half-bandwidth. The band is read from the upper
    triangle, each entry ``a[j, i]`` (i >= j) standing for its mirror
    ``a[i, j]``: ``src`` is its place in the data the band is read from (the
    pattern's own data, or through ``places`` the data those entries were
    gathered from) and ``pos`` its flat place in the Fortran-ordered
    (width + 1) x n band, ``ab[i - j, j] = a[i, j]``, which ``dpbtrf``
    factors in place. Row j of the upper triangle fills column j of the
    band."""

    def __init__(self, indptr, indices, places=None):
        self.n = len(indptr) - 1
        rows = np.repeat(np.arange(self.n, dtype=indices.dtype), np.diff(indptr))
        upper = np.flatnonzero(rows <= indices)
        rows, cols = rows[upper], indices[upper]
        self.width = int((cols - rows).max(initial=0))
        # int64 only once the flat index can pass 2**31
        dtype = np.int32 if (self.width + 1) * self.n < 2**31 else np.int64
        # a[i, j] (i = cols, j = rows) lies i - j into column j, which starts at (width + 1) j
        self.pos = cols.astype(dtype) + self.width * rows.astype(dtype)
        self.src = upper if places is None else places[upper]

    def band(self, data: np.ndarray) -> np.ndarray:
        flat = np.zeros((self.width + 1) * self.n)
        flat[self.pos] = data[self.src]
        return flat.reshape(self.width + 1, self.n, order="F")


class BandedCholesky:
    """Cholesky factor ``L Lᵀ`` of an SPD matrix given as its LAPACK lower
    band (see ``BandMap``), with finite entries, factored in place when the
    band is F-contiguous. Its cost grows with n times the square of the
    half-bandwidth, so the matrix should come in a band order."""

    def __init__(self, band: np.ndarray, context: str):
        self.context = context
        self.factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:  # a leading minor is not positive definite
            raise SingularSystemError(f"{context}: factorization failed (LAPACK info {info})")
        # Roundoff can slip rigid-body modes past the factorization; a
        # collapsed pivot is the reliable tell.
        pivots = self.factor[0] ** 2
        if pivots.size and pivots.min() <= PIVOT_RATIO_TOL * pivots.max():
            raise SingularSystemError(
                f"{context}: matrix is numerically singular "
                f"(pivot ratio {pivots.min() / pivots.max():.2e})"
            )
        self.nnz = self.factor.size

    def solve(self, b: np.ndarray) -> np.ndarray:
        return dpbtrs(self.factor, b, lower=1)[0]

    def forward(self, b: np.ndarray, start: int = 0) -> np.ndarray:
        """The rows from ``start`` on of ``y`` in ``L y = b``, for ``b`` zero
        above row ``start`` and given as its rows from ``start`` on (``y`` is
        zero there too). LAPACK substitutes forward by columns, so the zero
        rows above ``start`` would add nothing to the rows below: this is
        bit-identical to the full solve."""
        return self._half_solve(start, b, "N")

    def backward(self, y: np.ndarray) -> np.ndarray:
        """``x`` in ``Lᵀ x = y``."""
        return self._half_solve(0, y, "T")

    def _half_solve(self, start: int, b: np.ndarray, trans: str) -> np.ndarray:
        x, info = dtbtrs(self.factor[:, start:], b, uplo="L", trans=trans)
        if info != 0:
            raise SingularSystemError(
                f"{self.context}: triangular solve failed (LAPACK info {info})"
            )
        return x

    def rank_updates(self, system, u, coefficients):
        """Yield ``(a + c U Uᵀ, inverse)`` for each c, ``a`` the matrix of
        ``system``, on ``a``'s pattern with ``c U Uᵀ`` added to the slots of
        ``U Uᵀ`` (``ValueError`` if one is not in it), and the inverse a
        ``WoodburyUpdate`` of this factor. The slots and ``W = L⁻¹ U``, on
        the rows from the first that U touches, are computed once, and so is
        the forward half-solve of the first load, which a sweep solves at
        every point."""
        a, u = system.a, sparse.csr_matrix(u)
        uu = (u @ u.T).tocoo()
        slots = pattern_slots(a.indptr, a.indices, uu.row, uu.col)
        start = int(np.argmax(np.diff(u.indptr) > 0))  # the first row U touches
        w = self.forward(u[start:].toarray(), start)
        gram = w.T @ w
        first = []  # (b, L⁻¹ b) of the first load solved
        for c in coefficients:
            a_c = a.copy()  # its own data and index arrays, as the reduction gives each free block
            a_c.data[slots] += c * uu.data
            yield a_c, partial(
                WoodburyUpdate, factor=self, c=c, start=start, w=w, gram=gram, first=first
            )
            del a_c


class WoodburyUpdate:
    """The inverse of ``A + c U Uᵀ`` through the ``BandedCholesky`` factor
    ``A = L Lᵀ``: ``w`` holds the rows from ``start`` on of ``W = L⁻¹ U``
    and ``gram`` is ``Wᵀ W`` (see the module docstring). ``first`` holds
    ``(b, L⁻¹ b)`` of the first ``b`` the sweep solved, for any ``b`` equal to
    it. A sweep updates its base system only, so this has no ``rank_updates``."""

    def __init__(self, system, *, factor: BandedCholesky, c: float, start: int, w, gram, first):
        self.factor, self.nnz = factor, factor.nnz
        self._c, self._start, self._w, self._first = c, start, w, first
        try:
            self._capacitance = linalg.cho_factor(np.eye(len(gram)) + c * gram)
        except LinAlgError as exc:
            raise SingularSystemError(
                f"{system.context}: rank-updated matrix is not positive definite ({exc})"
            ) from exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        if not self._first:
            self._first.append((b.copy(), self.factor.forward(b)))
        first_b, first_y = self._first[0]
        y = first_y.copy() if np.array_equal(b, first_b) else self.factor.forward(b)
        tail = y[self._start:]
        tail -= self._c * (self._w @ linalg.cho_solve(self._capacitance, self._w.T @ tail))
        return self.factor.backward(y)


class VCycle:
    """The geometric-multigrid V-cycle under the free block ``a`` (level 0),
    whose diagonal is ``diagonal``, over the coarse ``levels``
    (``GalerkinLevel``, finest first) built from the coefficients ``coef``.
    The coarsest level is factored by banded Cholesky; every other level is
    smoothed by one damped-Jacobi sweep before and one after its coarse
    correction, which keeps the V-cycle symmetric."""

    def __init__(self, a, diagonal, levels, coef, context: str):
        self.levels = levels
        self.matrices = [a] + [level.matrix(coef) for level in levels]
        self.jacobi = [JACOBI_OMEGA / d for d in [diagonal] + [
            a_l.data[level.diagonal] for a_l, level in zip(self.matrices[1:-1], levels)]]
        band = levels[-1].band_map.band(self.matrices[-1].data)
        self.coarse = BandedCholesky(band, f"{context} (coarsest level)")

    def __call__(self, r: np.ndarray, level: int = 0) -> np.ndarray:
        if level == len(self.levels):
            return self.coarse.solve(r)
        a, w, coarser = self.matrices[level], self.jacobi[level], self.levels[level]
        x = w * r  # pre-smoothing: one Jacobi sweep from x = 0
        coarse_r = coarser.restriction @ (r - a @ x)
        x += coarser.prolongation @ self(coarse_r, level + 1)
        x += w * (r - a @ x)  # post-smoothing
        return x


class MultigridCG:
    """CG over the matrix of ``system`` (held with its 1-norm, not the system)
    preconditioned by ``v_cycle``, which may be another matrix's."""

    def __init__(self, system, v_cycle: VCycle):
        self.a, self.norm1, self.v_cycle = system.a, system.norm1, v_cycle
        self.nnz = v_cycle.coarse.nnz

    def solve(self, b: np.ndarray) -> np.ndarray:
        """CG from zero until the backward error of the recursive residual
        reaches CG_TOL, or CG_MAX_ITERS; the system checks the true residual
        afterwards."""
        b_norm = np.linalg.norm(b)
        x, r = np.zeros_like(b), b.copy()
        z = self.v_cycle(r)
        p, rz = z.copy(), r @ z
        for _ in range(CG_MAX_ITERS):
            q = self.a @ p
            alpha = rz / (p @ q)
            x += alpha * p
            r -= alpha * q
            if np.linalg.norm(r) <= CG_TOL * (self.norm1 * np.linalg.norm(x) + b_norm):
                break
            z = self.v_cycle(r)
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p
        return x

    def rank_updates(self, system, u, coefficients):
        """Yield ``(a + c U Uᵀ, inverse)`` for each c, ``a`` the matrix of
        ``system``: CG over the sum, preconditioned by this V-cycle. A rank-r
        change adds at most r CG iterations in exact arithmetic, and no hierarchy
        is rebuilt (Woodbury's ``Z = A⁻¹ U`` would cost r preconditioned solves)."""
        uu = u @ u.T
        for c in coefficients:
            yield (system.a + c * uu).tocsr(), partial(MultigridCG, v_cycle=self.v_cycle)


def _band_order(nel, n_dofs: int) -> np.ndarray:
    """The DOFs of a 2-D grid with ``nel`` elements per axis, node by node
    with the shorter axis varying fastest and each node's DOFs together."""
    # row j holds the nodes at y = j, x fastest as in the grid's numbering
    nodes = np.arange((nel[0] + 1) * (nel[1] + 1)).reshape(nel[1] + 1, nel[0] + 1)
    if nel[1] < nel[0]:
        nodes = nodes.T  # y has fewer nodes, so y varies fastest
    dofs_per_node = n_dofs // nodes.size
    return (dofs_per_node * nodes.reshape(-1, 1) + np.arange(dofs_per_node)).ravel()


class DirichletReduction:
    """The free block of every matrix on the pattern of the
    ``StencilOperator`` ``op`` on ``grid``, for the Dirichlet set of the DOFs
    ``fixed`` and the ``values`` they hold (one per DOF, or one for all).
    Built once: the free DOFs in solver order (ascending in 3-D, band order
    in 2-D) and the place in the full data of every free x free entry with
    the block's CSR pattern (columns unsorted in 2-D). A 3-D block of more
    than COARSEST_DOFS DOFs gets multigrid ``levels``, halving until one
    keeps at most that many, and its diagonal's places; any other block a
    ``band_map``."""

    def __init__(self, op, fixed, grid, values=0.0):
        n = op.shape[0]
        self.pattern = (op.indptr, op.indices)
        self.fixed = np.asarray(fixed)
        self.values = values
        order = _band_order(grid.nel_axis, n) if grid.dim == 2 else np.arange(n)
        is_free = np.isin(order, self.fixed, invert=True)
        self.free = order[is_free]
        self.gather, self.indices, self.indptr = _block(op.indptr, op.indices, self.free, n)
        self.levels, keep = [], self.free
        if grid.dim == 3:  # DOFs in their own order: each element's free DOFs as bits
            edof = grid.conn if n == grid.nnodes else grid.edof_u
            masks = np.take(is_free, edof) @ (1 << np.arange(edof.shape[1], dtype=np.int64))
            while keep.size > COARSEST_DOFS:
                self.levels.append(GalerkinLevel(grid, op.templates, masks, keep,
                                                 len(self.levels) + 1))
                keep = self.levels[-1].keep
        if self.levels:
            self.diagonal = self.gather[_diagonal(self.indptr, self.indices)]
        else:
            self.band_map = BandMap(self.indptr, self.indices, places=self.gather)

    def solve(self, a, f, coef, context: str):
        """Solve ``A x = f`` with ``x[fixed] = values``, for ``a`` (CSR) on
        this reduction's pattern, assembled from the coefficients ``coef``;
        what was added to ``a`` (the springs) stays off the coarse levels.
        Returns ``(x, system)``; ``system`` solves the free block again, on
        ``free``, for adjoints and spring sweeps."""
        indptr, indices = self.pattern
        if not (np.array_equal(a.indptr, indptr) and np.array_equal(a.indices, indices)):
            raise ValueError(f"{context}: matrix pattern differs from the reduction's")
        x = np.zeros(a.shape[0])
        x[self.fixed] = self.values
        b = np.asarray(f, dtype=float)[self.free]
        if np.any(x):
            b -= (a @ x)[self.free]
        # The free block gets its own index arrays, which scipy may sort in place.
        a_ff = sparse.csr_matrix(
            (a.data[self.gather], self.indices.copy(), self.indptr.copy()),
            shape=(self.free.size,) * 2,
        )
        if self.levels:
            def inverse(system):
                v_cycle = VCycle(system.a, a.data[self.diagonal], self.levels, coef, context)
                return MultigridCG(system, v_cycle)
            # CG's matvecs cost what is stored: drop the exact zeros that a
            # uniform modulus cancels to.
            a_ff.eliminate_zeros()
        else:
            def inverse(system):  # the band filled from the full data
                return BandedCholesky(self.band_map.band(a.data), context)
        system = FactorizedSystem(a_ff, context=context, inverse=inverse)
        x[self.free] = system.solve(b)
        return x, system


class GalerkinLevel:
    """Level ``level`` (1 or more) of a 3-D multigrid hierarchy, ``Pᵀ A P``
    for A the free block of ``Σ_k Σ_e c[k, e] G_eᵀ K_k G_e`` (``templates``
    K_k), as a linear map of c. Each fine element e lies in one element E of
    the level, so it is ``Σ_k Σ_e c[k, e] Q_eᵀ K_k Q_e`` on E's DOFs, Q_e
    interpolating e's free DOFs (the bits of ``masks[e]``) from E's corners.
    ``templates`` holds ``Q_eᵀ K_k Q_e`` per k and distinct (place in E,
    mask), ``index`` the place of c[k, e] in W (E x template) and ``slots``
    that of each entry of ``W @ templates`` in the data, past its end for a
    DOF no free fine DOF interpolates from. ``keep`` lists the others, and
    ``prolongation`` interpolates them onto the finer level's ``finer_keep``
    (``restriction`` is its transpose). The coarsest level, the first to keep
    at most COARSEST_DOFS DOFs, holds its ``band_map``."""

    def __init__(self, grid, templates, masks, finer_keep, level: int):
        s, n_dofs = 2**level, templates.shape[1]
        dofs, nel = n_dofs // grid.nen, tuple(-(-m // s) for m in grid.nel_axis)
        coarse = build_grid(GridSpec(3, nel, s * grid.h))
        elem = (grid.elem_ijk // s) @ np.cumprod((1,) + nel[:-1])
        place = (grid.elem_ijk % s) @ s ** np.arange(3)
        keys, which = np.unique((place << n_dofs) | masks, return_inverse=True)
        # Q per key: E's corner weights at e's corners, zero at e's fixed DOFs
        corners, places = CORNER_OFFSETS[3], lattice((s,) * 3)
        t = ((places[:, None, :] + corners) / s)[:, :, None, :]  # e's corners in E, 0 to 1
        w = np.take(np.where(corners == 1, t, 1.0 - t).prod(axis=-1), keys >> n_dofs, axis=0)
        q = (w[:, :, None, :, None] * np.eye(dofs)[:, None, :]).reshape(len(keys), n_dofs, n_dofs)
        q *= ((keys[:, None] >> np.arange(n_dofs)) & 1)[:, :, None]
        self.templates = (np.swapaxes(q, 1, 2) @ (templates[:, None] @ q)).reshape(-1, n_dofs**2)
        self.shape_w = (coarse.nelem, len(self.templates))
        index = elem * len(self.templates) + which + len(keys) * np.arange(len(templates))[:, None]
        self.index = index.astype(np.int32).ravel()

        coarse_dofs = (dofs * coarse.conn[:, :, None] + np.arange(dofs)).reshape(-1, n_dofs)
        reached = np.zeros(dofs * coarse.nnodes, dtype=bool)
        reached[np.take(coarse_dofs, elem, axis=0)[np.take(q.any(axis=1), which, axis=0)]] = True
        self.keep = keep = np.flatnonzero(reached)
        p = sparse.identity(dofs, format="csr")
        for m in (-(-n // (s // 2)) for n in grid.nel_axis):  # finer level; x innermost
            p = sparse.kron(_prolongation_1d(m), p, format="csr")
        self.prolongation = p[finer_keep][:, keep].tocsr()
        self.restriction = self.prolongation.T.tocsr()
        indptr, indices, slot = element_pattern(coarse, dofs, dofs)
        gather, self.indices, self.indptr = _block(indptr, indices, keep, reached.size)
        to_kept = np.full(indptr[-1], gather.size, dtype=np.int32)
        to_kept[gather] = np.arange(gather.size, dtype=np.int32)
        self.nnz, self.slots = self.indices.size, np.take(to_kept, slot).ravel()
        if keep.size > COARSEST_DOFS:  # smoothed by Jacobi on its diagonal
            self.diagonal = _diagonal(self.indptr, self.indices).astype(np.int32)
        else:  # the coarsest level, factored
            self.band_map = BandMap(self.indptr, self.indices)

    def matrix(self, coef: np.ndarray) -> sparse.csr_matrix:
        """The level of the coefficients ``coef`` (template-major, as the
        operator's): one sum per coarse element and template, one product
        with the templates and one scatter."""
        w = np.bincount(self.index, weights=coef, minlength=np.prod(self.shape_w))
        entries = w.reshape(self.shape_w) @ self.templates
        data = np.bincount(self.slots, weights=entries.ravel(), minlength=self.nnz + 1)
        n = self.keep.size
        return sparse.csr_matrix((data[:-1], self.indices, self.indptr), shape=(n, n))


def _block(indptr, indices, rows, n: int):
    """``(places, indices, indptr)`` of the block on ``rows`` (and columns)
    of a CSR pattern of ``n`` rows: each entry's place in the data, row by
    row, and the block's pattern."""
    new = np.full(n, -1, dtype=np.int32)
    new[rows] = np.arange(rows.size, dtype=np.int32)
    starts, lengths = indptr[rows], np.diff(indptr)[rows]
    ends = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int32)
    entries = np.arange(ends[-1], dtype=np.int32)  # every entry of the rows
    entries += np.repeat(starts - ends[:-1], lengths)
    cols = np.take(new, np.take(indices, entries))
    kept = np.flatnonzero(cols >= 0)
    return np.take(entries, kept), np.take(cols, kept), np.searchsorted(kept, ends).astype(np.int32)


def _diagonal(indptr, indices) -> np.ndarray:
    """The place of each row's diagonal in a pattern that stores each once."""
    rows = np.repeat(np.arange(len(indptr) - 1, dtype=indices.dtype), np.diff(indptr))
    return np.flatnonzero(indices == rows)


def _prolongation_1d(n: int) -> sparse.csr_matrix:
    """Linear interpolation onto the ``n + 1`` nodes of ``n`` elements from
    the ``ceil(n / 2) + 1`` nodes of twice as long ones: fine node 2i takes
    coarse node i, and fine node 2i + 1 the mean of coarse nodes i and i + 1.
    For odd n the last coarse node lies one element past the end."""
    fine = np.arange(n + 1)
    even, odd = fine[::2], fine[1::2]
    rows = np.concatenate([even, odd, odd])
    cols = np.concatenate([even // 2, odd // 2, odd // 2 + 1])
    vals = np.concatenate([np.ones(even.size), np.full(2 * odd.size, 0.5)])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n + 1, (n + 1) // 2 + 1))
