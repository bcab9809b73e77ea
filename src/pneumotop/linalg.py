"""Sparse SPD solves to one backward-error contract, through one of three
inverse operators.

Solutions are accepted when the normwise backward error
``||b - A x|| / (||A|| ||x|| + ||b||)`` drops below the tolerance. Plain
``||r|| / ||b||`` is the wrong yardstick here: void regions at the stiffness
floor accumulate displacements orders of magnitude above the structural
ones, which raises the attainable residual floor to eps * ||A|| * ||x||
regardless of solver quality. ``||A||`` is the 1-norm of an assembled block
(``_norm1``) and a lower bound of it for a matrix-free one
(``_norm1_estimate``). The backward error is defined in any norm (Higham
2002, "Accuracy and Stability of Numerical Algorithms", Thm 7.1), and a
smaller norm only makes the computed error larger, so every solution the
lower bound accepts also passes the 1-norm check; CG's stopping test reads
the same norm.

``DirichletReduction.solve`` is the one entry point, and builds every system
solved, a spring sweep's points included: a reduction holds one Dirichlet
set, its fixed DOFs and the values they hold, and reduces every operator of
one ``StencilOperator`` to its free DOFs, by maps built once. The free block
is a ``FactorizedSystem``, the one system class, which holds the contract
and solves through one of three inverse operators:

- ``BandedCholesky`` wherever the reduction has no coarse level, its band
  filled from the gathered free block's data, springs included, by one
  scatter through a map the reduction builds once, and factored in place by
  LAPACK (Anderson et al. 1999, "LAPACK Users' Guide", §5.3.3). The band is
  in LAPACK's lower storage: ``dpbtrf`` factors the pneunet2d elastic band
  (half-bandwidth 73) in about 0.6x the time of the upper.
- ``WoodburyUpdate`` for a spring sweep's point on it, which solves
  ``A + c U Uᵀ`` (U: the r output DOFs) through the one factor ``A = L Lᵀ``
  and its two triangular halves (``dtbtrs``), with ``W = L⁻¹ U``:
  ``(A + c U Uᵀ)⁻¹ = L⁻ᵀ (I - c W (I + c Wᵀ W)⁻¹ Wᵀ) L⁻¹``. ``W`` is zero
  above the first row U touches, and the 2-D output DOFs come last in band
  order, so it costs a half-solve on the last rows only (70 of 10,080 on
  pneunet2d) once per factor, as does the load's forward half-solve, which
  every point shares. Each point then costs one backward half-solve, an
  r x r solve and one residual product with its block, which is the base
  block plus ``c U Uᵀ`` as a rank term (``RankSum``), in 2-D as in 3-D, so
  no point copies the base's data. Its 1-norm is still exact: the base's
  own pass keeps its largest row sum off the rows the springs touch, and a
  point sums only those rows. ``A + c U Uᵀ`` is ``L (I + c W Wᵀ) Lᵀ``, so
  it is SPD exactly when the r x r capacitance ``I + c Wᵀ W`` is, and that
  is factored by Cholesky too.
- ``MultigridCG`` wherever it has coarse levels (a 3-D free block of more
  than COARSEST_DOFS DOFs): conjugate gradients preconditioned with a
  geometric-multigrid V-cycle (Amir, Aage & Lazarov 2014, "On multigrid-CG
  for efficient topology optimization", SMO 49:815) that smooths by one
  damped-Jacobi sweep on each side of every coarse correction. CG and the
  V-cycle update their vectors in place, so an iteration costs three
  products with the finest block (CG's and the two smoothing residuals'),
  the coarse levels and a few passes over the vectors. Each coarse level
  (``GalerkinLevel``) holds its kept DOFs, its transfers and its
  Galerkin product ``Pᵀ A P`` as a linear map of the element coefficients,
  built once, so no sparse product is formed. The flow block is gathered
  and multiplied by its CSR (which stores 1.6x the entries an element
  product gathers). The elastic block, whose operator is matrix-free, is
  never assembled (Schmidt & Schulz 2011, "A matrix-free multigrid CG",
  Comput. Vis. Sci. 14:249; Aage et al. 2017, Nature 550:84): CG, the
  finest level's residuals and the contract's residuals multiply by it
  element by element through the package's one element kernel,
  ``grid.ElementProduct``, on a map of each element's free DOFs (78,960
  entries read on gripper3d against the 806,050 the assembled block would
  store; ``ElementOperator``), plus the springs' rank-r term
  ``c D_f D_fᵀ``, added on D's free rows alone (``RankSum``). Its Jacobi
  diagonal is the templates' diagonals through the same scatter, bit for
  bit an assembly's, and its norm is the lower bound ``_norm1_estimate``:
  Hager's estimate (4 to 6 products on gripper3d designs) or the largest
  diagonal entry, whichever is larger, 0.77 to 0.95 of the 1-norm there. A
  sweep point reuses its base's element diagonal.

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

import numpy as np
from scipy import linalg, sparse
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpbtrf, dpbtrs, dtbtrs

from .errors import SingularSystemError, SolveError
from .grid import (
    CORNER_OFFSETS, ElementMap, ElementProduct, Grid, GridSpec, chunked_take, element_pattern,
    lattice, node_dofs, pattern_slots,
)

RESIDUAL_TOL = 1e-9
MAX_REFINEMENTS = 4
# CG runs well past RESIDUAL_TOL so that it agrees with a direct solve to the
# precision gradients and sweeps compare: on a 40-iteration gripper3d design,
# stopping at 1e-9 left u_out 8.4e-6 relative from scipy's spsolve of the same
# free system, at 1e-10 3.1e-8, and at 1e-12 2.2e-9.
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
# Steps of Hager's estimate of a matrix-free block's 1-norm, at most, as in
# LAPACK's dlacon.
NORM_STEPS = 5
# Rows ``_norm1`` sums at once, which bounds its |data| temporary to those
# rows' entries instead of the whole block's (177,160 on pneunet2d).
NORM_ROWS = 1024
# A pivot this small against the largest marks a numerically singular matrix.
# It lies 970x above a rigid rotation left free (finger2d pinned at one node
# reads 2.0e-14, 1.0e-13 at twice the resolution) and 670x below random 0/1
# finger2d designs at beta 16 (6.7e-8 at modulus contrast 1e6; 2.5e-10 at 1e9).
PIVOT_RATIO_TOL = 1e-10


def _norm1(a, rows=None) -> float:
    """The 1-norm of ``a`` (CSR), taken as its largest absolute row sum,
    which equals the largest column sum because every matrix solved here is
    symmetric; NaN or inf when an entry is, or the sum overflows. Given the
    boolean mask ``rows``, the largest sum over those rows only (0.0 over
    none). It sums NORM_ROWS rows at a time by ``reduceat``, which is right
    only because no row is empty (an SPD matrix stores its diagonal)."""
    norm, ptr = 0.0, a.indptr
    with np.errstate(over="ignore"):  # an overflowed sum is caught as non-finite
        for lo in range(0, len(ptr) - 1, NORM_ROWS):
            starts = ptr[lo:lo + NORM_ROWS + 1]
            sums = np.add.reduceat(np.abs(a.data[starts[0]:starts[-1]]), starts[:-1] - starts[0])
            where = True if rows is None else rows[lo:lo + NORM_ROWS]
            norm = np.maximum(norm, sums.max(initial=0.0, where=where))  # NaN stays NaN
    return float(norm)


def _norm1_estimate(a, diagonal: np.ndarray) -> float:
    """A lower bound of the 1-norm of the symmetric ``a`` (``@``), whose
    diagonal is ``diagonal``: the larger of its largest diagonal entry and
    Hager's estimate (Higham 1988, ACM TOMS 14:381, Algorithm 2.1), which
    starts from the constant vector and takes at most NORM_STEPS steps. Each
    step's ``||a x||_1`` (``||x||_1 = 1``) and ``||a s||_inf`` (``|s| = 1``)
    is at most ``||a||_1 = ||a||_inf``. Their rounding, a few ulps of the
    sums of n terms (Higham 2002, §3.1), is taken off by a factor
    ``1 - 4 n eps``, so the bound holds against ``_norm1`` of the assembled
    block too. NaN or inf when an entry is, or a product overflows."""
    n = diagonal.size
    x, hager = np.full(n, 1.0 / n), 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(NORM_STEPS):
            y = a @ x
            z = a @ np.where(y < 0.0, -1.0, 1.0)  # aᵀ = a
            j = np.argmax(np.abs(z))
            hager = np.max([hager, np.abs(y).sum(), abs(z[j])])  # NaN stays NaN
            if not abs(z[j]) > z @ x:  # a local maximum of ||a x||_1 (or NaN)
                break
            x = np.zeros(n)
            x[j] = 1.0
        hager *= 1.0 - 4 * n * np.finfo(float).eps
        return float(np.max([hager, diagonal.max()]))


class FactorizedSystem:
    """An SPD system ``a`` (``@`` and ``shape``: its CSR, an
    ``ElementOperator`` or a ``RankSum``), solved to the backward-error
    contract with ``norm`` for its 1-norm (``_norm1``, or a lower bound of
    it) through the inverse operator ``lu = inverse(self)``, built once
    ``a``, ``context`` and ``norm`` are set. ``basis`` is what a sweep point
    on this system reuses of its norm (see ``DirichletReduction.solve``). An
    operator that held the system would make a cycle, which outlives its
    last use until the garbage collector runs."""

    def __init__(self, a, *, context: str, inverse, norm: float, basis=None):
        self.a, self.context, self.norm, self.basis = a, context, float(norm), basis
        if not np.isfinite(self.norm):
            raise SolveError(f"{context}: matrix has a non-finite 1-norm ({self.norm})")
        self.lu = inverse(self)

    def _backward_error(self, x, b, resid):
        return resid / (self.norm * np.linalg.norm(x) + np.linalg.norm(b))

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


class BandMap:
    """Where an SPD matrix with a fixed CSR pattern (no duplicate entries)
    goes in LAPACK's lower band storage, built once per pattern.

    ``width`` is the half-bandwidth. The band is read from the upper
    triangle, each entry ``a[j, i]`` (i >= j) standing for its mirror
    ``a[i, j]``: ``src`` is its place in the pattern's data and ``pos`` its
    flat place in the Fortran-ordered (width + 1) x n band,
    ``ab[i - j, j] = a[i, j]``, which ``dpbtrf`` factors in place. Row j of
    the upper triangle fills column j of the band."""

    def __init__(self, indptr, indices):
        self.n = len(indptr) - 1
        rows = np.repeat(np.arange(self.n, dtype=indices.dtype), np.diff(indptr))
        upper = np.flatnonzero(rows <= indices)
        rows, cols = rows[upper], indices[upper]
        self.width = int((cols - rows).max(initial=0))
        # int64 only once the flat index can pass 2**31
        dtype = np.int32 if (self.width + 1) * self.n < 2**31 else np.int64
        # a[i, j] (i = cols, j = rows) lies i - j into column j, which starts at (width + 1) j
        self.pos = cols.astype(dtype) + self.width * rows.astype(dtype)
        self.src = upper.astype(indices.dtype)  # int32 wherever the pattern's indices are

    def band(self, data: np.ndarray) -> np.ndarray:
        flat = np.zeros((self.width + 1) * self.n)
        flat[self.pos] = chunked_take(data, self.src)
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
        self._woodbury = None  # what every update shares, from the first

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

    def update(self, system, c: float, u) -> "WoodburyUpdate":
        """The inverse of ``system``, this factor's matrix plus ``c U Uᵀ``: a
        ``WoodburyUpdate``. Every caller passes the reduction's own
        ``springs[0]`` as ``u``, so ``W = L⁻¹ U``, ``Wᵀ W`` and the forward
        half-solve of the first load are computed once per factor."""
        if self._woodbury is None:
            u = sparse.csr_matrix(u)
            start = int(np.argmax(np.diff(u.indptr) > 0))  # the first row U touches
            w = self.forward(u[start:].toarray(), start)
            self._woodbury = dict(start=start, w=w, gram=w.T @ w, first=[])
        return WoodburyUpdate(system, factor=self, c=c, **self._woodbury)


class WoodburyUpdate:
    """The inverse of ``A + c U Uᵀ`` through the ``BandedCholesky`` factor
    ``A = L Lᵀ``: ``w`` holds the rows from ``start`` on of ``W = L⁻¹ U``
    and ``gram`` is ``Wᵀ W`` (see the module docstring). ``first`` holds
    ``(b, L⁻¹ b)`` of the first ``b`` the sweep solved, for any ``b`` equal to
    it. A sweep updates its base system only, so this has no ``update``."""

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
    """The geometric-multigrid V-cycle under the free block ``a`` (level 0:
    its CSR, its ``ElementOperator`` or a ``RankSum`` of one), whose
    diagonal is ``diagonal``, over the coarse ``levels`` (``GalerkinLevel``,
    finest first) built from the coefficients ``coef``.
    The coarsest level is factored by banded Cholesky; every other level is
    smoothed by one damped-Jacobi sweep before and one after its coarse
    correction, which keeps the V-cycle symmetric. Each smoothed level forms
    its residuals in its own ``scratch`` vector; a call returns a new array
    and leaves ``r`` alone."""

    def __init__(self, a, diagonal, levels, coef, context: str):
        self.levels = levels
        self.matrices = [a] + [level.matrix(coef) for level in levels]
        self.jacobi = [JACOBI_OMEGA / d for d in [diagonal] + [
            a_l.data[level.diagonal] for a_l, level in zip(self.matrices[1:-1], levels)]]
        self.scratch = [np.empty(w.size) for w in self.jacobi]
        band = levels[-1].band_map.band(self.matrices[-1].data)
        self.coarse = BandedCholesky(band, f"{context} (coarsest level)")

    def __call__(self, r: np.ndarray, level: int = 0) -> np.ndarray:
        if level == len(self.levels):
            return self.coarse.solve(r)
        a, w, coarser = self.matrices[level], self.jacobi[level], self.levels[level]
        s = self.scratch[level]
        x = w * r  # pre-smoothing: one Jacobi sweep from x = 0
        np.subtract(r, a @ x, out=s)
        x += coarser.prolongation @ self(coarser.restriction @ s, level + 1)
        np.subtract(r, a @ x, out=s)  # post-smoothing
        s *= w
        x += s
        return x


class MultigridCG:
    """CG over the block of ``system``, multiplied by its ``a`` (``product``:
    a CSR, an ``ElementOperator`` or a ``RankSum`` of one) and held with its
    norm, not the system, preconditioned by ``v_cycle``, which may be
    another block's. A solve updates its iterate, residual and direction in
    place through one scratch vector, and returns a new array."""

    def __init__(self, system, v_cycle: VCycle):
        self.product, self.norm, self.v_cycle = system.a, system.norm, v_cycle
        self.nnz = v_cycle.coarse.nnz

    def solve(self, b: np.ndarray) -> np.ndarray:
        """CG from zero until the backward error of the recursive residual
        reaches CG_TOL, or CG_MAX_ITERS; the system checks the true residual
        afterwards."""
        b_norm = np.linalg.norm(b)
        x, r, s = np.zeros_like(b), b.copy(), np.empty_like(b)
        p = self.v_cycle(r)  # the first direction is z
        rz = r @ p
        for _ in range(CG_MAX_ITERS):
            q = self.product @ p
            alpha = rz / (p @ q)
            x += np.multiply(alpha, p, out=s)
            r -= np.multiply(alpha, q, out=s)
            if np.linalg.norm(r) <= CG_TOL * (self.norm * np.linalg.norm(x) + b_norm):
                break
            z = self.v_cycle(r)
            rz, rz_old = r @ z, rz
            p *= rz / rz_old
            p += z
        return x

    def update(self, system, c: float, u) -> "MultigridCG":
        """CG over ``system``, whose block is this one plus ``c U Uᵀ``,
        preconditioned by this V-cycle: a rank-r change adds at most r CG
        iterations in exact arithmetic (Woodbury's ``Z = A⁻¹ U`` would cost r
        preconditioned solves)."""
        return MultigridCG(system, self.v_cycle)


class RankSum:
    """``q = A p`` (``@``) for ``A = base + Σ c D Dᵀ``, ``base`` anything
    with ``@`` and ``shape`` (a gathered CSR or an ``ElementOperator``), held
    and not copied: ``base @ p``, then each rank term ``c D (Dᵀ p)`` of
    ``terms``, ``(c, (rows, cols), vals)`` for D's entries ``vals`` at
    ``(rows, cols)``, at most one per row. ``Dᵀ p`` is one ``bincount`` over
    D's columns, which sums each column's entries in row order as a sparse
    product does, and the term is added to D's rows alone."""

    def __init__(self, base, terms):
        self.base, self.terms, self.shape = base, terms, base.shape

    def __matmul__(self, p: np.ndarray) -> np.ndarray:
        q = self.base @ p
        for c, (rows, cols), vals in self.terms:
            dtp = np.bincount(cols, weights=vals * p[rows])  # Dᵀ p
            q[rows] += c * (vals * dtp[cols])
        return q

    @staticmethod
    def plus(a, c: float, entries) -> "RankSum":
        """``a`` plus ``c D Dᵀ``, for D given by its ``entries`` ``((rows,
        cols), vals)``, at most one per row: a ``RankSum`` whose terms follow
        ``a``'s own, if ``a`` is one."""
        if isinstance(a, RankSum):
            return RankSum(a.base, a.terms + ((c,) + entries,))
        return RankSum(a, ((c,) + entries,))


def _band_order(nel, n_dofs: int) -> np.ndarray:
    """The DOFs of a 2-D grid with ``nel`` elements per axis, node by node
    with the shorter axis varying fastest and each node's DOFs together."""
    # row j holds the nodes at y = j, x fastest as in the grid's numbering
    nodes = np.arange((nel[0] + 1) * (nel[1] + 1)).reshape(nel[1] + 1, nel[0] + 1)
    if nel[1] < nel[0]:
        nodes = nodes.T  # y has fewer nodes, so y varies fastest
    return node_dofs(nodes.ravel(), n_dofs // nodes.size).ravel()


class DirichletReduction:
    """The free block of every operator of the ``StencilOperator`` ``op`` on
    ``grid``, for the Dirichlet set of the DOFs ``fixed`` and the ``values``
    they hold (one per DOF, or one for all), and of the ``springs`` ``(D,
    S)`` (D: n x r, sparse, at most one entry per row; S = (1/r) D Dᵀ,
    sparse) a solve may add. Built once: the free DOFs in solver order
    (ascending in 3-D, band order in 2-D) and, given springs, D's free rows
    ``springs``. A 3-D block of more than COARSEST_DOFS DOFs gets multigrid
    ``levels``, halving until one keeps at most that many.

    Where it has levels and ``op`` is matrix-free, the block is never
    assembled: its ``element_product`` multiplies it, its diagonal comes
    from the same product's ``diagonal`` plus S's free diagonal
    ``spring_diagonal``, its springs are a rank term of the entries of D's
    free rows (``spring_term``, which a sweep point adds in every
    dimension), and its norm is ``_norm1_estimate``. Every other block
    (``element_product`` None) is gathered from the assembled operator, its
    norm is ``_norm1``, and the reduction holds the place in the operator's
    data of every free x free entry (``gather``), the block's CSR pattern
    (columns unsorted in 2-D; read-only and shared by every block, so
    nothing sorts them in place), the place in the block and value of each
    free x free entry of S (``spring_entries``), the rows those places lie
    in (``spring_rows``: the places of their entries in the data, where
    each row starts among them, and where each of S's places lies among
    them; ``off_springs`` masks the other rows), and either its diagonal's
    places (``diagonal``, with levels) or a ``band_map``."""

    def __init__(self, op, fixed, grid, values=0.0, springs=None):
        n = op.shape[0]
        self.op = op
        self.fixed = np.asarray(fixed)
        self.values = values
        order = _band_order(grid.nel_axis, n) if grid.dim == 2 else np.arange(n)
        is_free = np.isin(order, self.fixed, invert=True)
        self.free = order[is_free]
        self.levels, keep, self.element_product = [], self.free, None
        if grid.dim == 3:  # DOFs in their own order: each element's free DOFs as bits
            masks = np.take(is_free, op.edof) @ (1 << np.arange(op.edof.shape[1], dtype=np.int64))
            while keep.size > COARSEST_DOFS:
                self.levels.append(GalerkinLevel(grid, op.templates, masks, keep,
                                                 len(self.levels) + 1))
                keep = self.levels[-1].keep
        to_free = np.full(n + 1, self.free.size, dtype=np.int32)  # n: a fixed DOF
        to_free[self.free] = np.arange(self.free.size, dtype=np.int32)
        if self.levels and op.matrix_free:
            free_map = ElementMap(np.take(to_free, op.edof), self.free.size, len(op.templates))
            self.element_product = ElementProduct(op.templates, free_map, free_map)
        else:
            self.gather, self.indices, self.indptr = _block(op.indptr, op.indices, self.free, n)
            self.indices.flags.writeable = self.indptr.flags.writeable = False
            if self.levels:
                self.diagonal = _diagonal(self.indptr, self.indices)
            else:
                self.band_map = BandMap(self.indptr, self.indices)
        self.springs = self.off_springs = None
        if springs is not None:
            d, unit = springs
            self.springs = d[self.free]
            d_f = self.springs.tocoo()  # row by row, as the CSR stores it
            self.spring_term = ((d_f.row.astype(np.intp), d_f.col.astype(np.intp)), d_f.data)
            if self.element_product is not None:
                self.spring_diagonal = unit.diagonal()[self.free]
            else:
                unit = unit.tocoo()
                rows, cols = np.take(to_free, unit.row), np.take(to_free, unit.col)
                kept = np.flatnonzero((rows < self.free.size) & (cols < self.free.size))
                places = pattern_slots(self.indptr, self.indices, rows[kept], cols[kept])
                self.spring_entries = (places, unit.data[kept])
                touched = np.unique(rows[kept])
                self.off_springs = np.ones(self.free.size, dtype=bool)
                self.off_springs[touched] = False
                lengths = np.diff(self.indptr)[touched]
                starts = np.cumsum(lengths) - lengths
                entries = np.arange(lengths.sum()) + np.repeat(self.indptr[touched] - starts, lengths)
                self.spring_rows = (entries, starts, np.searchsorted(entries, places))

    def solve(self, a, f, coef, context: str, k: float = 0.0, base=None):
        """Solve ``(A + k S) x = f`` with ``x[fixed] = values``, for ``a`` the
        operator A of the coefficients ``coef`` as this reduction reads it:
        assembled, on ``op``'s pattern, where it gathers its block, and
        otherwise (``element_product``) anything with ``@``, an
        ``ElementSum``. For ``k`` != 0 the springs ``k S`` are added to the
        gathered free block (their entries on fixed DOFs, which must hold
        zero, are left out), and to an element product as the rank-r term
        ``(k / r) D_f D_fᵀ`` of ``spring_term``; they stay off the coarse
        levels. An assembled ``a`` may hold its springs itself, with ``k``
        0. Returns ``(x, system)``; ``system`` solves the block again, for
        adjoints.

        Given ``base = (system, k_base)`` of an earlier solve of this ``a``,
        this is a spring sweep's point, in every dimension the base system's
        block plus the rank term ``((k - k_base) / r) D_f D_fᵀ`` (a
        ``RankSum``, which copies nothing), solved through the base's
        operator updated by that term and checked against it. Its norm comes
        from what the base's norm pass kept, the system's ``basis``: for a
        gathered block, the largest row sum off the rows the springs touch,
        which the point compares with the sums of those rows, its springs
        added, so the norm is bit for bit ``_norm1`` of the point's block
        formed; for an element product, the element diagonal, to which the
        point adds ``k`` times ``spring_diagonal``."""
        x = np.zeros(a.shape[0])
        x[self.fixed] = self.values
        b = np.asarray(f, dtype=float)[self.free]
        if np.any(x):
            b -= (a @ x)[self.free]
        gathered = self.element_product is None
        if gathered and not (sparse.issparse(a) and _same_array(a.indptr, self.op.indptr)
                             and _same_array(a.indices, self.op.indices)):
            raise ValueError(f"{context}: matrix pattern differs from the reduction's")
        if not gathered and sparse.issparse(a):
            raise ValueError(f"{context}: the reduction multiplies element by element; "
                             "pass the operator's element sum")
        rank = k if base is None else k - base[1]  # the springs a rank term adds
        if base is not None:
            block, basis = base[0].a, base[0].basis
        elif gathered:
            data = chunked_take(a.data, self.gather)
            if rank != 0.0:  # NaN too, which the 1-norm reports
                places, unit = self.spring_entries
                data[places] += rank * unit
                rank = 0.0  # in the data
            block = sparse.csr_matrix((data, self.indices, self.indptr), shape=(self.free.size,) * 2)
            basis = _norm1(block, self.off_springs)
        else:
            block, basis = self.element_product.bind(coef), self.element_product.diagonal(coef)
        if gathered:
            norm = basis
            if self.springs is not None:  # the base's data, and the point's springs
                norm = np.maximum(basis, self._spring_rows_norm(block.data, rank))
            diagonal = chunked_take(block.data, self.diagonal) if self.levels and base is None else None
        if rank != 0.0:  # NaN too, which the norm reports
            block = RankSum.plus(block, rank / self.springs.shape[1], self.spring_term)
        if not gathered:
            diagonal = basis + k * self.spring_diagonal if k != 0.0 else basis
            norm = _norm1_estimate(block, diagonal)
        if base is not None:
            def inverse(system, u=self.springs):
                return base[0].lu.update(system, c=rank / u.shape[1], u=u)
        elif self.levels:
            def inverse(system):
                return MultigridCG(system, VCycle(block, diagonal, self.levels, coef, context))
        else:
            def inverse(system):  # the band filled from the block
                return BandedCholesky(self.band_map.band(block.data), context)
        system = FactorizedSystem(block, context=context, inverse=inverse, norm=norm, basis=basis)
        x[self.free] = system.solve(b)
        return x, system

    def _spring_rows_norm(self, data, rank: float):
        """The largest absolute row sum, over the rows the springs touch, of
        the gathered block of ``data`` plus ``rank`` S: those rows' entries,
        taken apart, summed by ``reduceat`` as ``_norm1`` sums each row."""
        entries, starts, places = self.spring_rows
        rows = np.take(data, entries)
        if rank != 0.0:
            rows[places] += rank * self.spring_entries[1]
        with np.errstate(over="ignore"):  # an overflowed sum is caught as non-finite
            return np.add.reduceat(np.abs(rows), starts).max(initial=0.0)  # NaN stays NaN


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
        coarse = Grid(GridSpec(3, nel, s * grid.h))
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
        self.entries = np.empty((coarse.nelem, n_dofs**2))  # matrix's, reused
        index = elem * len(self.templates) + which + len(keys) * np.arange(len(templates))[:, None]
        self.index = index.astype(np.int32).ravel()

        coarse_dofs = node_dofs(coarse.conn, dofs).reshape(-1, n_dofs)
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
        np.matmul(w.reshape(self.shape_w), self.templates, out=self.entries)
        data = np.bincount(self.slots, weights=self.entries.ravel(), minlength=self.nnz + 1)
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


def _same_array(x: np.ndarray, ref: np.ndarray) -> bool:
    """Whether ``x`` equals ``ref``: at once when it is a view of the same
    memory (an assembled matrix shares its operator's pattern arrays), and
    entry by entry otherwise."""
    if x.dtype != ref.dtype or x.shape != ref.shape:
        return False
    same = x.ctypes.data == ref.ctypes.data and x.strides == ref.strides
    return same or np.array_equal(x, ref)


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
