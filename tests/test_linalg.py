"""Backward-error contract of the banded-Cholesky and multigrid solves and
of a spring sweep's updates of them, the 2-D band order and band map, the
1-norm, and the grid's choice between them."""
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from pneumotop import adjoint, darcy, elasticity, grid, linalg, optimizer, problem, runner, shapefn
from pneumotop import fixtures as fixture_lib
from pneumotop.adjoint import ObjectiveSpec
from pneumotop.elasticity import ElasticAssembler
from pneumotop.errors import SingularSystemError, SolveError
from pneumotop.grid import ElementOperator, ElementProduct, ElementSum, Grid, GridSpec, StencilOperator
from pneumotop.materials import interpolate_modulus
from pneumotop.model import Model

from tinyproblem import block_problem_dict


def _operator(reduction, op, coef):
    """The operator of ``coef`` as ``reduction`` reads it: assembled on
    ``op``'s pattern, or its element sum where it multiplies element by
    element."""
    return op.assemble(coef) if reduction.element_product is None else ElementSum(op, coef)


def _solve_dirichlet(g, op, coef, fixed, f, k=None):
    """``k x = f`` with ``x[fixed] = 0``, for ``k`` the operator of ``coef``
    as the reduction built for ``op`` on the grid ``g`` reads it, unless
    given: ``(x, free, system)``."""
    reduction = linalg.DirichletReduction(op, fixed, g)
    k = _operator(reduction, op, coef) if k is None else k
    x, system = reduction.solve(k, f, coef, context="test system")
    return x, reduction.free, system


def _factorized(a):
    """``a``'s FactorizedSystem, its band filled through the map of its own
    pattern, checked against its 1-norm."""
    a = sparse.csr_matrix(a)
    band = linalg.BandMap(a.indptr, a.indices).band(a.data)
    return linalg.FactorizedSystem(
        a, context="test system", inverse=lambda s: linalg.BandedCholesky(band, s.context),
        norm=linalg._norm1(a),
    )


# The spring stiffness of a 2-D sweep's base solve.
K0 = 10.0


def _spring_sweep(columns, k_base=K0):
    """A spring sweep on the gray 2-D stiffness K of ``_gray_2d`` (x = 0 edge
    fixed), its reduction holding the springs ``S = (1/r) D Dᵀ`` of
    ``D = columns(free, n)``, for ``free`` its free DOFs in band order:
    ``(base, point, dense)``. ``base`` is the system of the solve at
    ``k_base``, ``point(k)`` the ``(x, system)`` of the sweep's point at k
    on it, and ``dense(k)`` the free block of ``K + k S`` (dense, in band
    order) with the free load."""
    g, op, coef, fixed, f = _gray_2d((12, 4), 2)
    order = linalg._band_order(g.nel_axis, op.shape[0])
    d = columns(order[np.isin(order, fixed, invert=True)], op.shape[0])
    s = (d @ d.T / d.shape[1]).tocsr()
    reduction = linalg.DirichletReduction(op, fixed, g, springs=(d, s))
    k = op.assemble(coef)
    _, base = reduction.solve(k, f, coef, "test system", k_base)

    def point(k_point):
        return reduction.solve(k, f, coef, "test system", k_point, base=(base, k_base))

    def dense(k_point):
        free = reduction.free
        return (k + k_point * s).toarray()[np.ix_(free, free)], f[free]

    return base, point, dense


def _node_columns(where):
    """``columns`` for ``_spring_sweep``: D with one column for each of the
    three nodes whose DOFs come first or last among the free DOFs (2 per
    node, together in band order), random weights on both of its DOFs, so
    that D Dᵀ couples them."""
    def columns(free, n):
        rows = free[:6] if where == "first-rows" else free[-6:]
        weights = np.random.default_rng(5).uniform(0.5, 1.5, rows.size)
        return sparse.csr_matrix((weights, (rows, np.repeat(np.arange(3), 2))), shape=(n, 3))
    return columns


def test_rank_updates_solve_updated_matrix_with_one_factorization(monkeypatch):
    calls, real_dpbtrf = [], linalg.dpbtrf

    def counting_dpbtrf(band, **kwargs):
        calls.append(band.shape[1])
        return real_dpbtrf(band, **kwargs)

    monkeypatch.setattr(linalg, "dpbtrf", counting_dpbtrf)
    base, point, dense = _spring_sweep(_node_columns("last-rows"))
    for k in [0.5, 1e2, 1e4]:  # softer and stiffer than the base
        _, system = point(k)
        # through the base factor's halves, not a factor of its own
        assert isinstance(system.lu, linalg.WoodburyUpdate) and system.lu.factor is base.lu
        a_k, b = dense(k)
        x = system.solve(b)
        assert _backward_error(a_k, x, b) <= linalg.RESIDUAL_TOL
        assert np.allclose(x, np.linalg.solve(a_k, b), rtol=1e-10, atol=0)
    assert calls == [base.a.shape[0]]


def test_rank_update_missing_the_contract_raises(monkeypatch):
    _, point, _ = _spring_sweep(_node_columns("last-rows"))
    monkeypatch.setattr(linalg, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SolveError, match="test system: backward error"):
        point(1e3)


def _band_system(nel=(12, 4)):
    """The banded Cholesky system of a gray 2-D stiffness's free block
    (x = 0 edge fixed), its free load, and a random generator."""
    g, op, coef, fixed, f = _gray_2d(nel, 2)
    _, free, system = _solve_dirichlet(g, op, coef, fixed, f)
    return system, f[free], np.random.default_rng(4)


def test_half_solves_compose_to_the_band_solve():
    system, b, _ = _band_system()
    x = system.lu.backward(system.lu.forward(b))
    exact = system.lu.solve(b)
    assert np.linalg.norm(x - exact) <= 1e-12 * np.linalg.norm(exact)


@pytest.mark.parametrize("rhs", [1, 3])
def test_trailing_half_solve_is_bit_identical_to_the_full_one(rhs):
    # a band wide enough for the dot products to sum in SIMD blocks
    system, _, rng = _band_system((40, 20))
    n, width = system.a.shape[0], system.lu.factor.shape[0] - 1
    for start in (0, width // 2, width, n - 2 * width, n - 5):
        b = rng.normal(size=(n, rhs)).squeeze()
        b[:start] = 0.0
        full = system.lu.forward(b)
        assert np.all(full[:start] == 0.0)
        assert np.array_equal(system.lu.forward(b[start:], start), full[start:])


def test_failed_half_solve_is_singular():
    system, b, _ = _band_system()
    system.lu.factor[0, 3] = 0.0  # a zero pivot on the diagonal
    with pytest.raises(SingularSystemError, match="test system: triangular solve failed"):
        system.lu.forward(b)


@pytest.mark.parametrize("where", ["first-rows", "last-rows"])
def test_rank_updates_match_a_dense_solve(where):
    _, point, dense = _spring_sweep(_node_columns(where))
    for k in [1e2, 1e5, 1e7]:
        _, system = point(k)
        a_k, b = dense(k)
        # the base's block plus (k - K0) S as a rank term, column by column,
        # against K + k S
        assert np.abs(_columns(system.a) - a_k).max() <= 1e-15 * np.abs(a_k).max()
        x = system.solve(b)
        assert np.allclose(x, np.linalg.solve(a_k, b), rtol=1e-10, atol=0)


def _columns(a):
    """``a @ I`` of the operator ``a``, column by column."""
    return np.column_stack([a @ e for e in np.eye(a.shape[0])])


def test_rank_update_outside_the_pattern_raises():
    # one column on the first and the last free DOF: D Dᵀ couples them
    def columns(free, n):
        return sparse.csr_matrix(([1.0, 1.0], (free[[0, -1]], [0, 0])), shape=(n, 1))

    with pytest.raises(ValueError, match="entries lie outside the sparsity pattern"):
        _spring_sweep(columns)  # at the reduction's build


def test_indefinite_rank_update_is_singular():
    # a_kk - 2 a_kk < 0 on the diagonal: A + c e_k e_kᵀ is indefinite
    def columns(free, n):
        return sparse.csr_matrix(([1.0], ([free[-1]], [0])), shape=(n, 1))

    _, point, dense = _spring_sweep(columns, k_base=0.0)
    a_kk = dense(0.0)[0][-1, -1]
    with pytest.raises(SingularSystemError, match="test system: rank-updated matrix is not positive definite"):
        point(-2.0 * a_kk)


def _gray_2d(nel, dofs_per_node, seed=2):
    """The operator of a stiffness (2 DOFs per node) or conduction matrix
    (1) on a 2-D grid, random gray element coefficients, the DOFs on the
    x = 0 edge fixed, and a random load: ``(g, op, coef, fixed, f)``."""
    g = Grid(GridSpec(2, nel, 1.0))
    rng = np.random.default_rng(seed)
    coef = rng.uniform(1e2, 1e6, g.nelem)
    if dofs_per_node == 2:
        op = ElasticAssembler(g, 0.3).op
    else:
        op = StencilOperator(g, shapefn.conduction_matrix(2, g.h))
    edge = np.flatnonzero(g.coords[:, 0] == 0.0)
    fixed = (dofs_per_node * edge[:, None] + np.arange(dofs_per_node)).ravel()
    return g, op, coef, fixed, rng.normal(size=op.shape[0])


@pytest.mark.parametrize("dofs_per_node", [1, 2])
@pytest.mark.parametrize("nel", [(12, 4), (4, 12)], ids=["wide", "tall"])
def test_2d_band_order_bounds_the_bandwidth(nel, dofs_per_node):
    g, op, coef, fixed, f = _gray_2d(nel, dofs_per_node)
    x, free, system = _solve_dirichlet(g, op, coef, fixed, f)
    a_ff, b, free_sorted = _reduced(op.assemble(coef), fixed, f)
    assert np.array_equal(np.sort(free), free_sorted)
    band = system.a.tocoo()
    short = min(g.nnod_axis)
    assert np.abs(band.row - band.col).max() <= dofs_per_node * (short + 1) + dofs_per_node - 1
    assert system.lu.nnz == system.lu.factor.size
    assert np.all(x[fixed] == 0.0)
    exact = spsolve(a_ff.tocsc(), b)
    assert np.linalg.norm(x[free_sorted] - exact) <= 1e-10 * np.linalg.norm(exact)


def _reference_band(a):
    """LAPACK's lower band ``ab[i - j, j] = a[i, j]`` of the symmetric ``a``,
    read from its upper triangle (``a[j, i]`` for i >= j) by ``tocoo``, an
    int64 flat index into a C-ordered band and a weighted ``bincount``."""
    coo = a.tocoo()
    upper = coo.row <= coo.col
    j, i = coo.row[upper].astype(np.int64), coo.col[upper]
    n = a.shape[0]
    width = int((i - j).max(initial=0))
    return np.bincount(
        (i - j) * n + j, weights=coo.data[upper], minlength=(width + 1) * n
    ).reshape(width + 1, n)


@pytest.mark.parametrize("dirichlet", ["edge", "one-component"])
@pytest.mark.parametrize("dofs_per_node", [1, 2])
@pytest.mark.parametrize("nel", [(12, 4), (4, 12)], ids=["wide", "tall"])
def test_band_map_fills_the_band_in_place(nel, dofs_per_node, dirichlet, monkeypatch):
    g, op, coef, fixed, f = _gray_2d(nel, dofs_per_node)
    if dirichlet == "one-component":
        # a symmetry plane: the first component on the x = 0 edge, plus the
        # last component of the origin node against rigid motion
        fixed = np.union1d(fixed[::dofs_per_node], [dofs_per_node - 1])
    handed, real_dpbtrf = [], linalg.dpbtrf

    def recording_dpbtrf(band, **kwargs):
        before = band.copy()
        factor, info = real_dpbtrf(band, **kwargs)
        handed.append((before, band.flags.f_contiguous, np.shares_memory(factor, band)))
        return factor, info

    monkeypatch.setattr(linalg, "dpbtrf", recording_dpbtrf)
    _, _, system = _solve_dirichlet(g, op, coef, fixed, f)
    _factorized(system.a)  # the map of its own pattern
    reference = np.ascontiguousarray(_reference_band(system.a))
    assert len(handed) == 2
    for band, f_contiguous, in_place in handed:
        assert np.ascontiguousarray(band).tobytes() == reference.tobytes()
        assert f_contiguous and in_place


def test_norm1_is_the_largest_column_sum():
    _, _, system_2d = _solve_dirichlet(*_gray_2d((12, 4), 2))
    updated = sparse.csr_matrix(_spring_sweep(_node_columns("last-rows"))[2](1e5)[0])
    g, op, coef, fixed, f = _elastic_3d()
    block_3d = _reduced(op.assemble(coef), fixed, f)[0]  # the 3-D block, assembled here
    for a in (system_2d.a, block_3d, updated):  # the updated block formed here
        # abs() of a CSR with unsorted columns sorts them in place, and a
        # block's index arrays are read-only: take a copy
        column_sum = abs(a.copy()).sum(axis=0).max()
        assert abs(linalg._norm1(a) - column_sum) <= 1e-14 * column_sum


@pytest.mark.parametrize("where", ["first-rows", "last-rows"])
def test_nan_sweep_stiffness_is_a_solve_error(where):
    _, point, _ = _spring_sweep(_node_columns(where))
    with pytest.raises(SolveError, match="test system: matrix has a non-finite 1-norm"):
        point(np.nan)  # the rows the springs touch turn NaN


def test_sweep_takes_the_loads_forward_half_solve_once(monkeypatch):
    _, point, dense = _spring_sweep(_node_columns("last-rows"))
    b = dense(0.0)[1]
    calls, real = [], linalg.BandedCholesky.forward

    def counting(self, rhs, start=0):
        calls.append(np.ndim(rhs) == 1 and np.array_equal(rhs, b))
        return real(self, rhs, start)

    monkeypatch.setattr(linalg.BandedCholesky, "forward", counting)
    for k in [1e2, 1e5, 1e7]:
        _, system = point(k)  # each point gathers its own load, equal in value
        a_k, _ = dense(k)
        assert np.allclose(system.solve(b), np.linalg.solve(a_k, b), rtol=1e-10, atol=0)
    assert calls.count(True) == 1


def test_collapsed_pivot_is_singular():
    for eps in (4e-16, 1e-12):
        # positive definite in exact arithmetic, with a pivot eps of the largest
        a = sparse.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + eps]]))
        with pytest.raises(SingularSystemError, match="test system: matrix is numerically singular"):
            _factorized(a)
    with pytest.raises(SingularSystemError, match="test system: factorization failed"):
        _factorized(-np.eye(2))


def test_overflowing_solution_is_singular():
    # factored with a pivot ratio of one, yet x = b / 1e-300 overflows
    system = _factorized(sparse.diags([1e-300, 1e-300]))
    assert np.array_equal(system.solve(np.array([1e-10, 1e-10])), [1e290, 1e290])
    with pytest.raises(SingularSystemError, match="test system: produced non-finite solution"):
        system.solve(np.array([1e10, 1.0]))


def test_pure_neumann_laplacian_is_singular():
    # the constant lies in its null space, whatever roundoff leaves of the last pivot
    n = 400
    a = sparse.diags([-np.ones(n - 1), np.r_[1.0, 2.0 * np.ones(n - 2), 1.0], -np.ones(n - 1)],
                     [-1, 0, 1])
    with pytest.raises(SingularSystemError, match="test system: "):
        _factorized(a)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e308])
@pytest.mark.parametrize("dim", [2, 3])
def test_non_finite_entry_is_a_solve_error(dim, value):
    # a solver failure, not the "check supports" of a singular system. The
    # 3-D block is matrix-free: its last element's modulus carries a NaN or
    # inf, and every modulus at 1e308 overflows the diagonal's sums
    g, op, coef, fixed, f = _gray_2d((12, 4), 2) if dim == 2 else _elastic_3d()
    k = None
    if dim == 2:
        k = op.assemble(coef)
        k.data[k.indptr[-2]:] = value  # the last row, which is free
    elif np.isfinite(value):
        coef[:] = value
    else:
        coef[-1] = value
    with pytest.raises(SolveError, match="test system: matrix has a non-finite 1-norm") as err:
        _solve_dirichlet(g, op, coef, fixed, f, k)
    assert not isinstance(err.value, SingularSystemError)


def _elastic_3d(nel=(8, 4, 4), seed=1):
    """A clamped-at-x=0 hexahedral block with gray random moduli: the grid,
    the stiffness's operator, the moduli, the clamped DOFs and a random
    load, as ``_solve_dirichlet`` takes them."""
    g = Grid(GridSpec(3, nel, 1.0))
    rng = np.random.default_rng(seed)
    coef = rng.uniform(1e2, 1e6, g.nelem)
    clamped = np.flatnonzero(g.coords[:, 0] == 0.0)
    fixed = (3 * clamped[:, None] + np.arange(3)).ravel()
    return g, ElasticAssembler(g, 0.3).op, coef, fixed, rng.normal(size=g.n_disp_dofs)


def _backward_error(a, x, b):
    a = sparse.csr_matrix(a)
    norm1 = np.abs(a).sum(axis=0).max()
    return np.linalg.norm(b - a @ x) / (norm1 * np.linalg.norm(x) + np.linalg.norm(b))


def _reduced(k, fixed, f):
    free = np.setdiff1d(np.arange(k.shape[0]), fixed)
    return sparse.csr_matrix(k)[free][:, free], f[free], free


def test_multigrid_solve_meets_the_contract():
    # 8x4x4 -> 4x2x2 and 7x5x4 -> 4x3x2: one level each, the odd axes
    # halving with their last coarse node past the end; the thin 32x32x2
    # -> 16x16x1 -> 8x8x1 keeps its axis of one element
    for nel, n_levels in (((8, 4, 4), 1), ((7, 5, 4), 1), ((32, 32, 2), 2)):
        g, op, coef, fixed, f = _elastic_3d(nel)
        u, free, system = _solve_dirichlet(g, op, coef, fixed, f)
        assert isinstance(system.lu, linalg.MultigridCG)
        assert len(system.lu.v_cycle.levels) == n_levels
        assert system.lu.v_cycle.matrices[-1].shape[0] <= linalg.COARSEST_DOFS
        a_ff, b, free_ref = _reduced(op.assemble(coef), fixed, f)
        assert np.array_equal(free, free_ref) and np.all(u[fixed] == 0.0)
        assert _backward_error(a_ff, u[free], b) <= linalg.RESIDUAL_TOL
        exact = spsolve(a_ff.tocsc(), b)
        assert np.linalg.norm(u[free] - exact) <= 1e-8 * np.linalg.norm(exact)


def test_multigrid_missing_the_contract_raises_and_terminates(monkeypatch):
    g, op, coef, fixed, f = _elastic_3d()
    reduction = linalg.DirichletReduction(op, fixed, g)
    calls, real = [], linalg.MultigridCG.solve

    def counting(self, rhs):
        calls.append(1)
        return real(self, rhs)

    monkeypatch.setattr(linalg.MultigridCG, "solve", counting)
    monkeypatch.setattr(linalg, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SolveError, match="test system: backward error"):
        reduction.solve(ElementSum(op, coef), f, coef, "test system")
    assert len(calls) == 1 + linalg.MAX_REFINEMENTS


def test_v_cycle_is_a_symmetric_positive_definite_preconditioner():
    # PCG needs M symmetric and positive definite: one Jacobi sweep before
    # and one after each coarse correction keeps the V-cycle symmetric
    _, free, system = _solve_dirichlet(*_elastic_3d())
    n = free.size
    assert n == 600 and len(system.lu.v_cycle.levels) == 1
    m = np.column_stack([system.lu.v_cycle(e) for e in np.eye(n)])
    r1, r2 = np.random.default_rng(3).normal(size=(2, n))
    assert abs((m @ r1) @ r2 - r1 @ (m @ r2)) <= 1e-12 * np.linalg.norm(m @ r1) * np.linalg.norm(r2)
    assert np.linalg.eigvalsh((m + m.T) / 2).min() > 0.0


@pytest.mark.parametrize("nel,multigrid", [
    ((8, 4), False),
    ((8, 4, 3), False),  # 405 free DOFs
    ((7, 4, 4), False),  # 480
    ((8, 4, 4), True),  # 540
    ((2, 2, 2), False),
    ((32, 32, 2), True),
], ids=["2d", "3d-odd-z", "3d-odd-x", "3d-even", "3d-2x2x2", "3d-thin"])
def test_grid_selects_the_solver(nel, multigrid):
    # multigrid wherever the reduction has a coarse level: a 3-D free block
    # of more than COARSEST_DOFS DOFs; banded Cholesky everywhere else
    g = Grid(GridSpec(len(nel), nel, 1.0))
    fixed = np.arange(g.dim * np.prod(g.nnod_axis[:-1]))  # the first layer of nodes
    f = np.ones(g.n_disp_dofs)
    op = ElasticAssembler(g, 0.3).op
    _, _, system = _solve_dirichlet(g, op, np.ones(g.nelem), fixed, f)
    assert isinstance(system.lu, linalg.MultigridCG) == multigrid
    assert isinstance(system.lu, linalg.BandedCholesky) != multigrid
    assert isinstance(system, linalg.FactorizedSystem)
    assert multigrid == (g.dim == 3 and system.a.shape[0] > linalg.COARSEST_DOFS)
    if multigrid:
        # coarsened, whatever the grid's shape, until the coarsest level is small
        v_cycle = system.lu.v_cycle
        assert v_cycle.levels and v_cycle.matrices[-1].shape[0] <= linalg.COARSEST_DOFS


def test_small_3d_reduction_sweeps_through_its_cholesky_factor():
    # a 3-D free block of at most COARSEST_DOFS DOFs has no coarse level: it
    # is factored by banded Cholesky, and a spring sweep runs on its rank
    # update, as in 2-D
    model = Model(problem.parse_problem(block_problem_dict((4, 4, 3))))
    for reduction in (model.elastic_reduction, model.flow_reduction):
        assert not reduction.levels and reduction.free.size <= linalg.COARSEST_DOFS
    x = np.random.default_rng(8).uniform(0.0, 1.0, (3, model.grid.nelem))
    rho = model.physical_fields(x, 8.0)[1]
    state = model.forward(rho, k_out=10.0)
    assert isinstance(state.pressure.system.lu, linalg.BandedCholesky)
    assert isinstance(state.disp.system.lu, linalg.BandedCholesky)
    _, updated = model.elastic_reduction.solve(state.stiffness, state.force, state.e_field,
                                               "test system", 1e2, base=(state.disp.system, 10.0))
    assert isinstance(updated.lu, linalg.WoodburyUpdate)
    assert updated.lu.factor is state.disp.system.lu
    del updated
    sweep = [10.0, 1e2, 1e4, 1e6]
    for k, row in zip(sweep, model.sweep(rho, sweep)):
        ref = model.forward(rho, k_out=k).metrics
        for name in ("u_out", "SE", "W"):
            assert getattr(row, name) == pytest.approx(getattr(ref, name), rel=5e-8, abs=0)


def test_multigrid_rank_updates_solve_updated_matrix():
    g, op, coef, fixed, f = _elastic_3d()
    tip = np.flatnonzero(g.coords[:, 0] == g.coords[:, 0].max())
    d = sparse.csr_matrix(
        (np.ones(tip.size), (3 * tip + 1, np.arange(tip.size))), shape=(op.shape[0], tip.size)
    )
    s = (d @ d.T / tip.size).tocsr()
    reduction = linalg.DirichletReduction(op, fixed, g, springs=(d, s))
    _, base = reduction.solve(ElementSum(op, coef), f, coef, "test system", 1.0)
    free = reduction.free
    b = f[free]
    k = op.assemble(coef)
    for k_point in [1e2, 1e4, 1e6]:
        _, system = reduction.solve(ElementSum(op, coef), f, coef, "test system", k_point,
                                    base=(base, 1.0))
        assert isinstance(system, linalg.FactorizedSystem)
        assert isinstance(system.lu, linalg.MultigridCG)
        assert system.lu.v_cycle is base.lu.v_cycle  # the base V-cycle, not a new hierarchy
        # the base's element sum plus a rank term of its own is the block
        assert system.a is system.lu.product
        assert system.lu.product.base is base.lu.product.base
        terms = system.lu.product.terms
        assert [c for c, _, _ in terms] == [1.0 / tip.size, (k_point - 1.0) / tip.size]
        a_k = (k + k_point * s).tocsr()[free][:, free]  # the block, assembled here
        assert _relative_gap(system.a, a_k) <= 1e-14
        x = system.solve(b)
        assert _backward_error(a_k, x, b) <= linalg.RESIDUAL_TOL
        exact = spsolve(a_k.tocsc(), b)
        assert np.linalg.norm(x - exact) <= 1e-8 * np.linalg.norm(exact)


def _interpolation(nel, dofs_per_node):
    """Trilinear interpolation onto the nodes of ``nel`` elements per axis
    from those of twice as long ones, node-major with x fastest: each
    fine node i of an axis takes coarse node j by the hat 1 - |i - 2j| / 2."""
    p = sparse.identity(dofs_per_node, format="csr")
    for n in nel:
        fine, coarse = np.arange(n + 1), np.arange((n + 1) // 2 + 1)
        hat = np.clip(1.0 - np.abs(fine[:, None] - 2 * coarse) / 2.0, 0.0, None)
        p = sparse.kron(hat, p, format="csr")
    return p


def explicit_levels(a, reduction, nel):
    """``Pᵀ A P`` at every coarse level of ``reduction`` on a grid of ``nel``
    elements, formed by sparse products from the free block of ``a``. Each
    level keeps the DOFs that its finer level's kept DOFs interpolate from,
    and its prolongation is that interpolation on those rows and columns."""
    matrix, finer = sparse.csr_matrix(a)[reduction.free][:, reduction.free], reduction.free
    dofs_per_node, out = a.shape[0] // np.prod([m + 1 for m in nel]), []
    for level in reduction.levels:
        p = _interpolation(nel, dofs_per_node)[finer]
        assert np.array_equal(level.keep, np.flatnonzero(p.getnnz(axis=0)))
        p = p[:, level.keep]
        assert (level.prolongation != p).nnz == 0 and (level.restriction != p.T).nnz == 0
        matrix = (p.T @ matrix @ p).tocsr()
        out.append(matrix)
        finer, nel = level.keep, [(m + 1) // 2 for m in nel]
    return out


def assert_levels_match(levels, a, reduction, nel):
    """Each of ``levels`` equals the explicit product of its level, to 1e-13
    of its largest entry."""
    explicit = explicit_levels(a, reduction, nel)
    assert len(levels) == len(explicit) > 0
    for built, ref in zip(levels, explicit):
        assert built.shape == ref.shape
        assert abs(built - ref).max() <= 1e-13 * abs(ref).max()


@pytest.mark.parametrize("nel,dirichlet,n_levels", [
    ((8, 4, 4), "clamp", 1),
    ((7, 5, 4), "clamp", 1),
    ((32, 32, 2), "clamp", 2),
    ((8, 4, 4), "symmetry", 1),
    ((12, 4, 4), "thick-clamp", 1),
])
def test_galerkin_levels_match_explicit_products(nel, dirichlet, n_levels):
    g, op, coef, fixed, _ = _elastic_3d(nel)
    x, z = g.coords[:, 0], g.coords[:, 2]
    if dirichlet == "symmetry":  # the clamped face and the plane z = 0 fixing u_z
        fixed = np.union1d(fixed, 3 * np.flatnonzero(z == 0.0) + 2)
    elif dirichlet == "thick-clamp":
        # three fixed node layers leave the level's first layer unreached
        fixed = (3 * np.flatnonzero(x <= 2.0)[:, None] + np.arange(3)).ravel()
    reduction = linalg.DirichletReduction(op, fixed, g)
    assert len(reduction.levels) == n_levels
    coarse_nodes = np.prod([(m + 1) // 2 + 1 for m in nel])
    assert (reduction.levels[0].keep.size < 3 * coarse_nodes) == (dirichlet == "thick-clamp")
    assert_levels_match([level.matrix(coef) for level in reduction.levels],
                        op.assemble(coef), reduction, g.nel_axis)


def test_flow_galerkin_levels_match_explicit_products():
    # conduction and lumped drainage, each with its own gray coefficients
    g = Grid(GridSpec(3, (12, 8, 6), 1.0))
    op = darcy.FlowAssembler(g).op
    coef = np.random.default_rng(6).uniform(1e-3, 1.0, 2 * g.nelem)
    inlet = np.flatnonzero(g.coords[:, 0] == 0.0)
    drain = np.flatnonzero((g.coords[:, 0] == 12.0) & (g.coords[:, 1] <= 2.0))
    reduction = linalg.DirichletReduction(op, np.concatenate([inlet, drain]), g, 1.0)
    assert_levels_match([level.matrix(coef) for level in reduction.levels],
                        op.assemble(coef), reduction, g.nel_axis)


def _gripper3d_design():
    """The gripper3d model and a random gray design of it."""
    model = Model(problem.load_problem("gripper3d"))
    x = np.random.default_rng(7).uniform(0.0, 1.0, (3, model.grid.nelem))
    return model, model.physical_fields(x, 8.0)[1]


def test_gripper3d_v_cycles_run_on_the_explicit_products():
    # the springs stay on the finest level: the coarse levels are the
    # products of the stiffness alone
    model, rho = _gripper3d_design()
    state = model.forward(rho)
    for system, a, reduction in [
        (state.disp.system, state.k_struct, model.elastic_reduction),
        (state.pressure.system, state.flow.A, model.flow_reduction),
    ]:
        assert_levels_match(system.lu.v_cycle.matrices[1:], a, reduction, model.grid.nel_axis)


def test_3d_systems_form_no_sparse_product(monkeypatch):
    model, rho = _gripper3d_design()
    products, real = [], sparse._compressed._cs_matrix._matmul_sparse

    def spy(self, other):
        products.append(other.shape)
        return real(self, other)

    monkeypatch.setattr(sparse._compressed._cs_matrix, "_matmul_sparse", spy)
    state = model.forward(rho)  # builds both reductions and hierarchies
    _solve_dirichlet(*_elastic_3d((32, 32, 2)))
    assert products == []
    state.k_struct @ state.k_struct  # the spy sees one
    assert len(products) == 1


def test_3d_elastic_solves_assemble_no_stiffness(monkeypatch):
    # the gripper3d model, a forward solve, its gradient and a sweep
    # multiply the stiffness and T element by element: neither is assembled
    # nor given a pattern and scatter, which only the flow operator builds,
    # and the stiffness's only when ``k_struct`` is read
    calls = []

    def spy(owner, attr):
        real = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls.append((attr, args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    spy(ElasticAssembler, "assemble")
    spy(StencilOperator, "_build")  # the pattern and scatter of any operator
    model = Model(problem.load_problem("gripper3d"))
    assert calls == [("_build", model.flow.op)]
    assert isinstance(model.t_matrix, ElementSum)
    calls.clear()
    x = np.random.default_rng(7).uniform(0.0, 1.0, (3, model.grid.nelem))
    _, rho, dproj = model.physical_fields(x, 8.0)
    state = model.forward(rho)
    adjoint.total_gradient(model, state, ObjectiveSpec(s=1.0), 1.0, dproj)
    assert len(model.sweep(rho, [1.0, 10.0, 100.0])) == 3
    assert calls == []
    assert isinstance(state.stiffness, ElementSum)
    k_struct = state.k_struct
    assert calls == [("_build", model.elastic.op)]  # the stiffness's own, on demand
    reference = model.elastic.assemble(state.e_field)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(k_struct, name), getattr(reference, name))
    # K u on every DOF, element by element, as the assembled K gives it
    ku = k_struct @ state.disp.u
    assert np.linalg.norm(state.ku - ku) <= 1e-14 * np.linalg.norm(ku)


def test_3d_model_allocates_no_grid_sized_operator():
    # with the stiffness and T element sums, the largest thing a gripper3d
    # Model() builds is the flow operator's pattern and scatter: its
    # tracemalloc peak read 23.6e6 bytes while T was assembled, 9.3e6 since
    spec = problem.load_problem("gripper3d")
    tracemalloc.start()
    try:
        Model(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6


@pytest.mark.parametrize("design", ["initial", "beta16", "rough"])
def test_matrix_free_norm_is_a_lower_bound_of_the_1_norm(design):
    # the 3-D elastic contract's norm lies between the largest diagonal entry
    # and the 1-norm of the free block assembled here, so every solution it
    # accepts passes the 1-norm check too
    model = Model(problem.load_problem("gripper3d"))
    n, rng = model.grid.nelem, np.random.default_rng(11)
    if design == "initial":
        rho = model.physical_fields(optimizer.initialize(model),
                                    model.spec.filter.beta_p_initial)[1]
    elif design == "beta16":
        rho = model.physical_fields(rng.uniform(0.0, 1.0, (3, n)), 16.0)[1]
    else:  # topology uniform in [0.05, 1], both selectors 0.5, no filter
        rho = np.vstack([rng.uniform(0.05, 1.0, n), np.full((2, n), 0.5)])
    state = model.forward(rho)
    block = _spring_loaded_block(model, state, state.k_out)
    norm = state.disp.system.norm
    assert block.diagonal().max() <= norm <= linalg._norm1(block)
    free = model.elastic_reduction.free
    b = state.force[free]
    assert _backward_error(block, state.disp.u[free], b) <= linalg.RESIDUAL_TOL


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_matrix_free_non_finite_norm_is_a_solve_error(value):
    # a NaN or infinite modulus makes the norm estimate non-finite: a
    # solver failure (exit 4), not "check supports"
    model, rho = _gripper3d_design()
    e = interpolate_modulus(rho, model.mats)[0]
    e[-1] = value
    with pytest.raises(SolveError, match="displacement solve: matrix has a non-finite 1-norm") as err:
        elasticity.solve_displacement(model.elastic.element_sum(e), np.ones(model.grid.n_disp_dofs),
                                      model.elastic_reduction, e, 1.0)
    assert not isinstance(err.value, SingularSystemError)


def _relative_gap(product, a, seed=4):
    p = np.random.default_rng(seed).normal(size=a.shape[0])
    ref = a @ p
    return np.linalg.norm(product @ p - ref) / np.linalg.norm(ref)


def _spring_loaded_block(model, state, k):
    """The free block of ``K + k S`` of a forward solve, assembled here."""
    free = model.elastic_reduction.free
    return sparse.csr_matrix(state.k_struct + k * model.spring_unit)[free][:, free]


@pytest.mark.parametrize("case", ["gripper3d-springs", "symmetry-plane", "odd-9x5x4"])
def test_element_product_matches_the_free_block(case):
    # the block is the element sum plus the springs' rank term, checked
    # against the free block assembled here
    if case == "gripper3d-springs":
        model, rho = _gripper3d_design()
        state = model.forward(rho)
        system, block = state.disp.system, _spring_loaded_block(model, state, state.k_out)
        assert model.output_sel.region.k_out > 0 and len(system.lu.product.terms) == 1
        assert isinstance(system.a.base, ElementOperator)
    else:
        g, op, coef, fixed, f = _elastic_3d((8, 4, 4) if case == "symmetry-plane" else (9, 5, 4))
        if case == "symmetry-plane":  # the plane z = 0 fixes u_z alone
            fixed = np.union1d(fixed, 3 * np.flatnonzero(g.coords[:, 2] == 0.0) + 2)
        _, _, system = _solve_dirichlet(g, op, coef, fixed, f)
        block = _reduced(op.assemble(coef), fixed, f)[0]
        assert isinstance(system.a, ElementOperator)  # no springs, no rank term
    assert system.lu.v_cycle.matrices[0] is system.lu.product is system.a
    assert _relative_gap(system.a, block) <= 1e-14


def _free_edof(op, reduction):
    """Each element's free DOFs in ``reduction``, the number of free DOFs
    for a fixed one."""
    to_free = np.full(op.shape[0] + 1, reduction.free.size)
    to_free[reduction.free] = np.arange(reduction.free.size)
    return to_free[op.edof]


def _element_major_product(edof, n, templates, coef, p):
    """``A p`` for the free DOFs ``edof`` (``n`` for a fixed one) in one
    piece: one (nelem x m) gather of every element's free DOFs, one GEMM
    with the templates stacked as ``[K_1ᵀ .. K_tᵀ]`` and one CSR scatter
    whose columns are the products' places, element by element."""
    t, m, _ = templates.shape
    nelem = edof.shape[0]
    products = np.take(np.append(p, 0.0), edof) @ np.concatenate(np.swapaxes(templates, 1, 2), axis=1)
    rows = np.broadcast_to(edof[:, None, :], (nelem, t, m)).ravel()
    kept = np.flatnonzero(rows < n)
    order = kept[np.argsort(rows[kept], kind="stable")]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[kept], minlength=n))])
    values = np.reshape(coef, (t, nelem))[order // m % t, order // (t * m)]
    return sparse.csr_matrix((values, order, indptr), shape=(n, products.size)) @ products.ravel()


@pytest.mark.parametrize("chunk", [16, 256])
@pytest.mark.parametrize("n_templates", [1, 2])
def test_chunked_element_product_is_the_element_major_product_bit_for_bit(
        monkeypatch, chunk, n_templates):
    # 9x5x4 has 180 elements: chunks of 16 leave a last chunk of 4, and 256
    # takes them in one chunk of 180, both k = 4 (mod 8), which the padding
    # to 8 columns keeps bit for bit with the GEMM over every element
    monkeypatch.setattr(grid, "ELEMENT_CHUNK", chunk)
    g, op, coef, fixed, _ = _elastic_3d((9, 5, 4))
    reduction = linalg.DirichletReduction(op, fixed, g)
    assert reduction.levels  # the block is multiplied element by element
    rng = np.random.default_rng(11)
    templates = op.templates * rng.uniform(0.5, 2.0, n_templates)[:, None, None]
    coef = rng.uniform(1e2, 1e6, n_templates * g.nelem)
    edof = _free_edof(op, reduction)
    free_map = grid.ElementMap(edof, reduction.free.size, n_templates)
    block = ElementProduct(templates, free_map, free_map)
    widths = {16: [16] * 11 + [8], 256: [184]}[chunk]  # the last chunk padded to 8
    assert [dofs.shape for dofs, _, _ in block.blocks] == [(24, k) for k in widths]
    for dofs, gathered, _ in block.blocks:
        assert dofs.dtype == np.intp and dofs.flags.c_contiguous and gathered.shape == dofs.shape
    assert free_map.gathered.size == 24 * widths[0]  # one chunk, padded
    operator = block.bind(coef)
    for p in rng.standard_normal((3, reduction.free.size)):
        assert np.array_equal(operator @ p, _element_major_product(edof, reduction.free.size,
                                                                   templates, coef, p))


def test_updated_sweep_system_multiplies_element_by_element():
    model, rho = _gripper3d_design()
    state = model.forward(rho, k_out=10.0)
    n_out = model.output_op.shape[1]
    for k in [1e2, 1e4]:
        _, updated = model.elastic_reduction.solve(
            state.stiffness, state.force, state.e_field, "test system", k,
            base=(state.disp.system, 10.0))
        (c_base, _, _), (c, _, _) = updated.lu.product.terms
        assert c_base == 10.0 / n_out and c == (k - 10.0) / n_out
        assert _relative_gap(updated.a, _spring_loaded_block(model, state, k)) <= 1e-14


@pytest.mark.parametrize("case", ["gripper3d", "oblique"])
def test_spring_terms_are_the_sparse_rank_products_bit_for_bit(case):
    # each rank term adds c D_f (D_fᵀ p), as scipy's sparse products give
    # it, to the element sum: one term on a forward solve, two on a sweep
    # point. gripper3d's output direction is an axis, so each column of D_f
    # holds one nonzero; one with three nonzero components makes the order
    # of D_fᵀ p's sums show.
    if case == "gripper3d":
        model, rho = _gripper3d_design()
        state = model.forward(rho)
        reduction, a, f, coef = model.elastic_reduction, state.stiffness, state.force, state.e_field
        k, k_point = 10.0, 1e3
    else:
        g, op, coef, fixed, f = _elastic_3d()
        tip = np.flatnonzero(g.coords[:, 0] == g.coords[:, 0].max())
        d = sparse.csr_matrix((np.tile([0.48, 0.6, 0.64], tip.size),
                               (3 * np.repeat(tip, 3) + np.tile(np.arange(3), tip.size),
                                np.repeat(np.arange(tip.size), 3))),
                              shape=(op.shape[0], tip.size))
        reduction = linalg.DirichletReduction(op, fixed, g, springs=(d, (d @ d.T / tip.size).tocsr()))
        a = ElementSum(op, coef)
        k, k_point = 1e5, 1e7  # springs as stiff as the block, so their rounding shows
    _, forward = reduction.solve(a, f, coef, "test system", k)
    _, point = reduction.solve(a, f, coef, "test system", k_point, base=(forward, k))
    d_f = reduction.springs
    p = np.random.default_rng(5).standard_normal(reduction.free.size)
    for system, n_terms in [(forward, 1), (point, 2)]:
        assert isinstance(system.a, linalg.RankSum) and len(system.a.terms) == n_terms
        assert isinstance(system.a.base, ElementOperator)
        q = reduction.element_product.bind(coef) @ p
        for c, _, _ in system.a.terms:
            q += c * (d_f @ (d_f.T @ p))
        assert np.array_equal(system.a @ p, q)


def test_cg_and_v_cycle_results_alias_nothing():
    model, rho = _gripper3d_design()
    state = model.forward(rho)
    for system in (state.disp.system, state.pressure.system):
        cg, v_cycle = system.lu, system.lu.v_cycle
        b = np.random.default_rng(6).standard_normal(system.a.shape[0])
        b_copy = b.copy()
        for apply in (cg.solve, v_cycle):
            first = apply(b)
            first_copy = first.copy()
            second = apply(b)
            assert np.array_equal(b, b_copy)  # the input is left alone
            assert np.array_equal(first, first_copy)  # and so is the first result
            assert np.array_equal(first, second) and not np.shares_memory(first, second)
            for scratch in v_cycle.scratch:
                assert not np.shares_memory(first, scratch)
                assert not np.shares_memory(second, scratch)


@pytest.mark.parametrize("name", ["tiny", "gripper3d"])
def test_sweep_point_block_is_the_forward_block(name, tiny_spec):
    # in either dimension the base system's block itself, not a copy, plus
    # (k - k_base) S as a rank term: 2-D, its columns are those of the forward
    # solve's block at k; 3-D, it multiplies as the spring-loaded block
    # assembled here does
    model = Model(tiny_spec if name == "tiny" else problem.load_problem("gripper3d"))
    x = np.random.default_rng(7).uniform(0.0, 1.0, (3, model.grid.nelem))
    rho = model.physical_fields(x, 8.0)[1]
    reduction = model.elastic_reduction
    state = model.forward(rho, k_out=0.1)
    for k in [1.0, 1e3]:
        _, point = reduction.solve(state.stiffness, state.force, state.e_field, "test system", k,
                                   base=(state.disp.system, 0.1))
        if name == "tiny":
            assert point.a.base is state.disp.system.a
            block = model.forward(rho, k_out=k).disp.system.a.toarray()
            assert np.abs(_columns(point.a) - block).max() <= 1e-15 * np.abs(block).max()
        else:
            assert point.a.base is state.disp.system.a.base
            assert _relative_gap(point.a, _spring_loaded_block(model, state, k)) <= 1e-14


def _sweep_base(name, tiny_spec, k_base=0.1):
    """The model of the fixture ``name`` (the tiny problem for "tiny"), a
    design of it (the packaged pneunet design for pneunet2d, else a random
    gray one) and its forward solve at ``k_base``: ``(model, state)``."""
    if name == "tiny":
        model = Model(tiny_spec)
    else:
        model = Model(problem.load_problem(name))
    if name == "pneunet2d":
        rho = fixture_lib.make_pneunet2d_design()[1]
    else:
        x = np.random.default_rng(7).uniform(0.0, 1.0, (3, model.grid.nelem))
        rho = model.physical_fields(x, 8.0)[1]
    return model, model.forward(rho, k_out=k_base)


def _sweep_point(model, state, k, k_base=0.1):
    """The system of the elastic reduction's sweep point at ``k`` on
    ``state``'s solve at ``k_base``."""
    return model.elastic_reduction.solve(state.stiffness, state.force, state.e_field,
                                         "test system", k, base=(state.disp.system, k_base))[1]


@pytest.mark.parametrize("name", ["tiny", "finger2d", "gripper2d", "pneunet2d"])
def test_2d_sweep_point_norm_is_the_formed_blocks_bit_for_bit(name, tiny_spec):
    # the point's 1-norm, from the base's largest row sum off the springs'
    # rows and the sums of those rows, equals _norm1 of the point's block
    # formed here: the base's data plus (k - k_base) S at the spring places
    model, state = _sweep_base(name, tiny_spec)
    reduction, base = model.elastic_reduction, state.disp.system
    places, unit = reduction.spring_entries
    for k in (1.0, 1e3, 1e7):
        point = _sweep_point(model, state, k)
        data = base.a.data.copy()
        data[places] += (k - 0.1) * unit
        formed = sparse.csr_matrix((data, reduction.indices, reduction.indptr), shape=base.a.shape)
        assert point.norm == linalg._norm1(formed)


def test_2d_sweep_points_copy_no_block():
    # a point holds the base system's CSR itself under its rank term, and
    # the eight further points of a pneunet sweep allocate nothing as large
    # as that block's data (177,160 entries), which each point copied before
    k_base, *sweep = runner.DEFAULT_SWEEP
    model, state = _sweep_base("pneunet2d", None, k_base)
    base = state.disp.system
    assert base.a.data.size == 177_160
    assert _sweep_point(model, state, sweep[0], k_base).a.base is base.a
    tracemalloc.start()
    try:
        for k in sweep:  # as Model.sweep solves each point
            u = model.elastic_reduction.solve(state.stiffness, state.force, state.e_field,
                                              "test system", k, base=(base, k_base))[0]
            elasticity.metrics(u, state.stiffness @ u, model.l_out, k, state.metrics.E_t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < base.a.data.nbytes


def test_perturbed_sweep_point_fails_its_backward_error_check(monkeypatch):
    # the point's solution is checked against its own block, the base CSR
    # plus the rank term: a Woodbury solve off by 1e-6 relative, as an offset
    # refinement cannot take out, fails the contract
    _, point, _ = _spring_sweep(_node_columns("last-rows"))
    point(1e3)  # as solved, the point meets it
    real, offsets = linalg.WoodburyUpdate.solve, []

    def perturbed(self, b):
        x = real(self, b)
        if not offsets:
            v = np.random.default_rng(9).standard_normal(x.size)
            offsets.append(1e-6 * np.linalg.norm(x) / np.linalg.norm(v) * v)
        return x + offsets[0]

    monkeypatch.setattr(linalg.WoodburyUpdate, "solve", perturbed)
    with pytest.raises(SolveError, match="test system: backward error") as err:
        point(1e3)
    assert not isinstance(err.value, SingularSystemError)


def test_3d_sweep_takes_the_element_diagonal_once(monkeypatch):
    # every point's norm estimate reads the base's element diagonal plus k
    # times the springs' diagonal: only the base solve takes it
    model, rho = _gripper3d_design()
    calls, real = [], ElementProduct.diagonal

    def counting(self, coef):
        calls.append(1)
        return real(self, coef)

    monkeypatch.setattr(ElementProduct, "diagonal", counting)
    assert len(model.sweep(rho, [0.1, 1.0, 10.0, 100.0])) == 4
    assert len(calls) == 1


def test_cg_multiplies_the_elastic_block_element_by_element_only(monkeypatch):
    # the elastic block, whose operator is matrix-free, multiplies element
    # by element, the flow block by its CSR
    model, rho = _gripper3d_design()
    assert model.elastic_reduction.element_product is not None
    assert model.flow_reduction.element_product is None
    n_u, n_p = model.elastic_reduction.free.size, model.flow_reduction.free.size
    shapes, inside = [], []
    real_solve, real_matvec = linalg.MultigridCG.solve, sparse._compressed._cs_matrix._matmul_vector

    def solve(self, b):
        inside.append(1)
        try:
            return real_solve(self, b)
        finally:
            inside.pop()

    def matvec(self, other):
        if inside:
            shapes.append(self.shape)
        return real_matvec(self, other)

    monkeypatch.setattr(linalg.MultigridCG, "solve", solve)
    monkeypatch.setattr(sparse._compressed._cs_matrix, "_matmul_vector", matvec)
    model.forward(rho)
    assert (n_u, n_u) not in shapes and (n_p, n_p) in shapes


@pytest.mark.parametrize("dofs_per_node", [1, 3])
def test_prolongations_reproduce_linear_fields(dofs_per_node):
    def linear(coords):
        comps = [coords @ [1.0, -2.0, 0.5] + c for c in range(dofs_per_node)]
        return np.stack(comps, axis=1).ravel()

    # an odd axis of n elements coarsens to (n + 1) / 2, one past its end,
    # so an axis of one element stays one, twice as long
    for nel, coarse_nel in (((16, 8, 8), (8, 4, 4)), ((15, 9, 8), (8, 5, 4)),
                            ((64, 4, 1), (32, 2, 1)), ((48, 2, 3), (24, 1, 2))):
        fine, coarse = (Grid(GridSpec(3, m, h)) for m, h in ((nel, 1.0), (coarse_nel, 2.0)))
        n = dofs_per_node * fine.nnodes
        op = (darcy.FlowAssembler(fine) if dofs_per_node == 1 else ElasticAssembler(fine, 0.3)).op
        p = linalg.DirichletReduction(op, np.array([], dtype=int), fine).levels[0].prolongation
        assert p.shape == (n, dofs_per_node * coarse.nnodes)
        assert np.allclose(p @ linear(coarse.coords), linear(fine.coords), rtol=0, atol=1e-12)


@pytest.mark.parametrize("nel", [(6, 3), (3, 7), (5, 3, 3), (7, 5, 4)])
def test_reduction_gathers_the_free_block_in_solver_order(nel):
    g = Grid(GridSpec(len(nel), nel, 1.0))
    # a uniform modulus, whose stiffness stores exact zeros
    op, coef = ElasticAssembler(g, 0.3).op, np.ones(g.nelem)
    k = op.assemble(coef)
    clamped = np.flatnonzero(g.coords[:, 0] == 0.0)
    fixed = (g.dim * clamped[:, None] + np.arange(g.dim)).ravel()
    reduction = linalg.DirichletReduction(op, fixed, g)
    order = linalg._band_order(nel, k.shape[0]) if g.dim == 2 else np.arange(k.shape[0])
    assert np.array_equal(reduction.free, order[np.isin(order, fixed, invert=True)])
    _, system = reduction.solve(_operator(reduction, op, coef), np.ones(k.shape[0]), coef,
                                "test system")
    ref = k.tocsc()[reduction.free][:, reduction.free]
    if reduction.element_product is None:  # gathered: bit for bit
        assert abs(system.a - ref).max() == 0.0
    else:  # the 7x5x4 block has coarse levels, and multiplies element by element
        assert _relative_gap(system.a, ref) <= 1e-14


def test_reduction_rejects_another_pattern():
    g = Grid(GridSpec(2, (4, 3), 1.0))
    op, coef = ElasticAssembler(g, 0.3).op, np.ones(g.nelem)
    k = op.assemble(coef)
    fixed = np.arange(2 * g.nnod_axis[0])
    reduction = linalg.DirichletReduction(op, fixed, g)
    # as many stored entries, one of them in another column
    moved = k.copy()
    moved.indices[moved.indptr[-2]] = 0
    assert moved.nnz == k.nnz
    with pytest.raises(ValueError, match="test system: matrix pattern"):
        reduction.solve(moved, np.ones(k.shape[0]), coef, "test system")


def test_reduction_accepts_an_equal_copy_of_its_pattern():
    # the pattern is compared entry by entry when the arrays are not the
    # operator's own
    g = Grid(GridSpec(2, (4, 3), 1.0))
    op, coef = ElasticAssembler(g, 0.3).op, np.ones(g.nelem)
    k = op.assemble(coef)
    reduction = linalg.DirichletReduction(op, np.arange(2 * g.nnod_axis[0]), g)
    copy = k.copy()
    assert not np.shares_memory(copy.indices, k.indices)
    f = np.ones(k.shape[0])
    x, _ = reduction.solve(k, f, coef, "test system")
    assert np.array_equal(reduction.solve(copy, f, coef, "test system")[0], x)
