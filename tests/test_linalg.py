"""Backward-error contract of the banded-Cholesky and multigrid solves and
their rank updates, the 2-D band order and band map, the 1-norm, and the
grid's choice between them."""
import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from pneumotop import darcy, linalg, problem, shapefn
from pneumotop.elasticity import ElasticAssembler
from pneumotop.errors import SingularSystemError, SolveError
from pneumotop.grid import GridSpec, build_grid, stencil_operator
from pneumotop.model import Model

from tinyproblem import block_problem_dict


def _solve_dirichlet(g, op, coef, fixed, f, k=None):
    """``k x = f`` with ``x[fixed] = 0``, for ``k`` the matrix that ``op``
    assembles from ``coef`` unless given (on ``op``'s pattern), through a
    reduction built for ``op`` on the grid ``g``: ``(x, free, system)``."""
    reduction = linalg.DirichletReduction(op, fixed, g)
    k = op.assemble(coef) if k is None else k
    x, system = reduction.solve(k, f, coef, context="test system")
    return x, reduction.free, system


def _factorized(a):
    """``a``'s FactorizedSystem, its band filled through the map of its own
    pattern."""
    a = sparse.csr_matrix(a)
    band = linalg.BandMap(a.indptr, a.indices).band(a.data)
    return linalg.FactorizedSystem(
        a, context="test system", inverse=lambda s: linalg.BandedCholesky(band, s.context)
    )


def _spd_and_basis(n=30, r=4, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    a = sparse.csc_matrix(m @ m.T + n * np.eye(n))
    u = sparse.random(n, r, density=0.3, random_state=seed, format="csr")
    return a, u, rng.normal(size=n)


def test_rank_updates_solve_updated_matrix_with_one_factorization(monkeypatch):
    calls, real_dpbtrf = [], linalg.dpbtrf

    def counting_dpbtrf(band, **kwargs):
        calls.append(band.shape[1])
        return real_dpbtrf(band, **kwargs)

    monkeypatch.setattr(linalg, "dpbtrf", counting_dpbtrf)
    a, u, b = _spd_and_basis()
    base = _factorized(a)
    coefficients = [0.5, 10.0, 1e4]
    for c, system in zip(coefficients, base.rank_updates(u, coefficients)):
        # through the base factor's halves, not a factor of its own
        assert isinstance(system.lu, linalg.WoodburyUpdate) and system.lu.factor is base.lu
        x = system.solve(b)
        a_c = a.toarray() + c * (u @ u.T).toarray()
        err = np.linalg.norm(b - a_c @ x) / (
            np.abs(a_c).sum(axis=0).max() * np.linalg.norm(x) + np.linalg.norm(b)
        )
        assert err <= linalg.RESIDUAL_TOL
        assert np.allclose(x, np.linalg.solve(a_c, b), rtol=1e-10, atol=0)
    assert calls == [a.shape[0]]


def test_rank_update_missing_the_contract_raises(monkeypatch):
    a, u, b = _spd_and_basis()
    (system,) = _factorized(a).rank_updates(u, [3.0])
    monkeypatch.setattr(linalg, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SolveError, match="test system: backward error"):
        system.solve(b)


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


def _node_columns(system, nodes):
    """U with one column per node (2 DOFs, together in band order): random
    weights on both of its DOFs, so that U Uᵀ couples them."""
    rows = (2 * np.asarray(nodes)[:, None] + np.arange(2)).ravel()
    weights = np.random.default_rng(5).uniform(0.5, 1.5, rows.size)
    return sparse.csr_matrix(
        (weights, (rows, np.repeat(np.arange(len(nodes)), 2))),
        shape=(system.a.shape[0], len(nodes)),
    )


@pytest.mark.parametrize("where", ["first-rows", "last-rows"])
def test_rank_updates_match_a_dense_solve(where):
    system, b, _ = _band_system()
    n_nodes = system.a.shape[0] // 2
    nodes = [0, 1, 5] if where == "first-rows" else [n_nodes - 3, n_nodes - 2, n_nodes - 1]
    u = _node_columns(system, nodes)
    coefficients = [1e2, 1e5, 1e7]
    for c, updated in zip(coefficients, system.rank_updates(u, coefficients)):
        a_c = system.a.toarray() + c * (u @ u.T).toarray()
        assert np.array_equal(updated.a.toarray(), a_c)
        x = updated.solve(b)
        assert np.allclose(x, np.linalg.solve(a_c, b), rtol=1e-10, atol=0)


def test_rank_update_outside_the_pattern_raises():
    system, _, _ = _band_system()
    u = _node_columns(system, [0])
    u = sparse.csr_matrix(u + _node_columns(system, [system.a.shape[0] // 2 - 1]))
    with pytest.raises(ValueError, match="entries lie outside the sparsity pattern"):
        next(system.rank_updates(u, [1.0]))


def test_indefinite_rank_update_is_singular():
    # a_kk - 2 a_kk < 0 on the diagonal: A + c e_k e_kᵀ is indefinite
    system, b, _ = _band_system()
    k = system.a.shape[0] - 1
    u = sparse.csr_matrix(([1.0], ([k], [0])), shape=(k + 1, 1))
    c = -2.0 * system.a[k, k]
    with pytest.raises(SingularSystemError, match="test system: rank-updated matrix is not positive definite"):
        next(system.rank_updates(u, [c])).solve(b)


def _gray_2d(nel, dofs_per_node, seed=2):
    """The operator of a stiffness (2 DOFs per node) or conduction matrix
    (1) on a 2-D grid, random gray element coefficients, the DOFs on the
    x = 0 edge fixed, and a random load: ``(g, op, coef, fixed, f)``."""
    g = build_grid(GridSpec(2, nel, 1.0))
    rng = np.random.default_rng(seed)
    coef = rng.uniform(1e2, 1e6, g.nelem)
    if dofs_per_node == 2:
        op = ElasticAssembler(g, 0.3).op
    else:
        op = stencil_operator(g, shapefn.conduction_matrix(2, g.h))
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
    _, free, system_2d = _solve_dirichlet(*_gray_2d((12, 4), 2))
    u = sparse.csr_matrix(np.eye(free.size)[:, -3:])
    (updated,) = system_2d.rank_updates(u, [1e5])
    _, _, system_3d = _solve_dirichlet(*_elastic_3d())
    for a in (system_2d.a, system_3d.a, updated.a):
        # abs() of a CSR with unsorted columns sorts them in place: take a copy
        column_sum = abs(a.copy()).sum(axis=0).max()
        assert abs(linalg._norm1(a) - column_sum) <= 1e-14 * column_sum


@pytest.mark.parametrize("where", ["first-rows", "last-rows"])
def test_updated_norm_matches_the_full_one(where):
    system, _, _ = _band_system()
    n_nodes = system.a.shape[0] // 2
    # at 1e9 the rows U touches hold the largest sum, at 1e2 the others do
    nodes = [0, 1] if where == "first-rows" else [n_nodes - 2, n_nodes - 1]
    u = _node_columns(system, nodes)
    coefficients = [1e2, 1e9]
    for updated in system.rank_updates(u, coefficients):
        assert updated.norm1 == linalg._norm1(updated.a)
    with pytest.raises(SolveError, match="test system: matrix has a non-finite 1-norm"):
        next(system.rank_updates(u, [np.nan]))  # the touched rows turn NaN


def test_sweep_takes_the_loads_forward_half_solve_once(monkeypatch):
    system, b, _ = _band_system()
    u = _node_columns(system, [system.a.shape[0] // 2 - 1])
    calls, real = [], linalg.BandedCholesky.forward

    def counting(self, rhs, start=0):
        calls.append(np.ndim(rhs) == 1 and np.array_equal(rhs, b))
        return real(self, rhs, start)

    coefficients = [1e2, 1e5, 1e7]
    expected = [updated.solve(b) for updated in system.rank_updates(u, coefficients)]
    monkeypatch.setattr(linalg.BandedCholesky, "forward", counting)
    for updated, x in zip(system.rank_updates(u, coefficients), expected):
        assert np.array_equal(updated.solve(b.copy()), x)  # equal in value, not the same array
    assert calls.count(True) == 1


def test_collapsed_pivot_is_singular():
    for eps in (4e-16, 1e-12):
        # positive definite in exact arithmetic, with a pivot eps of the largest
        a = sparse.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + eps]]))
        with pytest.raises(SingularSystemError, match="test system: matrix is numerically singular"):
            _factorized(a)
    with pytest.raises(SingularSystemError, match="test system: factorization failed"):
        _factorized(-np.eye(2))


def test_pure_neumann_laplacian_is_singular():
    # the constant lies in its null space, whatever roundoff leaves of the last pivot
    n = 400
    a = sparse.diags([-np.ones(n - 1), np.r_[1.0, 2.0 * np.ones(n - 2), 1.0], -np.ones(n - 1)],
                     [-1, 0, 1])
    with pytest.raises(SingularSystemError, match="test system: "):
        _factorized(a)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("dim", [2, 3])
def test_non_finite_entry_is_a_solve_error(dim, value):
    # a solver failure, not the "check supports" of a singular system
    g, op, coef, fixed, f = _gray_2d((12, 4), 2) if dim == 2 else _elastic_3d()
    k = op.assemble(coef)
    k.data[k.indptr[-2]:] = value  # the last row, which is free
    with pytest.raises(SolveError, match="test system: matrix has a non-finite 1-norm") as err:
        _solve_dirichlet(g, op, coef, fixed, f, k)
    assert not isinstance(err.value, SingularSystemError)


def _elastic_3d(nel=(8, 4, 4), seed=1):
    """A clamped-at-x=0 hexahedral block with gray random moduli: the grid,
    the stiffness's operator, the moduli, the clamped DOFs and a random
    load, as ``_solve_dirichlet`` takes them."""
    g = build_grid(GridSpec(3, nel, 1.0))
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
        reduction.solve(op.assemble(coef), f, coef, "test system")
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
    g = build_grid(GridSpec(len(nel), nel, 1.0))
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
    free = model.elastic_reduction.free
    (updated,) = state.disp.system.rank_updates(model.output_op[free], [1.0])
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
    u_full, free, base = _solve_dirichlet(g, op, coef, fixed, f)
    tip = np.flatnonzero(g.coords[:, 0] == g.coords[:, 0].max())
    rows = 3 * tip + 1
    u = sparse.csr_matrix(
        (np.ones(tip.size), (rows, np.arange(tip.size))), shape=(op.shape[0], tip.size)
    )[free]
    coefficients = [1e2, 1e4, 1e6]
    b = f[free]
    for c, system in zip(coefficients, base.rank_updates(u, coefficients)):
        assert isinstance(system, linalg.FactorizedSystem)
        assert isinstance(system.lu, linalg.MultigridCG) and system.lu.a is system.a
        assert system.lu.v_cycle is base.lu.v_cycle  # the base V-cycle, not a new hierarchy
        x = system.solve(b)
        a_c = base.a + c * (u @ u.T)
        assert _backward_error(a_c, x, b) <= linalg.RESIDUAL_TOL
        exact = spsolve(a_c.tocsc(), b)
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
    g = build_grid(GridSpec(3, (12, 8, 6), 1.0))
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


@pytest.mark.parametrize("dofs_per_node", [1, 3])
def test_prolongations_reproduce_linear_fields(dofs_per_node):
    def linear(coords):
        comps = [coords @ [1.0, -2.0, 0.5] + c for c in range(dofs_per_node)]
        return np.stack(comps, axis=1).ravel()

    # an odd axis of n elements coarsens to (n + 1) / 2, one past its end,
    # so an axis of one element stays one, twice as long
    for nel, coarse_nel in (((16, 8, 8), (8, 4, 4)), ((15, 9, 8), (8, 5, 4)),
                            ((64, 4, 1), (32, 2, 1)), ((48, 2, 3), (24, 1, 2))):
        fine, coarse = (build_grid(GridSpec(3, m, h)) for m, h in ((nel, 1.0), (coarse_nel, 2.0)))
        n = dofs_per_node * fine.nnodes
        op = (darcy.FlowAssembler(fine) if dofs_per_node == 1 else ElasticAssembler(fine, 0.3)).op
        p = linalg.DirichletReduction(op, np.array([], dtype=int), fine).levels[0].prolongation
        assert p.shape == (n, dofs_per_node * coarse.nnodes)
        assert np.allclose(p @ linear(coarse.coords), linear(fine.coords), rtol=0, atol=1e-12)


@pytest.mark.parametrize("nel", [(6, 3), (3, 7), (5, 3, 3), (7, 5, 4)])
def test_reduction_gathers_the_free_block_in_solver_order(nel):
    g = build_grid(GridSpec(len(nel), nel, 1.0))
    # a uniform modulus, whose stiffness stores exact zeros
    op, coef = ElasticAssembler(g, 0.3).op, np.ones(g.nelem)
    k = op.assemble(coef)
    clamped = np.flatnonzero(g.coords[:, 0] == 0.0)
    fixed = (g.dim * clamped[:, None] + np.arange(g.dim)).ravel()
    reduction = linalg.DirichletReduction(op, fixed, g)
    order = linalg._band_order(nel, k.shape[0]) if g.dim == 2 else np.arange(k.shape[0])
    assert np.array_equal(reduction.free, order[np.isin(order, fixed, invert=True)])
    _, system = reduction.solve(k, np.ones(k.shape[0]), coef, "test system")
    ref = k.tocsc()[reduction.free][:, reduction.free]
    assert abs(system.a - ref).max() == 0.0
    if reduction.levels:  # the exact zeros are pruned before CG
        assert system.a.nnz < ref.nnz and np.all(system.a.data != 0.0)


def test_reduction_rejects_another_pattern():
    g = build_grid(GridSpec(2, (4, 3), 1.0))
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
