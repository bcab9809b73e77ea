"""Backward-error contract of the LU and multigrid solves and their rank
updates, and the grid's choice between them."""
import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from pneumotop import linalg
from pneumotop.elasticity import ElasticAssembler
from pneumotop.errors import SolveError
from pneumotop.grid import GridSpec, build_grid


def _spd_and_basis(n=30, r=4, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    a = sparse.csc_matrix(m @ m.T + n * np.eye(n))
    u = sparse.random(n, r, density=0.3, random_state=seed, format="csr")
    return a, u, rng.normal(size=n)


def test_rank_updates_solve_updated_matrix_with_one_factorization(monkeypatch):
    calls, real_splu = [], linalg.splu

    def counting_splu(a):
        calls.append(a.shape)
        return real_splu(a)

    monkeypatch.setattr(linalg, "splu", counting_splu)
    a, u, b = _spd_and_basis()
    base = linalg.FactorizedSystem(a, context="test system")
    coefficients = [0.5, 10.0, 1e4]
    for c, system in zip(coefficients, base.rank_updates(u, coefficients)):
        x = system.solve(b)
        a_c = a.toarray() + c * (u @ u.T).toarray()
        err = np.linalg.norm(b - a_c @ x) / (
            np.abs(a_c).sum(axis=0).max() * np.linalg.norm(x) + np.linalg.norm(b)
        )
        assert err <= linalg.RESIDUAL_TOL
        assert np.allclose(x, np.linalg.solve(a_c, b), rtol=1e-10, atol=0)
    assert calls == [a.shape]


def test_rank_update_missing_the_contract_raises(monkeypatch):
    a, u, b = _spd_and_basis()
    (system,) = linalg.FactorizedSystem(a, context="test system").rank_updates(u, [3.0])
    monkeypatch.setattr(linalg, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SolveError, match="test system: backward error"):
        system.solve(b)


def _elastic_3d(nel=(8, 4, 4), seed=1):
    """A clamped-at-x=0 hexahedral block with gray random moduli: the
    stiffness, the clamped DOFs and a random load."""
    g = build_grid(GridSpec(3, nel, 1.0))
    rng = np.random.default_rng(seed)
    k = ElasticAssembler(g, 0.3).assemble(rng.uniform(1e2, 1e6, g.nelem))
    clamped = np.flatnonzero(g.coords[:, 0] == 0.0)
    fixed = (3 * clamped[:, None] + np.arange(3)).ravel()
    return g, k, fixed, rng.normal(size=g.n_disp_dofs)


def _backward_error(a, x, b):
    a = sparse.csr_matrix(a)
    norm1 = np.abs(a).sum(axis=0).max()
    return np.linalg.norm(b - a @ x) / (norm1 * np.linalg.norm(x) + np.linalg.norm(b))


def _reduced(k, fixed, f):
    free = np.setdiff1d(np.arange(k.shape[0]), fixed)
    return sparse.csr_matrix(k)[free][:, free], f[free], free


def test_multigrid_solve_meets_the_contract():
    # 8x4x4 -> 4x2x2 and 7x5x4 -> 4x3x2: one level each, the odd axes
    # halving with their last coarse node past the end
    for nel in ((8, 4, 4), (7, 5, 4)):
        g, k, fixed, f = _elastic_3d(nel)
        u, free, system = linalg.solve_dirichlet(
            k, f, fixed, np.zeros(fixed.size), g.nel_axis, context="test system"
        )
        assert isinstance(system, linalg.MultigridSystem)
        assert len(system.prolongations) == 1
        a_ff, b, free_ref = _reduced(k, fixed, f)
        assert np.array_equal(free, free_ref) and np.all(u[fixed] == 0.0)
        assert _backward_error(a_ff, u[free], b) <= linalg.RESIDUAL_TOL
        exact = spsolve(a_ff.tocsc(), b)
        assert np.linalg.norm(u[free] - exact) <= 1e-8 * np.linalg.norm(exact)


def test_multigrid_missing_the_contract_raises_and_terminates(monkeypatch):
    g, k, fixed, f = _elastic_3d()
    a_ff, b, free = _reduced(k, fixed, f)
    system = linalg.MultigridSystem(
        a_ff, linalg._prolongations(g.nel_axis, k.shape[0], free), context="test system"
    )
    calls, real = [], linalg.MultigridSystem._apply_inverse

    def counting(self, rhs):
        calls.append(1)
        return real(self, rhs)

    monkeypatch.setattr(linalg.MultigridSystem, "_apply_inverse", counting)
    monkeypatch.setattr(linalg, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SolveError, match="test system: backward error"):
        system.solve(b)
    assert len(calls) == 1 + linalg.MAX_REFINEMENTS


@pytest.mark.parametrize("nel,multigrid", [
    ((8, 4), False),
    ((8, 4, 3), True),
    ((7, 4, 4), True),
    ((8, 4, 4), True),
    ((2, 2, 2), True),
], ids=["2d", "3d-odd-z", "3d-odd-x", "3d-even", "3d-2x2x2"])
def test_grid_selects_the_solver(nel, multigrid):
    g = build_grid(GridSpec(len(nel), nel, 1.0))
    k = ElasticAssembler(g, 0.3).assemble(np.ones(g.nelem))
    fixed = np.arange(g.dim * np.prod(g.nnod_axis[:-1]))  # the first layer of nodes
    f = np.ones(g.n_disp_dofs)
    _, _, system = linalg.solve_dirichlet(
        k, f, fixed, np.zeros(fixed.size), nel, context="test system"
    )
    assert isinstance(system, linalg.MultigridSystem) == multigrid
    assert isinstance(system, linalg.FactorizedSystem)
    if multigrid and min(nel) < linalg.MIN_COARSENED_ELEMS:
        # no levels: the V-cycle is the coarsest-level LU of the whole system
        assert system.prolongations == []


def test_multigrid_rank_updates_solve_updated_matrix():
    g, k, fixed, f = _elastic_3d()
    u_full, free, base = linalg.solve_dirichlet(
        k, f, fixed, np.zeros(fixed.size), g.nel_axis, context="test system"
    )
    tip = np.flatnonzero(g.coords[:, 0] == g.coords[:, 0].max())
    rows = 3 * tip + 1
    u = sparse.csr_matrix(
        (np.ones(tip.size), (rows, np.arange(tip.size))), shape=(k.shape[0], tip.size)
    )[free]
    coefficients = [1e2, 1e4, 1e6]
    b = f[free]
    for c, system in zip(coefficients, base.rank_updates(u, coefficients)):
        assert isinstance(system, linalg.MultigridSystem)
        assert system._levels is base._levels  # the base V-cycle, not a new hierarchy
        x = system.solve(b)
        a_c = base.a + c * (u @ u.T)
        assert _backward_error(a_c, x, b) <= linalg.RESIDUAL_TOL
        exact = spsolve(a_c.tocsc(), b)
        assert np.linalg.norm(x - exact) <= 1e-8 * np.linalg.norm(exact)


@pytest.mark.parametrize("dofs_per_node", [1, 3])
def test_prolongations_reproduce_linear_fields(dofs_per_node):
    def linear(coords):
        comps = [coords @ [1.0, -2.0, 0.5] + c for c in range(dofs_per_node)]
        return np.stack(comps, axis=1).ravel()

    # an odd axis of n elements coarsens to (n + 1) / 2, one past its end
    for nel, coarse_nel in (((8, 4, 4), (4, 2, 2)), ((7, 5, 4), (4, 3, 2))):
        fine, coarse = (build_grid(GridSpec(3, m, h)) for m, h in ((nel, 1.0), (coarse_nel, 2.0)))
        n = dofs_per_node * fine.nnodes
        (p,) = linalg._prolongations(nel, n, np.arange(n))
        assert p.shape == (n, dofs_per_node * coarse.nnodes)
        assert np.allclose(p @ linear(coarse.coords), linear(fine.coords), rtol=0, atol=1e-12)
