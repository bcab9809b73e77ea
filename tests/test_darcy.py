"""Flow assembly, pressure solve, force coupling, and energy-loss tests."""
import numpy as np
import pytest

from pneumotop.darcy import FlowAssembler, coupling_matrix, energy_loss, pressure_reduction
from pneumotop.errors import ConfigError
from pneumotop.grid import BoundaryRegion, Grid, GridSpec, select_region
from pneumotop.materials import FlowParams, drainage_for_wall

from gridindex import node_index
from solves import flow_solve

FLOW = FlowParams(P_in=5e4)


def _column_grid(n=10, h=1.0):
    return Grid(GridSpec(2, (n, 1), h))


def _column_bcs(grid):
    h = grid.h
    nx = grid.nel_axis[0]
    left = select_region(
        grid, BoundaryRegion("pressure_inlet", ((0, 0), (0, h)))
    ).nodes
    right = select_region(
        grid, BoundaryRegion("pressure_drain", ((nx * h, 0), (nx * h, h)))
    ).nodes
    return left, right


def test_single_element_conduction_is_bilinear_laplacian():
    g = Grid(GridSpec(2, (1, 1), 1.0))
    fp = FlowParams(P_in=1.0, K_v=1.0, K_s=1e-7, D_s=0.0)
    sys = FlowAssembler(g).assemble(np.zeros(1), fp)
    exact = (1.0 / 6.0) * np.array(
        [[4, -1, -2, -1], [-1, 4, -1, -2], [-2, -1, 4, -1], [-1, -2, -1, 4]]
    )
    # compare in element-corner order (counter-clockwise), not node-id order
    conn = g.conn[0]
    assembled = sys.A.toarray()[np.ix_(conn, conn)]
    assert np.allclose(assembled, exact, atol=1e-12)
    assert np.abs(assembled.sum(axis=1)).max() < 1e-12


def test_all_solid_with_drainage_is_positive_definite():
    g = Grid(GridSpec(2, (3, 3), 1.0))
    fp = FlowParams(P_in=1.0, D_s=0.5)
    sys = FlowAssembler(g).assemble(np.ones(g.nelem), fp)
    eig = np.linalg.eigvalsh(sys.A.toarray())
    assert eig.min() > 0.0


def test_no_coupling_without_shared_nodes():
    g = Grid(GridSpec(2, (5, 1), 1.0))
    sys = FlowAssembler(g).assemble(np.zeros(g.nelem), FLOW)
    a = sys.A.toarray()
    n_left = node_index(g, (0, 0))
    n_right = node_index(g, (5, 1))
    assert a[n_left, n_right] == 0.0  # distant nodes never couple


def test_one_d_linear_pressure_profile():
    g = _column_grid(10)
    left, right = _column_bcs(g)
    fp = FlowParams(P_in=5e4, D_s=0.0)
    _, pf = flow_solve(g, np.zeros(g.nelem), fp, left, right)
    x = g.coords[:, 0]
    exact = 5e4 * (1.0 - x / 10.0)
    assert np.max(np.abs(pf.p - exact)) <= 1e-6 * 5e4
    mid = node_index(g, (5, 0))
    assert pf.p[mid] == pytest.approx(2.5e4, rel=1e-6)


def test_one_d_rhs_relative_residual_contract():
    g = _column_grid(10)
    left, right = _column_bcs(g)
    fp = FlowParams(P_in=5e4, D_s=0.0)
    sys, pf = flow_solve(g, np.zeros(g.nelem), fp, left, right)
    fixed = np.concatenate([left, right])
    free = np.setdiff1d(np.arange(g.nnodes), fixed)
    a = sys.A.tocsc()
    b = -a[free][:, fixed] @ pf.p[fixed]
    resid = a[free][:, free] @ pf.p[free] - b
    assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(b)


def test_all_dirichlet_at_inlet_gives_uniform_field():
    g = Grid(GridSpec(2, (3, 3), 1.0))
    boundary = select_region(
        g, BoundaryRegion("pressure_inlet", ((0, 0), (3, 3)))
    )
    edge = boundary.nodes[
        np.any(
            (g.node_ijk[boundary.nodes] == 0)
            | (g.node_ijk[boundary.nodes] == 3),
            axis=1,
        )
    ]
    fp = FlowParams(P_in=7e3, D_s=0.0)
    _, pf = flow_solve(g, np.zeros(g.nelem), fp, edge, np.array([], dtype=np.int64))
    assert np.allclose(pf.p, 7e3, rtol=1e-12)


def test_solid_element_takes_nearly_all_pressure_drop():
    g = _column_grid(11)
    left, right = _column_bcs(g)
    rho = np.zeros(g.nelem)
    rho[5] = 1.0
    fp = FlowParams(P_in=5e4, D_s=0.0)
    _, pf = flow_solve(g, rho, fp, left, right)
    drop_total = 5e4
    p_before = pf.p[node_index(g, (5, 0))]
    p_after = pf.p[node_index(g, (6, 0))]
    assert (p_before - p_after) / drop_total >= 0.9999


def test_no_dirichlet_is_config_error():
    none = np.array([], dtype=int)
    with pytest.raises(ConfigError, match="Dirichlet"):
        pressure_reduction(FlowAssembler(_column_grid(4)), none, none, FLOW)


def test_uniform_pressure_gives_zero_force():
    g = Grid(GridSpec(2, (4, 3), 0.5))
    p = np.full(g.nnodes, 1.2e4)
    f = -(coupling_matrix(g) @ p)
    assert np.abs(f).max() <= 1e-12 * 1.2e4 * g.h


def test_linear_pressure_force_closed_form():
    g = Grid(GridSpec(2, (1, 1), 1.0))
    slope = 3.7e3
    p = slope * g.coords[:, 0]
    f = -(coupling_matrix(g) @ p)
    fx = f[0::2]
    fy = f[1::2]
    # total x-force = -slope * volume, equally split over the 4 nodes
    assert fx.sum() == pytest.approx(-slope, rel=1e-10)
    assert np.allclose(fx, -slope / 4.0, rtol=1e-10)
    assert np.abs(fy).max() <= 1e-10 * slope


def test_zero_gauge_pressure_zero_force():
    g = Grid(GridSpec(3, (2, 2, 2), 0.3))
    f = -(coupling_matrix(g) @ np.zeros(g.nnodes))
    assert np.all(f == 0.0)


def test_energy_loss_analytic_channel():
    n = 10
    g = _column_grid(n)
    left, right = _column_bcs(g)
    fp = FlowParams(P_in=5e4, D_s=0.0)
    sys, pf = flow_solve(g, np.zeros(g.nelem), fp, left, right)
    et = energy_loss(sys, pf.p, left)
    # K_v * A_c * dP^2 / L with unit-depth cross-section h x 1
    exact = fp.K_v * g.h * (5e4) ** 2 / (n * g.h)
    assert et == pytest.approx(exact, rel=1e-9)


def test_energy_loss_sealed_wall_much_smaller():
    g = Grid(GridSpec(2, (10, 10), 1.0))
    left = select_region(
        g, BoundaryRegion("pressure_inlet", ((0, 0), (0, 10)))
    ).nodes
    right = select_region(
        g, BoundaryRegion("pressure_drain", ((10, 0), (10, 10)))
    ).nodes
    fp = FlowParams(P_in=5e4, D_s=drainage_for_wall(1e-7, 2.0, 0.01))
    open_sys, open_pf = flow_solve(g, np.zeros(g.nelem), fp, left, right)
    et_open = energy_loss(open_sys, open_pf.p, left)
    rho = np.zeros(g.nelem)
    rho[g.elem_ijk[:, 0] == 5] = 1.0  # full-height wall
    wall_sys, wall_pf = flow_solve(g, rho, fp, left, right)
    et_wall = energy_loss(wall_sys, wall_pf.p, left)
    assert et_wall <= 1e-4 * et_open
    assert et_wall >= 0.0


def test_linearity_in_boundary_pressure():
    g = Grid(GridSpec(2, (6, 4), 1.0))
    left = select_region(g, BoundaryRegion("pressure_inlet", ((0, 0), (0, 4)))).nodes
    right = select_region(g, BoundaryRegion("pressure_drain", ((6, 0), (6, 4)))).nodes
    rng = np.random.default_rng(8)
    rho = rng.uniform(0, 1, g.nelem)
    for p_in in (2.5e4,):
        fp1 = FlowParams(P_in=p_in, D_s=1.0)
        fp2 = FlowParams(P_in=2 * p_in, D_s=1.0)
        s1, pf1 = flow_solve(g, rho, fp1, left, right)
        s2, pf2 = flow_solve(g, rho, fp2, left, right)
        assert np.allclose(pf2.p, 2 * pf1.p, rtol=1e-9)
        f1 = -(coupling_matrix(g) @ pf1.p)
        f2 = -(coupling_matrix(g) @ pf2.p)
        assert np.allclose(f2, 2 * f1, rtol=1e-9, atol=1e-12 * np.abs(f1).max())
        assert energy_loss(s2, pf2.p, left) == pytest.approx(
            4 * energy_loss(s1, pf1.p, left), rel=1e-9
        )


def test_energy_bookkeeping_identity():
    # inlet-reaction accounting equals total dissipation p^T A p at zero gauge
    g = Grid(GridSpec(2, (8, 5), 1.0))
    left = select_region(g, BoundaryRegion("pressure_inlet", ((0, 0), (0, 5)))).nodes
    right = select_region(g, BoundaryRegion("pressure_drain", ((8, 0), (8, 5)))).nodes
    rng = np.random.default_rng(12)
    rho = rng.uniform(0, 1, g.nelem)
    fp = FlowParams(P_in=5e4, D_s=2.0)
    sys, pf = flow_solve(g, rho, fp, left, right)
    et = energy_loss(sys, pf.p, left)
    dissipation = float(pf.p @ (sys.A @ pf.p))
    assert et == pytest.approx(dissipation, rel=1e-8)


def test_force_symmetric_for_symmetric_design():
    g = Grid(GridSpec(2, (8, 8), 1.0))
    left = select_region(g, BoundaryRegion("pressure_inlet", ((0, 0), (0, 8)))).nodes
    right = select_region(g, BoundaryRegion("pressure_drain", ((8, 0), (8, 8)))).nodes
    rng = np.random.default_rng(3)
    half = rng.uniform(0, 1, (8, 4))
    rho_img = np.concatenate([half, half[:, ::-1]], axis=1)  # mirror about y mid
    rho = rho_img.T.ravel()
    fp = FlowParams(P_in=5e4, D_s=1.0)
    _, pf = flow_solve(g, rho, fp, left, right)
    f = -(coupling_matrix(g) @ pf.p)
    fx = f[0::2].reshape(9, 9)
    fy = f[1::2].reshape(9, 9)
    scale = np.abs(f).max()
    assert np.abs(fx - fx[::-1, :]).max() <= 1e-9 * scale
    assert np.abs(fy + fy[::-1, :]).max() <= 1e-9 * scale


def test_maximum_principle_with_drainage():
    g = Grid(GridSpec(2, (12, 8), 1.0))
    left = select_region(g, BoundaryRegion("pressure_inlet", ((0, 0), (0, 8)))).nodes
    right = select_region(g, BoundaryRegion("pressure_drain", ((12, 0), (12, 8)))).nodes
    rng = np.random.default_rng(21)
    fp = FlowParams(P_in=5e4, D_s=drainage_for_wall(1e-7, 1.5, 0.01))
    for _ in range(5):
        rho = rng.uniform(0, 1, g.nelem)
        _, pf = flow_solve(g, rho, fp, left, right)
        assert pf.p.min() >= -1e-6 * 5e4
        assert pf.p.max() <= 5e4 * (1 + 1e-6)


def test_coupling_matrix_is_geometry_only():
    g = Grid(GridSpec(2, (3, 2), 0.5))
    t1 = coupling_matrix(g).toarray()
    t2 = coupling_matrix(g).toarray()
    assert np.array_equal(t1, t2)
