"""Sealing post-processes: heuristic skin, boundary skin, flood-fill checks."""
import numpy as np
import pytest

from pneumotop.closure import check_sealed, heuristic_skin, non_design_skin
from pneumotop.errors import ConfigError
from pneumotop.grid import (
    TAG_DESIGN,
    BoundaryRegion,
    Grid,
    GridSpec,
    select_region,
)
from pneumotop.materials import FlowParams, drainage_for_wall
from pneumotop.model import Model
from pneumotop.problem import load_problem

from gridindex import elem_index
from solves import flow_solve

PATTERN = np.array([1.0, 0.0, 0.0])


def _faces(grid, role, box):
    return select_region(grid, BoundaryRegion(role, box)).faces


def _column(n=10):
    g = Grid(GridSpec(2, (n, 1), 1.0))
    inlet = _faces(g, "pressure_inlet", ((0, 0), (0, 1)))
    drain = _faces(g, "pressure_drain", ((n, 0), (n, 1)))
    return g, inlet, drain


def test_flood_fill_wall_seals():
    g, inlet, drain = _column()
    rho1 = np.zeros(g.nelem)
    rho1[5] = 1.0
    rep = check_sealed(rho1, g, inlet, drain)
    assert rep.sealed
    assert rep.leak_path is None


def test_flood_fill_open_column_path_length():
    g, inlet, drain = _column()
    rep = check_sealed(np.zeros(g.nelem), g, inlet, drain)
    assert not rep.sealed
    assert len(rep.leak_path) == 10
    assert list(rep.leak_path) == list(range(10))


def test_flood_fill_inlet_element_that_drains():
    # one element whose left face is the inlet and right face the drain:
    # void, it leaks on its own; solid, nothing enters
    g, inlet, drain = _column(1)
    assert check_sealed(np.zeros(1), g, inlet, drain).leak_path == (0,)
    assert check_sealed(np.ones(1), g, inlet, drain).sealed


def test_flood_fill_pinhole_detected():
    g = Grid(GridSpec(2, (10, 10), 1.0))
    inlet = _faces(g, "pressure_inlet", ((0, 0), (0, 10)))
    drain = _faces(g, "pressure_drain", ((10, 0), (10, 10)))
    rho1 = np.zeros(g.nelem)
    wall = g.elem_ijk[:, 0] == 5
    rho1[wall] = 1.0
    hole = elem_index(g, (5, 4))
    rho1[hole] = 0.0
    rep = check_sealed(rho1, g, inlet, drain)
    assert not rep.sealed
    assert hole in rep.leak_path


def test_flood_fill_monotone_in_density():
    # raising any element's density never turns a sealed domain leaky
    g = Grid(GridSpec(2, (8, 6), 1.0))
    inlet = _faces(g, "pressure_inlet", ((0, 0), (0, 6)))
    drain = _faces(g, "pressure_drain", ((8, 0), (8, 6)))
    rng = np.random.default_rng(2)
    for _ in range(20):
        rho1 = rng.uniform(0, 1, g.nelem)
        before = check_sealed(rho1, g, inlet, drain).sealed
        bumped = rho1.copy()
        j = rng.integers(g.nelem)
        bumped[j] = min(1.0, bumped[j] + rng.uniform(0, 1))
        after = check_sealed(bumped, g, inlet, drain).sealed
        if before:
            assert after


def test_heuristic_skin_one_d_midpoint_element():
    g, inlet_f, drain_f = _column()
    inlet = select_region(g, BoundaryRegion("pressure_inlet", ((0, 0), (0, 1)))).nodes
    drain = select_region(g, BoundaryRegion("pressure_drain", ((10, 0), (10, 1)))).nodes
    fp = FlowParams(P_in=5e4, D_s=0.0)
    _, pf = flow_solve(g, np.zeros(g.nelem), fp, inlet, drain)
    rho = np.zeros((3, g.nelem))
    sealed, added = heuristic_skin(rho, pf.p, g, fp, PATTERN)
    # linear profile crosses 25 kPa inside elements 4 and 5 (node at exactly
    # the level belongs to both neighbors)
    assert added in (1, 2)
    assert sealed[0, 4] == 1.0 or sealed[0, 5] == 1.0
    rep = check_sealed(sealed[0], g, inlet_f, drain_f)
    assert rep.sealed


def test_heuristic_skin_already_sealed_unchanged():
    g, inlet_f, drain_f = _column()
    inlet = select_region(g, BoundaryRegion("pressure_inlet", ((0, 0), (0, 1)))).nodes
    drain = select_region(g, BoundaryRegion("pressure_drain", ((10, 0), (10, 1)))).nodes
    fp = FlowParams(P_in=5e4, D_s=drainage_for_wall(1e-7, 2.0, 0.01))
    rho = np.zeros((3, g.nelem))
    rho[:, 5] = PATTERN
    rho[:, 6] = PATTERN
    _, pf = flow_solve(g, rho[0], fp, inlet, drain)
    out, added = heuristic_skin(rho, pf.p, g, fp, PATTERN)
    assert added == 0
    assert np.array_equal(out, rho)


def test_heuristic_skin_all_void_produces_sealed_cut():
    g = Grid(GridSpec(2, (12, 6), 1.0))
    inlet_sel = select_region(g, BoundaryRegion("pressure_inlet", ((0, 0), (0, 6))))
    drain_sel = select_region(g, BoundaryRegion("pressure_drain", ((12, 0), (12, 6))))
    fp = FlowParams(P_in=5e4, D_s=0.0)
    _, pf = flow_solve(g, np.zeros(g.nelem), fp, inlet_sel.nodes, drain_sel.nodes)
    rho = np.zeros((3, g.nelem))
    sealed, added = heuristic_skin(rho, pf.p, g, fp, PATTERN)
    rep = check_sealed(sealed[0], g, inlet_sel.faces, drain_sel.faces)
    assert rep.sealed
    assert added <= 2 * 6  # at most a two-element-thick cut


def test_heuristic_skin_idempotent():
    g = Grid(GridSpec(2, (12, 6), 1.0))
    inlet = select_region(g, BoundaryRegion("pressure_inlet", ((0, 0), (0, 6)))).nodes
    drain = select_region(g, BoundaryRegion("pressure_drain", ((12, 0), (12, 6)))).nodes
    rng = np.random.default_rng(4)
    rho = np.zeros((3, g.nelem))
    rho[0] = rng.uniform(0, 1, g.nelem)
    fp = FlowParams(P_in=5e4, D_s=drainage_for_wall(1e-7, 1.5, 0.01))
    _, pf = flow_solve(g, rho[0], fp, inlet, drain)
    once, n1 = heuristic_skin(rho, pf.p, g, fp, PATTERN)
    twice, n2 = heuristic_skin(once, pf.p, g, fp, PATTERN)
    assert n2 == 0
    assert np.array_equal(once, twice)


def test_non_design_skin_counts_and_exemptions():
    g = Grid(GridSpec(3, (4, 4, 4), 1.0))
    mask = np.full(g.nelem, TAG_DESIGN, dtype=np.int64)
    out = non_design_skin(g, mask, 1, material=1, exempt_faces=())
    assert (out == 1).sum() == 4**3 - 2**3
    # exempting one face leaves that slab designable
    out2 = non_design_skin(g, mask, 1, material=1, exempt_faces={(0, 0)})
    assert (out2 == 1).sum() == 4**3 - 2**3 - 4  # 2x2 slab at x=0 stays free
    x0_layer = g.elem_ijk[:, 0] == 0
    inner_yz = np.all((g.elem_ijk[:, 1:] >= 1) & (g.elem_ijk[:, 1:] <= 2), axis=1)
    assert np.all(out2[x0_layer & inner_yz] == TAG_DESIGN)


def test_skin_closure_leaves_gripper3d_inlet_and_symmetry_planes_open():
    # the inlet lies on x = 0 and the symmetry planes are y = 0 and z = 0:
    # the skin covers the three far faces only
    spec = load_problem("gripper3d", closure="skin")
    model = Model(spec)
    assert model.exempt_faces() == {(0, 0), (1, 0), (2, 0)}
    t, ijk = spec.closure.skin_thickness_elems, model.grid.elem_ijk
    far = np.any(ijk >= np.array(model.grid.nel_axis) - t, axis=1)
    assert np.array_equal(model.mask == 1, far)
    assert np.all(model.mask[~far] == TAG_DESIGN)


def test_non_design_skin_errors():
    g = Grid(GridSpec(2, (4, 4), 1.0))
    mask = np.full(g.nelem, TAG_DESIGN, dtype=np.int64)
    with pytest.raises(ConfigError, match="thickness"):
        non_design_skin(g, mask, 0, material=1)
    with pytest.raises(ConfigError, match="no design elements"):
        non_design_skin(g, mask, 2, material=1)


def test_non_design_skin_preserves_explicit_passive():
    g = Grid(GridSpec(2, (6, 4), 1.0))
    mask = np.full(g.nelem, TAG_DESIGN, dtype=np.int64)
    channel = g.elem_ijk[:, 1] == 0
    mask[channel] = -1  # explicit void channel on the bottom face
    out = non_design_skin(g, mask, 1, material=1, exempt_faces=())
    assert np.all(out[channel] == -1)
