"""Stiffness assembly, springs, solves, and performance metrics."""
import json

import numpy as np
import pytest
from scipy import sparse

from pneumotop import cli, linalg, problem
from pneumotop.darcy import coupling_matrix
from pneumotop.elasticity import (
    ElasticAssembler,
    metrics,
    output_operator,
    solve_displacement,
)
from pneumotop.errors import ConfigError
from pneumotop.grid import BoundaryRegion, Grid, GridSpec, build_grid, select_region
from pneumotop.model import Model

from tinyproblem import tiny_problem_dict


def _cantilever(nx=8, ny=4, h=1.0):
    g = build_grid(GridSpec(2, (nx, ny), h))
    fixed_sel = select_region(
        g, BoundaryRegion("fixed_support", ((0, 0), (0, ny * h)))
    )
    fixed = np.concatenate([2 * fixed_sel.nodes, 2 * fixed_sel.nodes + 1])
    return g, fixed


def _springs(g, sel):
    """Output springs ``(k_out / r) D D^T`` of an output region."""
    d = output_operator(g, sel)
    return (sel.region.k_out / d.shape[1]) * (d @ d.T)


def _projector(g, sel):
    """Output projector ``D 1 / r``: u_out = l . u."""
    d = output_operator(g, sel)
    return (d @ np.ones(d.shape[1])) / d.shape[1]


def test_row_sums_zero_rigid_translation():
    g = build_grid(GridSpec(2, (1, 1), 1.0))
    k = ElasticAssembler(g, 0.3).assemble(np.ones(1)).toarray()
    assert np.abs(k.sum(axis=1)).max() < 1e-12
    assert np.allclose(k, k.T, atol=1e-14)


def test_rigid_rotation_in_null_space():
    g = build_grid(GridSpec(2, (5, 3), 0.5))
    k = ElasticAssembler(g, 0.3).assemble(np.full(g.nelem, 2.3e6))
    omega = 1e-3
    u = np.zeros(g.n_disp_dofs)
    center = g.coords.mean(axis=0)
    u[0::2] = -omega * (g.coords[:, 1] - center[1])
    u[1::2] = omega * (g.coords[:, 0] - center[0])
    r = k @ u
    assert np.abs(r).max() <= 1e-9 * abs(k).max() * omega


def test_stiffness_linear_in_modulus():
    g = build_grid(GridSpec(2, (3, 2), 1.0))
    rng = np.random.default_rng(0)
    e = rng.uniform(1e5, 1e6, g.nelem)
    k1 = ElasticAssembler(g, 0.3).assemble(e)
    k2 = ElasticAssembler(g, 0.3).assemble(2 * e)
    assert abs(k2 - 2 * k1).max() < 1e-6


def test_nonpositive_modulus_rejected():
    g = build_grid(GridSpec(2, (2, 2), 1.0))
    with pytest.raises(ConfigError, match="positive"):
        ElasticAssembler(g, 0.3).assemble(np.zeros(g.nelem))


def test_zero_spring_is_identity():
    g = build_grid(GridSpec(2, (2, 2), 1.0))
    k = ElasticAssembler(g, 0.3).assemble(np.ones(g.nelem))
    sel = select_region(
        g,
        BoundaryRegion(
            "output", ((2, 0), (2, 2)), direction=(0.0, -1.0), k_out=0.0
        ),
    )
    assert abs((k + _springs(g, sel)) - k).max() == 0.0


def test_single_node_axis_aligned_spring():
    g = build_grid(GridSpec(2, (2, 2), 1.0))
    sel = select_region(
        g,
        BoundaryRegion(
            "output", ((2, 1), (2, 1)), direction=(0.0, -1.0), k_out=7.5
        ),
    )
    s = _springs(g, sel)
    assert sel.nodes.size == 1
    node = sel.nodes[0]
    dense = s.toarray()
    assert dense[2 * node + 1, 2 * node + 1] == pytest.approx(7.5)
    assert s.sum() == pytest.approx(7.5)


def test_output_operator_columns_carry_direction_per_node():
    g = build_grid(GridSpec(2, (2, 2), 1.0))
    sel = select_region(
        g, BoundaryRegion("output", ((2, 0), (2, 2)), direction=(0.6, 0.8), k_out=3.0)
    )
    d = output_operator(g, sel)
    assert d.shape == (g.n_disp_dofs, sel.nodes.size) == (18, 3)
    dense = d.toarray()
    for j, node in enumerate(sel.nodes):
        col = np.zeros(g.n_disp_dofs)
        col[2 * node : 2 * node + 2] = (0.6, 0.8)
        assert np.array_equal(dense[:, j], col)


@pytest.mark.parametrize("direction", [(0, -1), (0.6, 0.8)])
def test_model_output_operators_equal_per_node_blocks(direction):
    # Model.l_out and Model.spring_unit, built from output_operator, equal
    # the per-node construction d / r and (1 / r) d d^T bit for bit
    raw = tiny_problem_dict()
    raw["regions"][3]["direction"] = list(direction)
    model = Model(problem.parse_problem(raw))
    g, nodes = model.grid, model.output_sel.nodes
    d = np.asarray(direction, dtype=float)
    l_ref = np.zeros(g.n_disp_dofs)
    s_ref = np.zeros((g.n_disp_dofs,) * 2)
    for node in nodes:
        dofs = 2 * node + np.arange(2)
        l_ref[dofs] += d / nodes.size
        s_ref[np.ix_(dofs, dofs)] = (1.0 / nodes.size) * np.outer(d, d)
    assert nodes.size == 3
    assert np.array_equal(model.l_out, l_ref)
    assert np.array_equal(model.spring_unit.toarray(), s_ref)


def test_spring_oracle_force_over_k():
    # free-floating element: only the spring resists motion along x, so a
    # force along the spring direction gives u_out = f / k_out exactly
    g = build_grid(GridSpec(2, (1, 1), 1.0))
    k_out = 40.0
    k = ElasticAssembler(g, 0.3).assemble(np.full(1, 1e6))
    sel = select_region(
        g,
        BoundaryRegion("output", ((1, 0), (1, 1)), direction=(1.0, 0.0), k_out=k_out),
    )
    ks = k + _springs(g, sel)
    fixed = 2 * np.arange(g.nnodes) + 1  # pin the remaining rigid modes (y)
    f_total = 3.0
    f = np.zeros(g.n_disp_dofs)
    f[2 * sel.nodes] = f_total / sel.nodes.size
    disp = solve_displacement(ks, f, fixed, g.nel_axis)
    m = metrics(disp.u, k, _projector(g, sel), sel.region.k_out)
    assert m.u_out == pytest.approx(f_total / k_out, rel=1e-9)


def test_zero_force_zero_displacement():
    g, fixed = _cantilever()
    k = ElasticAssembler(g, 0.3).assemble(np.ones(g.nelem))
    disp = solve_displacement(k, np.zeros(g.n_disp_dofs), fixed, g.nel_axis)
    assert np.all(disp.u == 0.0)


def test_force_doubling_doubles_displacement():
    g, fixed = _cantilever()
    rng = np.random.default_rng(1)
    k = ElasticAssembler(g, 0.3).assemble(rng.uniform(1e5, 1e7, g.nelem))
    f = rng.normal(size=g.n_disp_dofs)
    u1 = solve_displacement(k, f, fixed, g.nel_axis).u
    u2 = solve_displacement(k, 2 * f, fixed, g.nel_axis).u
    assert np.allclose(u2, 2 * u1, rtol=1e-9)


def test_cantilever_matches_dense_oracle():
    g, fixed = _cantilever(8, 4)
    rng = np.random.default_rng(2)
    e = rng.uniform(1e5, 1e8, g.nelem)
    k = ElasticAssembler(g, 0.3).assemble(e)
    f = np.zeros(g.n_disp_dofs)
    tip = select_region(
        g, BoundaryRegion("output", ((8, 0), (8, 4)), direction=(0.0, -1.0))
    ).nodes
    f[2 * tip + 1] = -10.0
    u = solve_displacement(k, f, fixed, g.nel_axis).u
    free = np.setdiff1d(np.arange(g.n_disp_dofs), fixed)
    dense = k.toarray()[np.ix_(free, free)]
    u_dense = np.zeros(g.n_disp_dofs)
    u_dense[free] = np.linalg.solve(dense, f[free])
    assert np.linalg.norm(u - u_dense) <= 1e-8 * np.linalg.norm(u_dense)


def test_insufficient_supports_is_config_error():
    g = build_grid(GridSpec(2, (2, 2), 1.0))
    k = ElasticAssembler(g, 0.3).assemble(np.ones(g.nelem))
    f = np.zeros(g.n_disp_dofs)
    f[0] = 1.0
    with pytest.raises(ConfigError, match="support"):
        solve_displacement(k, f, np.array([], dtype=int), g.nel_axis)


def test_free_rotation_of_a_fixture_is_config_error(tmp_path):
    # finger2d pinned at the one node at the origin and without output
    # springs keeps a rigid rotation; SuperLU once let it through with
    # |u_out| ~ 1e10 m
    raw = json.loads(problem.fixture_path("finger2d").read_text())
    (support,) = [r for r in raw["regions"] if r["role"] == "fixed_support"]
    support["box_m"] = [[0.0, 0.0], [0.0, 0.0]]
    (output,) = [r for r in raw["regions"] if r["role"] == "output"]
    output["k_out_n_per_m"] = 0.0
    model = Model(problem.parse_problem(raw))
    _, rho_bar, _ = model.physical_fields(np.full((3, model.grid.nelem), 0.5), 1.0)
    with pytest.raises(ConfigError, match="check supports"):
        model.forward(rho_bar)
    prob = tmp_path / "pinned.json"
    prob.write_text(json.dumps(raw))
    argv = ["optimize", str(prob), "--max-iters", "1", "--out-dir", str(tmp_path / "o")]
    assert cli.main(argv) == 3


def test_metrics_zero_displacement():
    g = build_grid(GridSpec(2, (2, 2), 1.0))
    k = ElasticAssembler(g, 0.3).assemble(np.ones(g.nelem))
    sel = select_region(
        g, BoundaryRegion("output", ((2, 0), (2, 2)), direction=(0.0, -1.0), k_out=5.0)
    )
    m = metrics(np.zeros(g.n_disp_dofs), k, _projector(g, sel), sel.region.k_out)
    assert (m.u_out, m.SE, m.W) == (0.0, 0.0, 0.0)


def test_metrics_spring_work_definition():
    g = build_grid(GridSpec(2, (1, 1), 1.0))
    sel = select_region(
        g, BoundaryRegion("output", ((1, 0), (1, 1)), direction=(0.0, -1.0), k_out=3.0)
    )
    u = np.zeros(g.n_disp_dofs)
    u[2 * sel.nodes + 1] = -2.0  # both output nodes move -y by 2
    k0 = sparse.csr_matrix((g.n_disp_dofs,) * 2)
    m = metrics(u, k0, _projector(g, sel), sel.region.k_out)
    assert m.u_out == pytest.approx(2.0)
    assert m.W == pytest.approx(0.5 * 3.0 * 4.0)  # 1-DOF analogy: 0.5 k u^2 = 6


def test_strain_energy_equals_external_work():
    g, fixed = _cantilever(6, 3)
    rng = np.random.default_rng(3)
    e = rng.uniform(1e5, 1e7, g.nelem)
    k = ElasticAssembler(g, 0.3).assemble(e)
    sel = select_region(
        g, BoundaryRegion("output", ((6, 0), (6, 3)), direction=(0.0, -1.0), k_out=25.0)
    )
    ks = k + _springs(g, sel)
    f = rng.normal(size=g.n_disp_dofs)
    f[fixed] = 0.0
    disp = solve_displacement(ks, f, fixed, g.nel_axis)
    m = metrics(disp.u, k, _projector(g, sel), sel.region.k_out)
    spring = _springs(g, sel)
    spring_energy = 0.5 * float(disp.u @ (spring @ disp.u))
    external = 0.5 * float(f @ disp.u)
    assert m.SE + spring_energy == pytest.approx(external, rel=1e-8)


def test_reciprocity():
    g, fixed = _cantilever(6, 3)
    rng = np.random.default_rng(4)
    k = ElasticAssembler(g, 0.3).assemble(rng.uniform(1e5, 1e7, g.nelem))
    fa = rng.normal(size=g.n_disp_dofs)
    fb = rng.normal(size=g.n_disp_dofs)
    ua = solve_displacement(k, fa, fixed, g.nel_axis).u
    ub = solve_displacement(k, fb, fixed, g.nel_axis).u
    assert ua @ fb == pytest.approx(ub @ fa, rel=1e-9)


def test_stiffer_spring_never_raises_u_out():
    # pressure-loaded strip solved at two output stiffnesses
    g, fixed = _cantilever(8, 4)
    rng = np.random.default_rng(5)
    e = rng.uniform(1e4, 1e6, g.nelem)
    k = ElasticAssembler(g, 0.3).assemble(e)
    p = 5e4 * (1.0 - g.coords[:, 0] / 8.0)
    f = -(coupling_matrix(g) @ p)
    u_prev = None
    for k_out in (1.0, 100.0):
        sel = select_region(
            g,
            BoundaryRegion(
                "output", ((8, 1), (8, 3)), direction=(0.0, -1.0), k_out=k_out
            ),
        )
        disp = solve_displacement(k + _springs(g, sel), f, fixed, g.nel_axis)
        m = metrics(disp.u, k, _projector(g, sel), sel.region.k_out)
        if u_prev is not None:
            assert abs(m.u_out) <= abs(u_prev) + 1e-12
        u_prev = m.u_out


def _designs(model, seed):
    """Two projected random designs of a model."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (2, 3, model.grid.nelem))
    return [model.physical_fields(xi, 8.0)[1] for xi in x]


def test_operators_keep_one_pattern_across_designs(tiny_model):
    uniform = np.full((3, tiny_model.grid.nelem), 0.5)
    states = [tiny_model.forward(rho) for rho in [uniform, *_designs(tiny_model, 0)]]
    for name in ("k_struct", "flow"):
        mats = [s.k_struct if name == "k_struct" else s.flow.A for s in states]
        for m in mats[1:]:
            assert np.array_equal(m.indptr, mats[0].indptr)
            assert np.array_equal(m.indices, mats[0].indices)
    # the uniform design's stiffness stores the zeros its cancellations give
    assert np.any(states[0].k_struct.data == 0.0)


@pytest.mark.parametrize("name", ["tiny", "gripper3d"])
def test_second_forward_builds_no_pattern(name, tiny_spec, monkeypatch):
    """After the first forward solve, assembly and reduction are gathers
    and products on the patterns, maps and prolongations built for it."""
    spec = tiny_spec if name == "tiny" else problem.load_problem("gripper3d")
    model = Model(spec)
    first, second = _designs(model, 1)
    model.forward(first)
    calls = []

    def spy(owner, attr):
        real = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls.append(attr)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    spy(Grid, "node_pattern")  # every stencil_operator starts here
    spy(linalg.DirichletReduction, "__init__")
    spy(linalg, "_prolongations")
    state = model.forward(second)
    assert calls == []
    # the assembled operators share the model's pattern arrays, not copies
    for mat, op in [(state.k_struct, model.elastic.op), (state.flow.A, model.flow.op)]:
        assert np.shares_memory(mat.indptr, op.indptr)
        assert np.shares_memory(mat.indices, op.indices)
    assert isinstance(state.disp.lu, linalg.MultigridSystem) == (name == "gripper3d")
