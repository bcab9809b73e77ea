"""Stiffness assembly, springs, solves, and performance metrics."""
import gc
import json
import weakref

import numpy as np
import pytest
from scipy import sparse

from pneumotop import cli, darcy, io, linalg, problem
from pneumotop.darcy import coupling_matrix
from pneumotop.elasticity import ElasticAssembler, metrics, output_operator
from pneumotop.errors import ConfigError
from pneumotop.grid import (
    BoundaryRegion, ElementOperator, Grid, GridSpec, element_pattern, pattern_slots,
    select_region,
)
from pneumotop.model import Model

from solves import elastic_solve
from tinyproblem import block_problem_dict, tiny_problem_dict


def _cantilever(nx=8, ny=4, h=1.0):
    g = Grid(GridSpec(2, (nx, ny), h))
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
    g = Grid(GridSpec(2, (1, 1), 1.0))
    k = ElasticAssembler(g, 0.3).assemble(np.ones(1)).toarray()
    assert np.abs(k.sum(axis=1)).max() < 1e-12
    assert np.allclose(k, k.T, atol=1e-14)


def test_rigid_rotation_in_null_space():
    g = Grid(GridSpec(2, (5, 3), 0.5))
    k = ElasticAssembler(g, 0.3).assemble(np.full(g.nelem, 2.3e6))
    omega = 1e-3
    u = np.zeros(g.n_disp_dofs)
    center = g.coords.mean(axis=0)
    u[0::2] = -omega * (g.coords[:, 1] - center[1])
    u[1::2] = omega * (g.coords[:, 0] - center[0])
    r = k @ u
    assert np.abs(r).max() <= 1e-9 * abs(k).max() * omega


def test_stiffness_linear_in_modulus():
    g = Grid(GridSpec(2, (3, 2), 1.0))
    rng = np.random.default_rng(0)
    e = rng.uniform(1e5, 1e6, g.nelem)
    k1 = ElasticAssembler(g, 0.3).assemble(e)
    k2 = ElasticAssembler(g, 0.3).assemble(2 * e)
    assert abs(k2 - 2 * k1).max() < 1e-6


def test_nonpositive_modulus_rejected():
    g = Grid(GridSpec(2, (2, 2), 1.0))
    with pytest.raises(ConfigError, match="positive"):
        ElasticAssembler(g, 0.3).assemble(np.zeros(g.nelem))


def test_zero_spring_is_identity():
    g = Grid(GridSpec(2, (2, 2), 1.0))
    k = ElasticAssembler(g, 0.3).assemble(np.ones(g.nelem))
    sel = select_region(
        g,
        BoundaryRegion(
            "output", ((2, 0), (2, 2)), direction=(0.0, -1.0), k_out=0.0
        ),
    )
    assert abs((k + _springs(g, sel)) - k).max() == 0.0


def test_single_node_axis_aligned_spring():
    g = Grid(GridSpec(2, (2, 2), 1.0))
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
    g = Grid(GridSpec(2, (2, 2), 1.0))
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
    g = Grid(GridSpec(2, (1, 1), 1.0))
    k_out = 40.0
    e = np.full(1, 1e6)
    k = ElasticAssembler(g, 0.3).assemble(e)
    sel = select_region(
        g,
        BoundaryRegion("output", ((1, 0), (1, 1)), direction=(1.0, 0.0), k_out=k_out),
    )
    fixed = 2 * np.arange(g.nnodes) + 1  # pin the remaining rigid modes (y)
    f_total = 3.0
    f = np.zeros(g.n_disp_dofs)
    f[2 * sel.nodes] = f_total / sel.nodes.size
    disp = elastic_solve(g, e, f, fixed, _springs(g, sel))
    m = metrics(disp.u, k @ disp.u, _projector(g, sel), sel.region.k_out)
    assert m.u_out == pytest.approx(f_total / k_out, rel=1e-9)


def test_zero_force_zero_displacement():
    g, fixed = _cantilever()
    disp = elastic_solve(g, np.ones(g.nelem), np.zeros(g.n_disp_dofs), fixed)
    assert np.all(disp.u == 0.0)


def test_force_doubling_doubles_displacement():
    g, fixed = _cantilever()
    rng = np.random.default_rng(1)
    e = rng.uniform(1e5, 1e7, g.nelem)
    f = rng.normal(size=g.n_disp_dofs)
    u1 = elastic_solve(g, e, f, fixed).u
    u2 = elastic_solve(g, e, 2 * f, fixed).u
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
    u = elastic_solve(g, e, f, fixed).u
    free = np.setdiff1d(np.arange(g.n_disp_dofs), fixed)
    dense = k.toarray()[np.ix_(free, free)]
    u_dense = np.zeros(g.n_disp_dofs)
    u_dense[free] = np.linalg.solve(dense, f[free])
    assert np.linalg.norm(u - u_dense) <= 1e-8 * np.linalg.norm(u_dense)


@pytest.mark.parametrize("nel", [(2, 2), (2, 2, 2)], ids=["2d", "3d"])
def test_insufficient_supports_is_config_error(nel):
    # the 3-D grid is too small for coarse levels, so its multigrid V-cycle
    # is the coarsest level's Cholesky of the whole singular system
    g = Grid(GridSpec(len(nel), nel, 1.0))
    f = np.zeros(g.n_disp_dofs)
    f[0] = 1.0
    with pytest.raises(ConfigError, match="support"):
        elastic_solve(g, np.ones(g.nelem), f, np.array([], dtype=int))


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


@pytest.mark.parametrize("dim", [2, 3])
def test_output_region_on_the_supports_is_config_error(tmp_path, dim, capsys):
    # every output DOF clamped: u_out is zero for any design, so Model()
    # rejects the problem (exit 3) before a solve or the springs' map
    if dim == 2:
        raw = tiny_problem_dict()
        box = [[0, 0.002], [0, 0.004]]
    else:
        raw = block_problem_dict((8, 4, 3))
        box = [[0, 0.001, 0.001], [0, 0.003, 0.003]]
    (output,) = [r for r in raw["regions"] if r["role"] == "output"]
    output["box_m"], output["name"] = box, "tip"
    prob = tmp_path / "clamped_output.json"
    prob.write_text(json.dumps(raw))
    argv = ["optimize", str(prob), "--out-dir", str(tmp_path / "o"), "--max-iters", "2"]
    assert cli.main(argv) == 3
    assert "region 'tip': every output DOF is held by a support" in capsys.readouterr().err


def test_pattern_slots_of_no_entries_is_empty():
    g = Grid(GridSpec(2, (2, 2), 1.0))
    indptr, indices, _ = element_pattern(g)
    assert pattern_slots(indptr, indices, [], []).size == 0


@pytest.mark.filterwarnings("error")
def test_overflowing_stiffness_is_a_solver_failure(tmp_path, capsys):
    # a solid design at 1e308 Pa overflows the stiffness: a solver failure
    # (exit 4), not the "check supports" (exit 3) of a singular system, and
    # without a RuntimeWarning on the way
    raw = tiny_problem_dict(materials={"E_pa": [1e306, 1e307, 1e308]})
    prob = tmp_path / "huge.json"
    prob.write_text(json.dumps(raw))
    grid = problem.parse_problem(raw).grid
    design = tmp_path / "solid.json"
    io.save_design(design, grid, np.ones((3, int(np.prod(grid.nel)))))
    assert cli.main(["evaluate", str(design), str(prob), "--out-dir", str(tmp_path / "o")]) == 4
    assert "displacement solve: matrix has a non-finite 1-norm" in capsys.readouterr().err


def test_metrics_zero_displacement():
    g = Grid(GridSpec(2, (2, 2), 1.0))
    k = ElasticAssembler(g, 0.3).assemble(np.ones(g.nelem))
    sel = select_region(
        g, BoundaryRegion("output", ((2, 0), (2, 2)), direction=(0.0, -1.0), k_out=5.0)
    )
    u = np.zeros(g.n_disp_dofs)
    m = metrics(u, k @ u, _projector(g, sel), sel.region.k_out)
    assert (m.u_out, m.SE, m.W) == (0.0, 0.0, 0.0)


def test_metrics_spring_work_definition():
    g = Grid(GridSpec(2, (1, 1), 1.0))
    sel = select_region(
        g, BoundaryRegion("output", ((1, 0), (1, 1)), direction=(0.0, -1.0), k_out=3.0)
    )
    u = np.zeros(g.n_disp_dofs)
    u[2 * sel.nodes + 1] = -2.0  # both output nodes move -y by 2
    k0 = sparse.csr_matrix((g.n_disp_dofs,) * 2)
    m = metrics(u, k0 @ u, _projector(g, sel), sel.region.k_out)
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
    f = rng.normal(size=g.n_disp_dofs)
    f[fixed] = 0.0
    disp = elastic_solve(g, e, f, fixed, _springs(g, sel))
    m = metrics(disp.u, k @ disp.u, _projector(g, sel), sel.region.k_out)
    spring = _springs(g, sel)
    spring_energy = 0.5 * float(disp.u @ (spring @ disp.u))
    external = 0.5 * float(f @ disp.u)
    assert m.SE + spring_energy == pytest.approx(external, rel=1e-8)


def test_reciprocity():
    g, fixed = _cantilever(6, 3)
    rng = np.random.default_rng(4)
    e = rng.uniform(1e5, 1e7, g.nelem)
    fa = rng.normal(size=g.n_disp_dofs)
    fb = rng.normal(size=g.n_disp_dofs)
    ua = elastic_solve(g, e, fa, fixed).u
    ub = elastic_solve(g, e, fb, fixed).u
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
        disp = elastic_solve(g, e, f, fixed, _springs(g, sel))
        m = metrics(disp.u, k @ disp.u, _projector(g, sel), sel.region.k_out)
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
    """After the first forward solve, assembly and reduction are gathers,
    scatters and products on the patterns and maps built for it: in 3-D the
    coarse levels, with their transfers and the coarsest level's band map,
    too."""
    spec = tiny_spec if name == "tiny" else problem.load_problem("gripper3d")
    model = Model(spec)
    first, second = _designs(model, 1)
    model.forward(first)
    calls = []

    def spy(owner, attr):
        real = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    spy(Grid, "node_pattern")  # every StencilOperator pattern starts here
    spy(linalg.DirichletReduction, "__init__")
    spy(linalg.GalerkinLevel, "__init__")
    spy(linalg.BandMap, "__init__")
    spy(darcy, "pressure_reduction")  # the flow set and its values
    state = model.forward(second)
    assert calls == []
    reductions = [model.elastic_reduction, model.flow_reduction]
    for reduction in reductions:
        assert bool(reduction.levels) == (name == "gripper3d")
    # the assembled operators share the model's pattern arrays, and every
    # gathered free block its reduction's read-only index arrays, not copies;
    # the 3-D elastic block multiplies through its reduction's element
    # product, with no CSR of its own
    for mat, op in [(state.k_struct, model.elastic.op), (state.flow.A, model.flow.op)]:
        assert np.shares_memory(mat.indptr, op.indptr)
        assert np.shares_memory(mat.indices, op.indices)
    for system, reduction in zip([state.disp.system, state.pressure.system], reductions):
        if reduction.element_product is not None:  # under the springs' rank term
            assert system.a.base.block is reduction.element_product
            continue
        for mine, ours in [(system.a.indices, reduction.indices),
                           (system.a.indptr, reduction.indptr)]:
            assert np.shares_memory(mine, ours) and not ours.flags.writeable
    assert (model.elastic_reduction.element_product is not None) == (name == "gripper3d")
    assert isinstance(state.disp.system.lu, linalg.MultigridCG) == (name == "gripper3d")
    if name == "gripper3d":
        # the V-cycles run on the reductions' own levels, with their
        # transfers, patterns and band maps
        for system, reduction in zip([state.disp.system, state.pressure.system], reductions):
            v_cycle = system.lu.v_cycle
            assert v_cycle.levels is reduction.levels
            assert len(reduction.levels) == len(v_cycle.matrices) - 1 > 0
            for a_l, level in zip(v_cycle.matrices[1:], reduction.levels):
                assert np.shares_memory(a_l.indices, level.indices)
            coarsest = reduction.levels[-1]
            assert v_cycle.coarse.factor.shape[1] == coarsest.band_map.n <= linalg.COARSEST_DOFS


@pytest.mark.parametrize("name", ["tiny", "gripper3d"])
def test_sweep_holds_one_updated_system_at_a_time(name, tiny_spec, monkeypatch):
    """Each sweep point's system holds the base system's block under a rank
    term of its own, and the sweep drops it before the next one is built."""
    spec = tiny_spec if name == "tiny" else problem.load_problem("gripper3d")
    model = Model(spec)
    rho = _designs(model, 2)[0]
    refs, live_at_build = [], []
    real = linalg.FactorizedSystem.__init__

    def recording(self, a, **kwargs):
        live_at_build.append([ref() is not None for ref in refs])
        real(self, a, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(linalg.FactorizedSystem, "__init__", recording)
    k_values = [0.1, 1.0, 10.0, 100.0]
    model.sweep(rho, k_values)
    # the forward solve's pressure and displacement systems, then a system per point
    assert len(refs) == 2 + len(k_values) - 1
    assert [sum(live[2:]) for live in live_at_build[2:]] == [0] * (len(k_values) - 1)


@pytest.mark.parametrize("name", ["tiny", "gripper3d"])
def test_dropped_state_frees_its_solvers_without_the_collector(name, tiny_spec):
    """No inverse operator holds the system that holds it, so dropping a
    forward solve's state frees its factors and hierarchies at once, with
    the garbage collector off: a cycle would keep them until it runs."""
    spec = tiny_spec if name == "tiny" else problem.load_problem("gripper3d")
    model = Model(spec)
    state = model.forward(_designs(model, 4)[0])
    refs = [weakref.ref(system.lu) for system in (state.disp.system, state.pressure.system)]
    gc.disable()
    try:
        del state
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_2d_sweep_makes_no_band_solve_of_several_right_hand_sides(tiny_model, monkeypatch):
    """A 2-D sweep takes ``W = L⁻¹ U`` by a half-solve on the factor's last
    rows, not by a band solve with one right-hand side per output node."""
    widths, real = [], linalg.dpbtrs

    def counting(factor, b, **kwargs):
        widths.append(1 if np.ndim(b) == 1 else np.shape(b)[1])
        return real(factor, b, **kwargs)

    monkeypatch.setattr(linalg, "dpbtrs", counting)
    assert tiny_model.output_op.shape[1] > 1
    rows = tiny_model.sweep(_designs(tiny_model, 3)[0], [0.1, 1.0, 10.0, 100.0])
    assert len(rows) == 4
    assert widths and max(widths) == 1


@pytest.mark.parametrize("name", ["tiny", "gripper3d"])
def test_springs_reach_the_block_as_from_the_spring_loaded_matrix(name, tiny_spec, monkeypatch):
    """The reduction adds the springs to the free block: the 2-D block it
    gathers from ``k_struct`` and its band, and the 3-D V-cycle diagonal,
    equal, bit for bit, those read from the full matrix with the springs on
    its slots; the 3-D block, an element sum plus the springs' rank term,
    multiplies as that matrix's free block does, to 1e-14."""
    spec = tiny_spec if name == "tiny" else problem.load_problem("gripper3d")
    model = Model(spec)
    bands, real = [], linalg.dpbtrf

    def recording(band, **kwargs):
        bands.append(band.copy())
        return real(band, **kwargs)

    monkeypatch.setattr(linalg, "dpbtrf", recording)
    state = model.forward(_designs(model, 5)[0])
    assert state.k_out > 0
    k, spring, reduction = state.k_struct, model.spring_unit.tocoo(), model.elastic_reduction
    full = k.copy()
    full.data[pattern_slots(k.indptr, k.indices, spring.row, spring.col)] += state.k_out * spring.data
    system = state.disp.system
    if name == "tiny":
        block = full.data[reduction.gather]
        assert np.array_equal(system.a.data, block)
        elastic = linalg.BandMap(reduction.indptr, reduction.indices).band(block)
        assert np.array_equal(bands[-1], elastic)
        # the spring-loaded matrix, without springs of the reduction's own
        u, _ = reduction.solve(full, state.force, state.e_field, "test system")
        assert np.array_equal(u, state.disp.u)
    else:
        block = full[reduction.free][:, reduction.free]
        p = np.random.default_rng(4).normal(size=block.shape[0])
        assert np.linalg.norm(system.a @ p - block @ p) <= 1e-14 * np.linalg.norm(block @ p)
        jacobi = linalg.JACOBI_OMEGA / full.diagonal()[reduction.free]
        assert np.array_equal(system.lu.v_cycle.jacobi[0], jacobi)
        assert isinstance(system.a, linalg.RankSum) and system.lu.product is system.a
        assert system.a.base.block is reduction.element_product
        (c, _, _), = system.a.terms
        assert c == state.k_out / model.output_op.shape[1]


@pytest.mark.parametrize("name", ["tiny", "gripper3d"])
def test_negative_or_non_finite_spring_stiffness_is_a_config_error(name, tiny_spec):
    """A stiffness a problem file could not give is rejected, not dropped
    or solved with: a negative one would solve an indefinite system."""
    spec = tiny_spec if name == "tiny" else problem.load_problem("gripper3d")
    model = Model(spec)
    rho = _designs(model, 6)[0]
    for k_out in (np.nan, -1.0, np.inf):
        with pytest.raises(ConfigError, match="finite and >= 0, got"):
            model.forward(rho, k_out=k_out)
    with pytest.raises(ConfigError, match=r"finite and >= 0, got -1\.0"):
        model.sweep(rho, [0.1, 1.0, -1.0])


@pytest.mark.parametrize("name", ["tiny", "gripper3d"])
def test_empty_sweep_is_a_config_error(name, tiny_spec):
    """A sweep of no stiffness is rejected, not a bare IndexError."""
    spec = tiny_spec if name == "tiny" else problem.load_problem("gripper3d")
    model = Model(spec)
    with pytest.raises(ConfigError, match="at least one output spring stiffness"):
        model.sweep(_designs(model, 6)[0], [])


@pytest.mark.parametrize("name", ["tiny", "gripper3d"])
def test_zero_spring_stiffness_solves_without_springs(name, tiny_spec):
    """At k_out = 0 the forward solve is, bit for bit, that of a reduction
    that holds no springs, and the spring does no work."""
    spec = tiny_spec if name == "tiny" else problem.load_problem("gripper3d")
    model = Model(spec)
    state = model.forward(_designs(model, 7)[0], k_out=0.0)
    bare = linalg.DirichletReduction(model.elastic.op, model.fixed_u_dofs, model.grid)
    u, system = bare.solve(state.stiffness, state.force, state.e_field, "displacement solve")
    assert np.array_equal(u, state.disp.u)
    # the gathered block's data, or the element sum's scatter values
    data = [s.a.data if name == "tiny" else s.a.scatter.data for s in (system, state.disp.system)]
    assert np.array_equal(*data)
    assert state.metrics.W == 0.0 and state.metrics.SE > 0.0
    if name == "gripper3d":  # the element sum alone, with no rank term
        assert isinstance(state.disp.system.lu.product, ElementOperator)
