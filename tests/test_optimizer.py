"""Outer-loop behavior on small problems: initialization, constraints, runs."""
import csv
import json
import logging
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from pneumotop import io, linalg, optimizer, problem, runner
from pneumotop.errors import ConfigError, SolveError
from pneumotop.model import Model
from pneumotop.optimizer import (
    constraint_values,
    initialize,
    run,
)

from tinyproblem import tiny_problem_dict


def _run(model):
    """``run(model)`` with its records collected: ``(result, records)``."""
    records = []
    return run(model, records.append), records


def test_initialize_levels_and_active_constraints(tiny_model):
    design = initialize(tiny_model)
    # design is uniform per channel; physical values hit the volume targets
    for ch in range(3):
        assert np.ptp(design[ch]) == 0.0
    _, rho_bar, _ = tiny_model.physical_fields(
        design, tiny_model.spec.filter.beta_p_initial
    )
    assert np.allclose(rho_bar[0], 0.7, atol=1e-12)
    assert np.allclose(rho_bar[1], 0.2, atol=1e-12)
    assert np.allclose(rho_bar[2], 0.2, atol=1e-12)
    g = constraint_values(rho_bar, tiny_model)
    assert np.abs(g).max() < 1e-10  # all three constraints start active


def test_initialize_passive_patterns():
    raw = tiny_problem_dict(
        passive=[
            {"tag": "solid", "material": 2, "box_m": [[0.004, 0.0], [0.006, 0.002]]},
            {"tag": "void", "box_m": [[0.008, 0.0], [0.010, 0.002]]},
        ]
    )
    model = Model(problem.parse_problem(raw))
    design = initialize(model)
    solid = np.nonzero(model.mask == 2)[0]
    void = np.nonzero(model.mask == -1)[0]
    assert solid.size and void.size
    assert np.allclose(design[:, solid].T, [1.0, 1.0, 0.0])
    assert np.allclose(design[:, void].T, [0.0, 0.0, 0.0])
    _, rho_bar, _ = model.physical_fields(design, 1.0)
    assert np.allclose(rho_bar[:, solid].T, [1.0, 1.0, 0.0])
    assert np.allclose(rho_bar[0, void], 0.0)


def test_constraint_values_all_ones(tiny_model):
    rho_bar = np.zeros((3, tiny_model.grid.nelem))
    rho_bar[0] = 1.0
    g = constraint_values(rho_bar, tiny_model)
    assert g[0] == pytest.approx(1.0 / 0.7 - 1.0, rel=1e-12)
    assert g[1] == pytest.approx(-1.0)
    assert g[2] == pytest.approx(-1.0)


def test_constraint_values_all_zero(tiny_model):
    g = constraint_values(np.zeros((3, tiny_model.grid.nelem)), tiny_model)
    assert np.allclose(g, -1.0)


def test_packer_gathers_a_stack_of_designs_in_row_order(tiny_spec):
    # a passive box leaves some elements out of the free variables
    spec = replace(tiny_spec, passive=problem.parse_problem(tiny_problem_dict(
        passive=[{"tag": "void", "box_m": [[0.004, 0.0], [0.006, 0.002]]}])).passive)
    model = Model(spec)
    packer = optimizer._DesignPacker(model)
    assert 0 < packer.free.size < model.grid.nelem
    stack = np.random.default_rng(2).uniform(size=(3, 3, model.grid.nelem))
    packed = packer.pack(stack)
    assert packed.flags.c_contiguous
    assert np.array_equal(packed, [design[:3, packer.free].ravel() for design in stack])
    assert np.array_equal(packer.unpack(packer.pack(stack[1]), stack[0])[:, packer.free],
                          stack[1][:, packer.free])


def test_model_volume_bounds_validation(tiny_spec):
    with pytest.raises(ConfigError, match="sum"):
        Model(replace(tiny_spec, volume_fractions=(0.5, 0.3, 0.3)))
    with pytest.raises(ConfigError, match="> 0"):
        Model(replace(tiny_spec, volume_fractions=(0.5, 0.0, 0.2)))
    bounds = Model(tiny_spec).volume_bounds
    assert bounds == pytest.approx((0.7, 0.2, 0.2))


def test_zero_max_iters_returns_initialization(tiny_spec):
    spec = replace(
        tiny_spec,
        optimizer=type(tiny_spec.optimizer)(max_iters=0, move_limit=0.2, change_tol=0.01)
    )
    model = Model(spec)
    result, recs = _run(model)
    assert not result.converged
    assert result.iterations == 0
    assert len(recs) == 0
    assert np.array_equal(result.design, initialize(model))


def test_move_limit_respected_in_history(tiny_model):
    for rec in _run(tiny_model)[1]:
        assert rec.change <= tiny_model.spec.optimizer.move_limit + 1e-12


def test_run_is_deterministic(tiny_spec):
    spec = replace(
        tiny_spec,
        optimizer=type(tiny_spec.optimizer)(max_iters=25, move_limit=0.2, change_tol=0.01)
    )
    r1, recs1 = _run(Model(spec))
    r2, recs2 = _run(Model(spec))
    assert np.array_equal(r1.design, r2.design)
    assert len(recs1) == len(recs2)
    for a, b in zip(recs1, recs2):
        assert (a.f, a.g, a.change, a.grayness, a.u_out, a.SE, a.E_t) == (
            b.f, b.g, b.change, b.grayness, b.u_out, b.SE, b.E_t
        )


def test_single_material_reduction_runs(tiny_spec):
    raw = tiny_problem_dict()
    raw["materials"] = {"E_pa": [1e6]}
    raw["volume_fractions"] = [0.3]
    raw["optimizer"] = {"max_iters": 40}
    model = Model(problem.parse_problem(raw))
    recs = _run(model)[1]
    assert len(recs) >= 10
    # classic single-channel pressure optimization still improves
    assert recs[-1].f < recs[0].f
    assert all(len(r.g) == 1 for r in recs)


def test_single_material_finger2d_improves_tenfold():
    spec = problem.load_problem("finger2d")
    spec = replace(
        spec,
        materials=type(spec.materials)(E=(1e6,), E_min=100.0, nu=0.3, penalty=3.0),
        volume_fractions=(0.3,),
        optimizer=type(spec.optimizer)(max_iters=60, move_limit=0.2, change_tol=0.01),
    )
    recs = _run(Model(spec))[1]
    assert recs[-1].f < recs[0].f
    assert abs(recs[-1].f) >= 10 * abs(recs[0].f)


def test_objective_monotone_modulo_continuation(tiny_spec):
    spec = replace(
        tiny_spec,
        optimizer=type(tiny_spec.optimizer)(max_iters=250, move_limit=0.2, change_tol=0.01)
    )
    recs = _run(Model(spec))[1]
    for i in range(len(recs) - 10):
        window = recs[i : i + 11]
        if any(r.beta != window[0].beta for r in window):
            continue  # continuation boundaries may bump the objective
        assert window[-1].f <= window[0].f + 1e-3 * abs(window[0].f)


def test_accepted_iterates_never_raise_objective_at_fixed_beta(tiny_spec):
    spec = replace(
        tiny_spec,
        optimizer=type(tiny_spec.optimizer)(max_iters=250, move_limit=0.2, change_tol=0.01)
    )
    fspec = spec.filter
    recs = _run(Model(spec))[1]
    assert recs[0].beta == fspec.beta_p_initial
    for prev, rec in zip(recs, recs[1:]):
        # each record carries the beta its f was evaluated at: beta doubles
        # only after a zero-change (stall) record or a scheduled iteration
        doubles = prev.change == 0.0 or prev.iteration % fspec.beta_p_double_every == 0
        expected = min(2.0 * prev.beta, fspec.beta_p_max) if doubles else prev.beta
        assert rec.beta == expected
        if rec.beta == prev.beta:
            assert rec.f <= prev.f


def test_design_kept_when_no_trial_is_accepted(tiny_model, monkeypatch):
    # with no trial allowed, every step is given up: the design stays at
    # its start and each zero-change record doubles beta, up to beta_max;
    # sharpening moves the start off the volume bounds, so it never converges
    monkeypatch.setattr(optimizer, "MAX_TRIALS", 0)
    result, recs = _run(tiny_model)
    assert np.array_equal(result.design, initialize(tiny_model))
    assert all(r.change == 0.0 for r in recs)
    assert [r.beta for r in recs[:6]] == [1.0, 2.0, 4.0, 8.0, 16.0, 16.0]
    assert len(recs) == tiny_model.spec.optimizer.max_iters
    assert not result.converged
    assert result.beta_final == tiny_model.spec.filter.beta_p_max


@pytest.mark.parametrize("case", ["tiny", "tiny-kept", "finger2d"])
def test_one_forward_solve_alive_at_a_time(case, tiny_model, monkeypatch):
    # no forward starts while an earlier one's displacement system is alive:
    # not a trial, not the solve after a beta doubling, not the re-solve of
    # a kept design ("tiny-kept": every step given up). The systems hold no
    # reference cycles, so each dies with its last reference.
    model = Model(problem.load_problem("finger2d", max_iters=42)) if case == "finger2d" else tiny_model
    if case == "tiny-kept":
        monkeypatch.setattr(optimizer, "MAX_TRIALS", 0)
    systems, late, real = [], [], Model.forward

    def forward(self, *args, **kwargs):
        late.append(any(ref() is not None for ref in systems))
        state = real(self, *args, **kwargs)
        systems.append(weakref.ref(state.disp.system))
        return state

    monkeypatch.setattr(Model, "forward", forward)
    result, recs = _run(model)
    assert len(late) > len(recs) / 2 and not any(late)
    assert result.beta_final > model.spec.filter.beta_p_initial  # past a doubling


def test_stalls_double_beta_without_a_step(monkeypatch):
    # with no scheduled doubling in reach, a loose change_tol makes every
    # doubling a stall's: the iteration after a small change records zero
    # change, computes no gradient and no MMA step, and doubles beta
    raw = tiny_problem_dict(optimizer={"max_iters": 150, "change_tol": 0.15},
                            filter={"beta_p_double_every": 1000})
    model = Model(problem.parse_problem(raw))
    calls = {"gradient": 0, "update": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(optimizer.adjoint, "total_gradient",
                        counted("gradient", optimizer.adjoint.total_gradient))
    monkeypatch.setattr(optimizer.MMA, "update", counted("update", optimizer.MMA.update))
    result, recs = _run(model)
    assert result.converged and result.beta_final == model.spec.filter.beta_p_max
    stalls = [i for i, r in enumerate(recs[:-1]) if r.change == 0.0]
    assert [recs[i].beta for i in stalls] == [1.0, 2.0, 4.0, 8.0]
    for i in stalls:
        assert 0.0 < recs[i - 1].change < 0.15
        assert recs[i + 1].beta == 2.0 * recs[i].beta
    # every record but the stalls and the converged last one took a step
    assert calls["gradient"] == calls["update"] == len(recs) - len(stalls) - 1


@pytest.mark.parametrize("phase", [
    "forward solve", "adjoint solve", "MMA update", "MMA conservative re-solve",
])
def test_solver_failure_names_its_iteration_and_phase(tiny_model, monkeypatch, phase):
    def fail(*args, **kwargs):
        raise SolveError("injected")

    target = {
        "forward solve": (Model, "forward"),
        "adjoint solve": (optimizer.adjoint, "total_gradient"),
        "MMA update": (optimizer.MMA, "update"),
        "MMA conservative re-solve": (optimizer.MMA, "conservative_step"),
    }[phase]
    monkeypatch.setattr(*target, fail)
    if phase == "MMA conservative re-solve":
        # each evaluation of f is far above the last, so the first trial
        # step is rejected
        real, evaluations = optimizer.adjoint.objective_value, iter(range(1000))
        monkeypatch.setattr(optimizer.adjoint, "objective_value",
                            lambda *a, **k: real(*a, **k) + 1e6 * next(evaluations))
    with pytest.raises(SolveError, match=f"^iteration 1, {phase}: injected$"):
        _run(tiny_model)


def test_auto_objective_scale_sets_the_first_f_to_minus_ten():
    # "auto" is the default: s = 10 / |f| at the first design with s = 1
    raw = tiny_problem_dict(objective={"s": "auto"}, optimizer={"max_iters": 1})
    spec = problem.parse_problem(raw)
    assert spec.objective == problem.parse_problem(tiny_problem_dict()).objective
    assert spec.objective.s is None
    result, recs = _run(Model(spec))
    assert recs[0].f == pytest.approx(-10.0, rel=1e-12)
    # the calibrated s, given as a number, reproduces that first f
    raw["objective"] = {"s": result.s}
    assert _run(Model(problem.parse_problem(raw)))[1][0].f == recs[0].f


def test_full_convergence_exit_state(tiny_spec):
    spec = replace(
        tiny_spec,
        optimizer=type(tiny_spec.optimizer)(max_iters=250, move_limit=0.2, change_tol=0.01)
    )
    model = Model(spec)
    result, recs = _run(model)
    assert result.converged
    last = recs[-1]
    assert max(last.g) <= 1e-6
    assert last.change < 0.01
    assert result.beta_final == spec.filter.beta_p_max


def _backward_error(a, x, b):
    """||b - A x|| / (||A||_1 ||x|| + ||b||), as the benchmark checks it."""
    a = sparse.csr_matrix(a)
    norm1 = np.abs(a).sum(axis=0).max()
    return np.linalg.norm(b - a @ x) / (norm1 * np.linalg.norm(x) + np.linalg.norm(b))


def test_refined_gripper3d_smoke(tmp_path):
    # gripper3d at twice the resolution: 48x24x24 elements, 91,875
    # displacement DOFs, four multigrid levels; impractical for sparse LU
    spec = problem.load_problem("gripper3d", max_iters=3)
    grid = replace(spec.grid, nel=tuple(2 * n for n in spec.grid.nel), h=spec.grid.h / 2)
    spec = replace(spec, grid=grid)
    runner.optimize_problem(spec, tmp_path)
    with open(tmp_path / "history.csv", newline="") as fh:
        f = [float(row["f"]) for row in csv.DictReader(fh)]
    assert len(f) == 3 and f[-1] < f[0]

    model = Model(spec)
    assert model.grid.n_disp_dofs == 91_875
    state = model.forward(io.load_design(tmp_path / "design.json")[1])
    assert len(state.disp.system.lu.v_cycle.levels) == 3

    p, flow = state.pressure.p, model.flow_reduction
    a_f = sparse.csr_matrix(state.flow.A)[flow.free]
    b = -(a_f[:, flow.fixed] @ p[flow.fixed])
    assert _backward_error(a_f[:, flow.free], p[flow.free], b) <= linalg.RESIDUAL_TOL
    u, free = state.disp.u, model.elastic_reduction.free
    assert np.all(u[model.fixed_u_dofs] == 0.0)
    k = sparse.csr_matrix(state.k_struct + state.k_out * model.spring_unit)[free][:, free]
    assert _backward_error(k, u[free], state.force[free]) <= linalg.RESIDUAL_TOL


def test_odd_gripper3d_runs_on_multigrid(tmp_path):
    # gripper3d stretched along x to 25x12x12 elements: the odd axis coarsens
    # to 13 and 7 elements, each ending one element past the grid
    raw = json.loads(problem.fixture_path("gripper3d").read_text())
    nel = (25, 12, 12)
    stretch = [m / n for m, n in zip(nel, raw["grid"]["nel"])]
    raw["grid"]["nel"] = list(nel)
    for region in raw["regions"]:
        region["box_m"] = [[v * s for v, s in zip(corner, stretch)] for corner in region["box_m"]]
    raw["optimizer"]["max_iters"] = 2
    spec = problem.parse_problem(raw)
    runner.optimize_problem(spec, tmp_path)
    with open(tmp_path / "history.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2

    model = Model(spec)
    state = model.forward(io.load_design(tmp_path / "design.json")[1])
    assert isinstance(state.pressure.system.lu, linalg.MultigridCG)
    assert isinstance(state.disp.system.lu, linalg.MultigridCG)
    assert len(state.disp.system.lu.v_cycle.levels) == 2
    free = model.elastic_reduction.free
    k = sparse.csr_matrix(state.k_struct + state.k_out * model.spring_unit)[free][:, free]
    band = linalg.BandMap(k.indptr, k.indices).band(k.data)
    u_lu = linalg.FactorizedSystem(
        k, context="test system", inverse=lambda s: linalg.BandedCholesky(band, s.context),
        norm=linalg._norm1(k),
    ).solve(state.force[free])
    assert model.l_out[free] @ u_lu == pytest.approx(state.metrics.u_out, rel=1e-8, abs=0)


def test_iteration_log_formats_g_only_when_info_is_on(tiny_spec, monkeypatch, caplog):
    # an iteration's INFO line formats g by array2string, which cost as much
    # as the rest of a record: at the WARNING level nothing is formatted, and
    # at INFO each line reads as the records it reports
    spec = replace(tiny_spec, optimizer=replace(tiny_spec.optimizer, max_iters=3))
    calls, real = [], np.array2string

    def counting(a, *args, **kwargs):
        calls.append(1)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "array2string", counting)
    caplog.set_level(logging.WARNING, logger="pneumotop.optimizer")
    _run(Model(spec))
    assert calls == []
    caplog.set_level(logging.INFO, logger="pneumotop.optimizer")
    _, records = _run(Model(spec))
    lines = [r.getMessage() for r in caplog.records if " f=" in r.getMessage()]
    assert len(records) == 3 and len(calls) == 3
    assert lines == [
        "iter %d: f=%.5g g=%s change=%.4f gray=%.3f beta=%g" % (
            rec.iteration, rec.f, real(np.array(rec.g), precision=3), rec.change,
            rec.grayness, rec.beta)
        for rec in records
    ]
