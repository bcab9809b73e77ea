"""Each output check passes a correct result and rejects a corrupted one."""
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

import checks
from pneumotop import linalg, optimizer, problem
from pneumotop.model import Model

TOL = linalg.RESIDUAL_TOL


def test_backward_error_rejects_a_perturbed_solution():
    a = sparse.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(50, 50)).tocsr()
    x = np.linspace(1.0, 2.0, 50)
    b = a @ x
    assert checks.check_backward_error("s", a, x, b, TOL) == []
    bad = x.copy()
    bad[7] *= 1.0 + 1e-6
    assert checks.check_backward_error("s", a, bad, b, TOL)
    bad[7] = np.nan
    assert checks.check_backward_error("s", a, bad, b, TOL)


@pytest.fixture(scope="module")
def solved():
    model = Model(problem.load_problem("finger2d"))
    _, rho_bar, _ = model.physical_fields(optimizer.initialize(model), 1.0)
    return model, model.forward(rho_bar)


def test_solve_checks_pass_the_package_solution(solved):
    model, state = solved
    assert checks.check_flow_solve(model, state, TOL) == []
    assert checks.check_elastic_solve(model, state, TOL) == []


def _free(n, fixed):
    return np.setdiff1d(np.arange(n), fixed)


def _with_pressure(state):
    return replace(state, pressure=replace(state.pressure, p=state.pressure.p.copy()))


def _with_displacement(state):
    return replace(state, disp=replace(state.disp, u=state.disp.u.copy()))


def test_flow_check_rejects_corrupted_pressure(solved):
    model, state = solved
    bad = _with_pressure(state)
    free = _free(bad.pressure.p.size,
                 np.concatenate([model.inlet_nodes, model.drain_nodes]))
    bad.pressure.p[free] *= 1.0 + 1e-6
    assert checks.check_flow_solve(model, bad, TOL)
    bad = _with_pressure(state)
    bad.pressure.p[model.inlet_nodes[0]] = 0.0
    assert checks.check_flow_solve(model, bad, TOL)


def test_elastic_check_rejects_corrupted_displacement(solved):
    model, state = solved
    bad = _with_displacement(state)
    free = _free(bad.disp.u.size, model.fixed_u_dofs)
    bad.disp.u[free] += 1e-6 * np.abs(bad.disp.u).max()
    assert checks.check_elastic_solve(model, bad, TOL)
    bad = _with_displacement(state)
    bad.disp.u[model.fixed_u_dofs[0]] = 1e-9
    assert checks.check_elastic_solve(model, bad, TOL)


def test_objective_check():
    assert checks.check_objective_improved([10.0, -50.0, -100.0], "w") == []
    assert checks.check_objective_improved([10.0, -50.0, -99.0], "w")
    assert checks.check_objective_improved([-10.0, -99.0], "w")
    assert checks.check_objective_improved([-10.0, 100.0], "w")
    assert checks.check_objective_improved([10.0], "w")


def test_fd_check():
    assert checks.check_directional_fd(1.234567, 1.234568) == []
    assert checks.check_directional_fd(1.234567, 1.2347)
    assert checks.check_directional_fd(-1.0, 1.0)
    assert checks.check_directional_fd(float("nan"), 1.0)
    assert checks.check_directional_fd(0.0, 0.0)


def _rows(sweep):
    u = 1.0 / (1.0 + np.asarray(sweep))
    return [{"k_out": k, "u_out": float(v), "SE": 1.0, "W": 0.5 * k * v**2,
             "E_t": 7.0} for k, v in zip(sweep, u)]


def test_sweep_check():
    sweep = (0.1, 1.0, 10.0, 100.0)
    assert checks.check_sweep(_rows(sweep), sweep) == []
    assert checks.check_sweep(_rows(sweep)[:-1], sweep)
    assert checks.check_sweep(_rows((0.1, 1.0, 10.0, 101.0)), sweep)
    rows = _rows(sweep)
    rows[2]["E_t"] = 7.001
    assert checks.check_sweep(rows, sweep)
    rows = _rows(sweep)
    rows[1]["u_out"], rows[2]["u_out"] = rows[2]["u_out"], rows[1]["u_out"]
    assert checks.check_sweep(rows, sweep)
    rows = _rows(sweep)
    rows[3]["W"] *= 1.001
    assert checks.check_sweep(rows, sweep)
