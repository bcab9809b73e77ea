"""Run orchestration: optimization runs, fixed-design evaluations, exports.

These functions own artifact layout. An optimization run writes, atomically:
``design.json`` (final physical densities), ``design_sealed.json`` when a
heuristic skin is applied, ``history.csv``, ``fields.vtk``, ``summary.json``.
"""
from __future__ import annotations

import logging
import math
import numbers
import time
from pathlib import Path

import numpy as np

from . import adjoint, closure, filtering, io, optimizer
from .errors import ConfigError
from .model import Model
from .problem import ProblemSpec, load_problem

log = logging.getLogger(__name__)

EXIT_CONVERGED = 0
EXIT_MAX_ITERS = 2
EXIT_CONFIG_ERROR = 3
EXIT_SOLVE_ERROR = 4

DEFAULT_SWEEP = tuple(float(v) for v in np.logspace(-1.0, 3.0, 9))


def optimize_problem(spec: ProblemSpec, out_dir) -> dict:
    """Run one optimization and write all artifacts; returns the summary dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    model = Model(spec)

    history_writer = io.HistoryWriter(out / "history.csv")
    try:
        result = optimizer.run(model, sink=history_writer)
    except BaseException:
        history_writer.abort()
        raise
    history_writer.close()

    state = result.state
    rho_bar = state.rho_bar
    g = optimizer.constraint_values(rho_bar, model)
    f = (
        adjoint.objective_value(state.metrics, spec.objective, s=result.s)
        if np.isfinite(result.s)
        else None
    )

    io.save_design(out / "design.json", spec.grid, rho_bar, note=spec.name)
    _export_fields(out / "fields.vtk", model, state)

    seal = model.seal_report(rho_bar)
    sealed_design_path = None
    if spec.closure.mode == "heuristic":
        pattern = model.mats.solid_pattern(1)
        sealed, n_added = closure.heuristic_skin(
            rho_bar, state.pressure.p, model.grid, spec.flow, pattern
        )
        seal = model.seal_report(sealed, added=n_added)
        sealed_design_path = out / "design_sealed.json"
        io.save_design(sealed_design_path, spec.grid, sealed, note=f"{spec.name} sealed")

    summary = {
        "name": spec.name,
        "converged": result.converged,
        "iterations": result.iterations,
        "exit_code": EXIT_CONVERGED if result.converged else EXIT_MAX_ITERS,
        "objective": f,
        "objective_scale_s": result.s if np.isfinite(result.s) else None,
        "constraints": [float(v) for v in g],
        "grayness": filtering.grayness(rho_bar[0]),
        "u_out_m": state.metrics.u_out,
        "SE_j": state.metrics.SE,
        "W_j": state.metrics.W,
        "E_t": state.metrics.E_t,
        "seal": seal.to_dict(),
        "closure_mode": spec.closure.mode,
        "design": str(out / "design.json"),
        "design_sealed": str(sealed_design_path) if sealed_design_path else None,
        "history_csv": str(out / "history.csv"),
        "wall_time_s": time.perf_counter() - t0,
    }
    io.write_summary(out / "summary.json", summary)
    return summary


def _export_fields(path, model: Model, state):
    labels = io.dominant_material_labels(state.rho_bar, model.mats.n_materials)
    u = state.disp.u.reshape(-1, model.grid.dim)
    io.export_vtk(
        path,
        model.grid,
        cell_data={
            "rho1": state.rho_bar[0],
            "rho2": state.rho_bar[1],
            "rho3": state.rho_bar[2],
            "modulus": state.e_field,
            "material": labels,
        },
        point_data={"pressure": state.pressure.p, "displacement": u},
    )


def _load_matching(design_path, problem_path) -> tuple[ProblemSpec, np.ndarray]:
    """The problem spec and the design's densities, checked to share one grid."""
    spec = load_problem(problem_path)
    design_grid, rho_bar = io.load_design(design_path)
    same_lattice = (design_grid.dim, design_grid.nel) == (spec.grid.dim, spec.grid.nel)
    if not same_lattice or abs(design_grid.h - spec.grid.h) > 1e-12 * spec.grid.h:
        raise ConfigError(
            f"design grid {design_grid.dim}D {design_grid.nel} h={design_grid.h} "
            f"does not match problem grid {spec.grid.dim}D {spec.grid.nel} "
            f"h={spec.grid.h}"
        )
    return spec, rho_bar


def sweep_stiffnesses(sweep, name: str = "sweep") -> list[float]:
    """A sweep's spring stiffnesses: DEFAULT_SWEEP for None, else a
    non-empty, strictly increasing list of finite numbers > 0."""
    if sweep is None:
        return list(DEFAULT_SWEEP)
    if not (isinstance(sweep, (list, tuple, np.ndarray)) and len(sweep) > 0 and all(
            isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v) and v > 0 for v in sweep)):
        raise ConfigError(f"{name} needs stiffnesses that are finite and > 0, got {sweep!r}")
    if any(b <= a for a, b in zip(sweep, sweep[1:])):
        raise ConfigError(f"{name} stiffnesses must be strictly increasing: {sweep!r}")
    return [float(v) for v in sweep]


def evaluate_design(design_path, problem_path, sweep=None) -> list[dict]:
    """Forward-solve a fixed design across a spring-stiffness sweep.

    Returns one metrics row per stiffness, in ascending k_out order, from
    one flow solve and one factorization (``Model.sweep``). The pressure
    problem does not see the springs, so E_t is constant across the sweep.
    """
    sweep = sweep_stiffnesses(sweep)
    spec, rho_bar = _load_matching(design_path, problem_path)
    return [
        {"k_out": k, "u_out": m.u_out, "SE": m.SE, "W": m.W, "E_t": m.E_t}
        for k, m in zip(sweep, Model(spec).sweep(rho_bar, sweep))
    ]


def seal_check_design(design_path, problem_path) -> closure.SealReport:
    spec, rho_bar = _load_matching(design_path, problem_path)
    return Model(spec).seal_report(rho_bar)


def export_design_fields(design_path, problem_path, out_path) -> Path:
    """Solve a fixed design once and export all fields as legacy VTK."""
    spec, rho_bar = _load_matching(design_path, problem_path)
    model = Model(spec)
    state = model.forward(rho_bar)
    _export_fields(Path(out_path), model, state)
    return Path(out_path)
