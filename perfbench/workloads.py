"""The benchmark workloads: seeded inputs, one timed operation, output checks.

Every workload drives the package through its public entry points only
(``problem.load_problem``, ``model.Model``, ``runner.optimize_problem``,
``runner.evaluate_design``). The seed perturbs nothing but the fixtures'
volume fractions and the sweep's stiffness points, and the package sees only
the problem and design files generated here.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans
import speed
import stats
from pneumotop import (
    adjoint, closure, darcy, elasticity, filtering, io, linalg, mma, optimizer,
    problem, runner,
)
from pneumotop.fixtures import make_pneunet2d_design
from pneumotop.model import Model

# One probe-free clock for the whole process; see speed.py.
SPEED = speed.Speed()
clock = SPEED.clock

VF_JITTER = 0.005          # absolute, per volume fraction
K_JITTER = 0.1             # relative, log-uniform, per sweep stiffness
SWEEP_BASE = tuple(float(v) for v in np.logspace(-1.0, 3.0, 9))
FD_STEP = 1e-4
FD_DIRECTION_SEED = 20221125  # fixed: the FD check must not vary with --seed


@dataclass
class Inputs:
    problem_path: Path
    describe: dict
    design_path: Path | None = None
    sweep: tuple = ()


@dataclass
class OpResult:
    span: tuple   # (start, end) of the whole operation on ``clock``
    steps: list   # (start, end) of each step on ``clock``
    out_dir: Path
    bytes_written: int
    output: object = None


@dataclass
class Workload:
    name: str
    why: str
    fixture: str
    step: str  # what one step_ms sample is
    # Fewest step samples a run collects; fixes the tail percentile, so
    # that it does not move between runs or commits with the op count.
    min_steps: int
    seed_stream: int

    @property
    def tail_p(self) -> float:
        return stats.tail_percentile(self.min_steps)

    def _write_problem(self, work: Path, edit=None):
        """The fixture's problem file, optionally edited, written to ``work``."""
        raw = json.loads(problem.fixture_path(self.fixture).read_text())
        if edit:
            edit(raw)
        path = work / f"{self.fixture}.problem.json"
        path.write_text(json.dumps(raw))
        return raw, path

    def setup(self, inp: Inputs):
        """What a user pays before the first operation; returns (spec, model, rho)."""
        spec = problem.load_problem(inp.problem_path)
        model = Model(spec)
        rho = io.load_design(inp.design_path)[1] if inp.design_path else None
        return spec, model, rho

    def check_solves(self, model: Model, state) -> list[str]:
        return (checks.check_flow_solve(model, state, linalg.RESIDUAL_TOL)
                + checks.check_elastic_solve(model, state, linalg.RESIDUAL_TOL))


@dataclass
class OptimizeWorkload(Workload):
    """A fixed number of ``optimize_problem`` iterations from a fixture."""

    iterations: int = 0
    closure: str = "none"

    def make_inputs(self, seed: int, work: Path) -> Inputs:
        rng = np.random.default_rng([seed, self.seed_stream])

        def edit(raw):
            raw["volume_fractions"] = [
                v + float(rng.uniform(-VF_JITTER, VF_JITTER))
                for v in raw["volume_fractions"]
            ]
            raw["optimizer"]["max_iters"] = self.iterations
            raw["closure"] = {"mode": self.closure}

        raw, path = self._write_problem(work, edit)
        return Inputs(path, {"fixture": self.fixture,
                             "volume_fractions": raw["volume_fractions"],
                             "max_iters": self.iterations, "closure": self.closure})

    def run_op(self, inp: Inputs, spec, out_dir: Path, tracer,
               sink_times) -> OpResult:
        sink_times.clear()
        with tracer:
            t0 = clock()
            summary = runner.optimize_problem(spec, out_dir)
            t1 = clock()
        return OpResult((t0, t1), list(zip(sink_times, sink_times[1:])), out_dir,
                        _bytes_written(out_dir), summary)

    def check(self, inp: Inputs, model: Model, rho, ops) -> list[str]:
        fails = []
        for i, op in enumerate(ops):
            label = f"{self.name} op {i}"
            fails += _check_artifacts(op.out_dir, self.closure, label)
            with open(op.out_dir / "history.csv", newline="") as fh:
                f_hist = [row["f"] for row in csv.DictReader(fh)]
            if len(f_hist) != self.iterations:
                fails.append(f"{label}: {len(f_hist)} history rows, "
                             f"expected {self.iterations}")
            fails += checks.check_objective_improved(f_hist, label)
        final = io.load_design(ops[-1].out_dir / "design.json")[1]
        return fails + self.check_solves(model, model.forward(final))


@dataclass
class SweepWorkload(Workload):
    """``evaluate_design`` of the hand-built pneunet over nine stiffnesses."""

    def make_inputs(self, seed: int, work: Path) -> Inputs:
        rng = np.random.default_rng([seed, self.seed_stream])
        _, path = self._write_problem(work)
        grid_spec, rho = make_pneunet2d_design()
        design_path = work / f"{self.fixture}.design.json"
        io.save_design(design_path, grid_spec, rho, note="pneunet benchmark design")
        factors = np.exp(rng.uniform(-K_JITTER, K_JITTER, len(SWEEP_BASE)))
        sweep = tuple(float(k * f) for k, f in zip(SWEEP_BASE, factors))
        return Inputs(path, {"fixture": self.fixture, "sweep": list(sweep)},
                      design_path, sweep)

    def run_op(self, inp: Inputs, spec, out_dir: Path, tracer,
               sink_times) -> OpResult:
        with tracer:
            t0 = clock()
            rows = runner.evaluate_design(inp.design_path, inp.problem_path,
                                          sweep=inp.sweep)
            t1 = clock()
            io.write_metrics_csv(out_dir / "evaluation.csv", rows)
            t2 = clock()
        return OpResult((t0, t2), [(t0, t1)], out_dir, _bytes_written(out_dir), rows)

    def check(self, inp: Inputs, model: Model, rho, ops) -> list[str]:
        fails = [f for op in ops for f in checks.check_sweep(op.output, inp.sweep)]
        return fails + self.check_solves(model, model.forward(rho, k_out=inp.sweep[-1]))


def _bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def _check_artifacts(out: Path, closure_mode: str, label: str) -> list[str]:
    names = ["design.json", "history.csv", "fields.vtk", "summary.json"]
    if closure_mode == "heuristic":
        names.append("design_sealed.json")
    return [f"{label}: artifact {n} missing or empty" for n in names
            if not (out / n).is_file() or (out / n).stat().st_size == 0]


WORKLOADS = {
    w.name: w
    for w in (
        OptimizeWorkload(
            name="finger2d-opt",
            why="2-D, MMA-bound optimize loop (50 iterations, heuristic closure) "
                "that crosses the first beta doubling and writes every artifact; "
                "2-D keeps LU",
            fixture="finger2d", step="optimizer iteration", min_steps=100,
            seed_stream=1, iterations=50, closure="heuristic",
        ),
        OptimizeWorkload(
            name="gripper3d-opt",
            why="3-D optimize loop (3 iterations, no closure) where the elastic "
                "sparse LU takes most of the time and memory and MMA about 2%",
            fixture="gripper3d", step="optimizer iteration", min_steps=3,
            seed_stream=2, iterations=3,
        ),
        SweepWorkload(
            name="pneunet-sweep",
            why="forward-only 9-point spring sweep of the hand-built pneunet "
                "design: many factorizations of near-identical 2-D matrices, no "
                "adjoint, no MMA",
            fixture="pneunet2d", step="evaluate_design call", min_steps=10,
            seed_stream=3,
        ),
    )
}


# ---- the adjoint finite-difference check --------------------------------------

def fd_check() -> list[str]:
    """Directional FD check of adjoint.total_gradient at the initial finger2d design."""
    spec = problem.load_problem("finger2d")
    model = Model(spec)
    beta = spec.filter.beta_p_initial
    x0 = optimizer.initialize(model)

    def state_at(x):
        _, rho_bar, dproj = model.physical_fields(x, beta)
        return model.forward(rho_bar), dproj

    state, dproj = state_at(x0)
    s = 10.0 / abs(adjoint.objective_value(state.metrics, spec.objective, s=1.0))
    _, grad = adjoint.total_gradient(model, state, spec.objective, s, dproj)

    rng = np.random.default_rng(FD_DIRECTION_SEED)
    d = np.zeros_like(x0)
    n_ch = model.mats.n_channels
    d[:n_ch, model.free_elems] = rng.uniform(-1.0, 1.0, (n_ch, model.free_elems.size))

    def f_at(x):
        return adjoint.objective_value(state_at(x)[0].metrics, spec.objective, s=s)

    fd = (f_at(x0 + FD_STEP * d) - f_at(x0 - FD_STEP * d)) / (2.0 * FD_STEP)
    return checks.check_directional_fd(float(np.sum(grad * d)), fd)


# ---- tracing ------------------------------------------------------------------

def sink_tracer(sink_times: list) -> spans.Tracer:
    """For untraced runs: the optimizer's sink, timestamped at each
    HistoryWriter record, and a speed probe after every forward solve, so
    that every step has probes close to it."""
    t = spans.Tracer(clock)
    _wrap_sink(t, sink_times)
    t.wrap(Model, "forward", "model.forward", on_exit=lambda *_: SPEED.probe())
    return t


def _wrap_sink(t: spans.Tracer, sink_times: list):
    def stamp(span, *_):
        sink_times.append(span.end)

    t.wrap(io.HistoryWriter, "__init__", "io.history", on_exit=stamp)
    t.wrap(io.HistoryWriter, "__call__", "io.history", on_exit=stamp)
    t.wrap(io.HistoryWriter, "close", "io.history")


def _factor_context(args, kwargs) -> str:
    ctx = kwargs.get("context", args[3] if len(args) > 3 else "")
    for key in ("pressure", "displacement"):
        if key in ctx:
            return f"linalg.factor.{key}"
    return "linalg.factor.other"


def layer_tracer(sink_times: list, fills: list) -> spans.Tracer:
    """Spans around the calls into every module the layer metrics name.

    ``MMA.update`` and ``FactorizedSystem`` are wrapped on the class because
    their callers import the names directly; functions imported by name
    into another module are wrapped in that module too.
    """
    def record_fill(span, args, kwargs, result):
        fs = args[0]
        fills.append((span.name.rsplit(".", 1)[1], fs.a.shape[0], fs.lu.nnz))

    t = spans.Tracer(clock)
    (t.wrap(problem, "load_problem", "problem.load")
      .wrap(runner, "load_problem", "problem.load")
      .wrap(Model, "__init__", "model.init")
      .wrap(Model, "forward", "model.forward")
      .wrap(Model, "physical_fields", "filtering.project")
      .wrap(Model, "seal_report", "closure.seal_check")
      .wrap(filtering, "chain_sensitivities", "filtering.chain")
      .wrap(adjoint, "chain_sensitivities", "filtering.chain")
      .wrap(darcy.FlowAssembler, "assemble", "darcy.assemble")
      .wrap(darcy, "solve_pressure", "darcy.solve")
      .wrap(elasticity.ElasticAssembler, "assemble", "elasticity.assemble")
      .wrap(elasticity, "solve_displacement", "elasticity.solve")
      .wrap(linalg.FactorizedSystem, "__init__", _factor_context, on_exit=record_fill)
      .wrap(linalg.FactorizedSystem, "solve", "linalg.solve")
      .wrap(adjoint, "total_gradient", "adjoint.gradient")
      .wrap(adjoint, "solve_adjoints", "adjoint.solves")
      .wrap(mma.MMA, "update", "mma.update")
      .wrap(optimizer, "run", "optimizer")
      .wrap(runner, "optimize_problem", "runner")
      .wrap(runner, "evaluate_design", "runner")
      .wrap(closure, "heuristic_skin", "closure.skin")
      .wrap(io, "save_design", "io.save_design")
      .wrap(io, "export_vtk", "io.export_vtk")
      .wrap(io, "load_design", "io.load_design"))
    _wrap_sink(t, sink_times)
    return t
