"""Outer optimization loop: forward solves, sensitivities, MMA updates.

Each iteration maps design to physical densities, solves both physics,
evaluates the objective and the per-channel volume constraints, and asks MMA
for the next design, with a move limit that shrinks as beta grows.
Convergence requires a small design change, satisfied constraints, and a
fully sharpened projection.

The projection sharpness beta follows one continuation rule: an iteration
with zero design change doubles beta, up to ``beta_p_max``, and restarts the
stall count. That is a stall (the previous change below ``change_tol``),
which takes no gradient or MMA step, or an MMA step that did not move. Every
``beta_p_double_every``-th iteration also doubles beta but leaves the stall
count alone.

At a fixed projection sharpness the accepted iterates never raise the
objective: a step whose forward solve gives a higher f is rejected and
re-solved from the same point with a more conservative MMA approximation,
the inner loop of GCMMA (Svanberg 2002). Rejected steps leave no record.
The loop holds one forward solve at a time: it drops an iteration's solve
before its trials, so a design kept after rejected trials is solved again.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import adjoint, filtering
from .errors import SolveError
from .filtering import ProjectionParams
from .mma import MMA
from .model import Model, State

log = logging.getLogger(__name__)

FEASIBILITY_TOL = 1e-6
# Constraints handed to MMA are shifted by this margin so converged designs
# land strictly inside the true feasible set despite the convex-approximation
# error of the final steps.
FEASIBILITY_SHIFT = 1e-5
# Trial steps an iteration may reject before it keeps its design instead.
MAX_TRIALS = 10


@dataclass
class IterationRecord:
    iteration: int
    f: float
    g: tuple
    change: float
    grayness: float
    u_out: float
    SE: float
    E_t: float
    beta: float


@dataclass
class RunResult:
    """Where a run ended; its IterationRecords went to the run's sink."""

    design: np.ndarray  # raw design variables, (3, nelem)
    converged: bool
    iterations: int
    s: float
    beta_final: float
    state: State  # forward solve of ``design`` at ``beta_final``


def initialize(model: Model) -> np.ndarray:
    """Uniform start whose physical densities equal the volume targets.

    The topology channel starts at the total allowed fraction so the first
    volume constraint begins active; selector channels start at their own
    fractions. Values are pre-images under the initial projection, making
    every constraint exactly active at iteration one.
    """
    params = ProjectionParams(
        beta=model.spec.filter.beta_p_initial, eta=model.proj_eta
    )
    design = np.zeros((3, model.grid.nelem))
    for ch in range(model.mats.n_channels):
        design[ch, :] = filtering.invert_projection(model.volume_bounds[ch], params)
    if model.passive_elems.size:
        design[:, model.passive_elems] = model.passive_pattern[:, model.passive_elems]
    return design


def constraint_values(rho_bar: np.ndarray, model: Model) -> np.ndarray:
    """Normalized volume constraints g_k <= 0, one per active channel."""
    total = model.volumes.sum()
    g = np.empty(len(model.volume_bounds))
    for ch, bound in enumerate(model.volume_bounds):
        g[ch] = (model.volumes @ rho_bar[ch]) / (bound * total) - 1.0
    return g


def constraint_gradients(model: Model, dproj: np.ndarray) -> np.ndarray:
    """d g_k / d design, shape (n_con, 3, nelem). Constraint k depends on
    channel k alone, so one filter product chains every row."""
    total = model.volumes.sum()
    n_con = len(model.volume_bounds)
    dg_bar = np.zeros((3, model.grid.nelem))
    for ch, bound in enumerate(model.volume_bounds):
        dg_bar[ch] = model.volumes / (bound * total)
    chained = filtering.chain_sensitivities(dg_bar, dproj, model.kernel_t)
    dg = np.zeros((n_con, 3, model.grid.nelem))
    dg[np.arange(n_con), np.arange(n_con)] = chained[:n_con]
    return dg


class _DesignPacker:
    """Maps (3, nelem) design arrays to the free-variable vector MMA sees."""

    def __init__(self, model: Model):
        self.free = model.free_elems
        self.n_ch = model.mats.n_channels

    def pack(self, design: np.ndarray) -> np.ndarray:
        """The free variables of a (3, nelem) design, or one row of them for
        each of a stack of designs (k, 3, nelem), in one gather whose result
        is already in row order."""
        free = np.take(design[..., : self.n_ch, :], self.free, axis=-1)
        return free.reshape(*design.shape[:-2], -1)

    def unpack(self, x: np.ndarray, template: np.ndarray) -> np.ndarray:
        design = template.copy()
        design[: self.n_ch, self.free] = x.reshape(self.n_ch, -1)
        return design


def run(model: Model, sink) -> RunResult:
    """Drive the optimization to convergence or the iteration limit.

    ``sink`` receives each IterationRecord as it is produced; the run keeps
    none of them.

    Accepted iterates never raise the objective at a fixed projection
    sharpness: when the MMA step of an iteration ends at a design whose
    forward solve gives a higher f than the design it started from, and
    the next iteration would evaluate it at the same beta, the step is
    rejected and re-solved more conservatively (``MMA.conservative_step``)
    until f does not rise. A rejected trial costs one forward solve and one
    subproblem solve, no adjoint, and produces no IterationRecord. If
    ``MAX_TRIALS`` trials in a row are rejected, the design is kept and
    solved again at the next iteration (the same solve, bit for bit): no
    forward solve starts while another is held.

    Every record carries the beta its f was evaluated at; beta follows the
    continuation rule of the module docstring.
    """
    settings = model.spec.optimizer
    fspec = model.spec.filter
    packer = _DesignPacker(model)
    mma = MMA()

    design = initialize(model)
    beta = fspec.beta_p_initial
    s = model.spec.objective.s
    converged = False
    prev_change = np.inf
    it = 0
    evaluated = None  # (rho_bar, dproj, state) of ``design`` at ``beta``, once solved

    while it < settings.max_iters:
        it += 1
        if evaluated is None:
            evaluated = _evaluate(model, design, beta, it)
        rho_bar, dproj, state = evaluated

        if s is None:
            raw = adjoint.objective_value(state.metrics, model.spec.objective, s=1.0)
            s = 10.0 / max(abs(raw), 1e-300)
        f = adjoint.objective_value(state.metrics, model.spec.objective, s=s)
        g = constraint_values(rho_bar, model)
        record_of = _record(it, f, g, state, beta)  # a function of the change
        del state  # ``evaluated`` alone holds the solve, so dropping it frees it
        feasible = bool(np.all(g <= FEASIBILITY_TOL))
        stalled = prev_change < settings.change_tol
        sharpenable = beta < fspec.beta_p_max
        scheduled = sharpenable and it % fspec.beta_p_double_every == 0

        if stalled and feasible and not sharpenable:
            sink(record_of(prev_change))
            converged = True
            break

        x = x_new = packer.pack(design)
        if not (stalled and sharpenable):  # a stall takes no step
            try:
                # f stays objective_value's, the function trial steps are
                # compared with, so that recorded f never rises at one beta
                _, df_drho = adjoint.total_gradient(
                    model, evaluated[2], model.spec.objective, s, dproj
                )
            except SolveError as exc:
                raise SolveError(f"iteration {it}, adjoint solve: {exc}") from exc

            df_x = packer.pack(df_drho)
            dg_x = packer.pack(constraint_gradients(model, dproj))

            # Shrink steps as the projection sharpens: full moves across the
            # steep transition band alias into 2-cycles that never settle.
            move = settings.move_limit * (fspec.beta_p_initial / beta) ** 0.5
            move = max(move, min(0.05, settings.move_limit))
            try:
                x_new = mma.update(x, df_x, g + FEASIBILITY_SHIFT, dg_x, move=move)
            except SolveError as exc:
                raise SolveError(f"iteration {it}, MMA update: {exc}") from exc

            if not scheduled and np.any(x_new != x):
                evaluated = None  # a trial's solve starts with none alive
                x_new, evaluated = _descend(model, mma, packer, design, x, x_new, f, s, beta, it)

        change = float(np.max(np.abs(x_new - x))) if x.size else 0.0
        sink(rec := record_of(change))
        if log.isEnabledFor(logging.INFO):  # formatting g costs more than a record
            log.info("iter %d: f=%.5g g=%s change=%.4f gray=%.3f beta=%g",
                     it, f, np.array2string(g, precision=3), change, rec.grayness, beta)
        design = packer.unpack(x_new, design)

        # The continuation rule: a zero design change below beta_p_max doubles
        # beta and restarts the stall count; a scheduled doubling leaves it.
        prev_change = np.inf if change == 0.0 and sharpenable else change
        if sharpenable and (change == 0.0 or scheduled):
            reason = "stalled" if stalled else "no step taken" if change == 0.0 else "scheduled"
            beta = min(beta * 2.0, fspec.beta_p_max)
            log.info("iter %d: %s, sharpening projection to beta=%g", it, reason, beta)
            evaluated = None

    if evaluated is None:
        evaluated = _evaluate(model, design, beta, it)
    return RunResult(
        design=design,
        converged=converged,
        iterations=it,
        s=s if s is not None else float("nan"),
        beta_final=beta,
        state=evaluated[2],
    )


def _evaluate(model: Model, design, beta, it):
    """Physical fields and forward solve of ``design``: (rho_bar, dproj, state)."""
    try:
        _, rho_bar, dproj = model.physical_fields(design, beta)
        return rho_bar, dproj, model.forward(rho_bar)
    except SolveError as exc:
        raise SolveError(f"iteration {it}, forward solve: {exc}") from exc


def _descend(model, mma, packer, design, x, x_new, f, s, beta, it):
    """The first trial step from ``x`` that does not raise f at ``beta``.

    Returns the accepted point and its evaluation; after ``MAX_TRIALS``
    rejected trials, ``x`` itself and None: the kept design is solved again.
    """
    for trial in range(1, MAX_TRIALS + 1):
        candidate = _evaluate(model, packer.unpack(x_new, design), beta, it)
        f_new = adjoint.objective_value(candidate[2].metrics, model.spec.objective, s=s)
        if f_new <= f:
            return x_new, candidate
        candidate = None  # free its solve before the next trial's
        log.info("iter %d: trial %d raised f to %.8g from %.8g, re-solving "
                 "more conservatively", it, trial, f_new, f)
        try:
            x_new = mma.conservative_step(x_new, f_new - f)
        except SolveError as exc:
            raise SolveError(f"iteration {it}, MMA conservative re-solve: {exc}") from exc
    log.warning("iter %d: no step of %d lowered f; keeping the design", it, MAX_TRIALS)
    return x, None


def _record(it, f, g, state: State, beta):
    """The IterationRecord of ``state`` as a function of the iteration's
    design change, holding what it needs of the state but not the state."""
    fields = dict(
        iteration=it,
        f=float(f),
        g=tuple(float(v) for v in g),
        grayness=filtering.grayness(state.rho_bar[0]),
        u_out=state.metrics.u_out,
        SE=state.metrics.SE,
        E_t=state.metrics.E_t,
        beta=float(beta),
    )
    return lambda change: IterationRecord(change=float(change), **fields)
