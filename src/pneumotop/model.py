"""Resolved problem model: grid, boundary sets, operators, and forward solves.

A Model is built once per problem and is immutable afterwards; forward solves
for different density fields or spring stiffnesses can then proceed
independently.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy import sparse

from . import closure as closure_mod
from . import darcy, elasticity, filtering
from .darcy import FlowAssembler, FlowSystem, PressureField
from .elasticity import DisplacementField, ElasticAssembler, PerformanceMetrics
from .errors import ConfigError, SolveError
from .filtering import ProjectionParams
from .grid import (
    TAG_DESIGN,
    TAG_PASSIVE_VOID,
    Grid,
    build_grid,
    filter_neighborhoods,
    in_box,
    pattern_slots,
    select_region,
)
from .linalg import DirichletReduction
from .materials import interpolate_modulus
from .problem import ProblemSpec

MAX_PRINCIPLE_TOL = 1e-6


@dataclass
class State:
    """All fields of one forward solve on a fixed physical design."""

    rho_bar: np.ndarray
    e_field: np.ndarray
    de: np.ndarray
    flow: FlowSystem
    pressure: PressureField
    force: np.ndarray
    k_struct: sparse.csr_matrix
    disp: DisplacementField
    metrics: PerformanceMetrics
    k_out: float = 0.0


class Model:
    """Operators and boundary data resolved from a ProblemSpec."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        # Upper volume fraction per constrained channel; the topology
        # channel holds every material, so it is bounded by their sum.
        self.volume_bounds = (sum(spec.volume_fractions),) + spec.volume_fractions[1:]
        self.grid: Grid = build_grid(spec.grid)
        self.mats = spec.materials
        self.flow_params = spec.flow
        self.kernel = filter_neighborhoods(
            self.grid, spec.filter.r_min_elems * self.grid.h
        )
        self.proj_eta = spec.filter.eta_p

        self.selections = [select_region(self.grid, r) for r in spec.regions]
        by_role: dict[str, list] = {}
        for sel in self.selections:
            by_role.setdefault(sel.region.role, []).append(sel)

        inlets = by_role["pressure_inlet"]
        drains = by_role.get("pressure_drain", [])
        self.inlet_nodes = np.unique(np.concatenate([s.nodes for s in inlets]))
        self.drain_nodes = (
            np.unique(np.concatenate([s.nodes for s in drains]))
            if drains
            else np.array([], dtype=np.int64)
        )
        overlap = np.intersect1d(self.inlet_nodes, self.drain_nodes)
        if overlap.size:
            raise ConfigError(
                f"pressure inlet and drain regions share {overlap.size} nodes"
            )
        self.inlet_faces = tuple(f for s in inlets for f in s.faces)
        self.drain_faces = tuple(f for s in drains for f in s.faces)

        fixed = []
        for sel in by_role["fixed_support"]:
            for c in range(self.grid.dim):
                fixed.append(self.grid.dim * sel.nodes + c)
        for sel in by_role.get("symmetry", []):
            fixed.append(self.grid.dim * sel.nodes + sel.normal_axis)
        self.fixed_u_dofs = np.unique(np.concatenate(fixed))

        (self.output_sel,) = by_role["output"]
        self.output_op = elasticity.output_operator(self.grid, self.output_sel)
        n_out = self.output_op.shape[1]
        self.l_out = (self.output_op @ np.ones(n_out)) / n_out
        self.spring_unit = (1.0 / n_out) * (self.output_op @ self.output_op.T)

        self.mask = self._build_mask(spec)
        self.free_elems = np.nonzero(self.mask == TAG_DESIGN)[0]
        self.passive_elems = np.nonzero(self.mask != TAG_DESIGN)[0]
        self.passive_pattern = np.zeros((3, self.grid.nelem))
        for m in range(1, self.mats.n_channels + 1):
            idx = np.nonzero(self.mask == m)[0]
            if idx.size:
                self.passive_pattern[:, idx] = self.mats.solid_pattern(m)[:, None]

        self.volumes = np.full(self.grid.nelem, self.grid.element_volume)
        self.flow = FlowAssembler(self.grid)
        self.elastic = ElasticAssembler(self.grid, self.mats.nu)
        self.t_matrix = darcy.coupling_matrix(self.grid)
        springs = self.spring_unit.tocoo()
        op = self.elastic.op
        self.spring_slots = pattern_slots(op.indptr, op.indices, springs.row, springs.col)
        self.spring_data = springs.data
        self.grid.release_patterns()  # every operator is built

    # Both operators keep one pattern for every design, so each physics has
    # one reduction, built at its first solve: its fixed DOFs, the values
    # they hold, the gather map to its free DOFs and its coarse levels, if any.

    @cached_property
    def flow_reduction(self) -> DirichletReduction:
        return darcy.pressure_reduction(
            self.flow, self.inlet_nodes, self.drain_nodes, self.flow_params
        )

    @cached_property
    def inlet_gauge(self) -> np.ndarray:
        """The gauge pressure the flow set holds, on every node (zero off the
        set and at the drains), for the E_t derivatives."""
        reduction = self.flow_reduction
        gauge = np.zeros(self.grid.nnodes)
        gauge[reduction.fixed] = reduction.values - self.flow_params.p_atm
        return gauge

    @cached_property
    def elastic_reduction(self) -> DirichletReduction:
        return DirichletReduction(self.elastic.op, self.fixed_u_dofs, self.grid)

    def _build_mask(self, spec: ProblemSpec) -> np.ndarray:
        mask = np.full(self.grid.nelem, TAG_DESIGN, dtype=np.int64)
        for p in spec.passive:
            inside = in_box(self.grid.centroids, p.box, self.grid.h)
            mask[inside] = TAG_PASSIVE_VOID if p.tag == "void" else p.material
        if spec.closure.mode == "skin":
            mask = closure_mod.non_design_skin(
                self.grid,
                mask,
                spec.closure.skin_thickness_elems,
                material=1,
                exempt_faces=self.exempt_faces(),
            )
        return mask

    def exempt_faces(self) -> set:
        """Domain faces kept open by a boundary skin: inlets and symmetry planes."""
        exempt = set()
        for sel in self.selections:
            if sel.region.role == "pressure_inlet":
                exempt.update((ax, side) for _, ax, side in sel.faces)
            elif sel.region.role == "symmetry":
                lo = np.asarray(sel.region.box[0])
                ax = sel.normal_axis
                side = 0 if lo[ax] < self.grid.h * 0.5 else 1
                exempt.add((ax, side))
        return exempt

    # ---- design-variable mapping -------------------------------------------------

    def physical_fields(self, design: np.ndarray, beta: float):
        """Filter and project all channels; returns (rho_tilde, rho_bar, dproj).

        Passive elements are pinned to their exact corner patterns and their
        projection derivative is zeroed so sensitivities ignore them.
        """
        params = ProjectionParams(beta=beta, eta=self.proj_eta)
        rho_tilde = filtering.filter_densities(design, self.kernel)
        rho_bar, dproj = filtering.project(rho_tilde, params)
        if self.passive_elems.size:
            rho_bar[:, self.passive_elems] = self.passive_pattern[:, self.passive_elems]
            dproj[:, self.passive_elems] = 0.0
        return rho_tilde, rho_bar, dproj

    # ---- forward physics ---------------------------------------------------------

    def forward(self, rho_bar: np.ndarray, k_out: float | None = None) -> State:
        """Darcy solve, force transfer, elastic solve, and metrics."""
        rho_bar = np.asarray(rho_bar, dtype=float)
        k_out = self.output_sel.region.k_out if k_out is None else float(k_out)

        flow_sys = self.flow.assemble(rho_bar[0], self.flow_params)
        pressure = darcy.solve_pressure(flow_sys, self.flow_reduction)
        self._check_pressure_bounds(pressure.p)
        force = -(self.t_matrix @ pressure.p)
        e_t = darcy.energy_loss(flow_sys, pressure.p, self.inlet_nodes)

        e_field, de = interpolate_modulus(rho_bar, self.mats)
        k_struct = self.elastic.assemble(e_field)
        k_total = k_struct
        if k_out > 0:  # the springs, on their slots of the fixed pattern
            data = k_struct.data.copy()
            data[self.spring_slots] += k_out * self.spring_data
            k_total = sparse.csr_matrix(
                (data, k_struct.indices, k_struct.indptr), shape=k_struct.shape
            )
        disp = elasticity.solve_displacement(k_total, force, self.elastic_reduction, e_field)
        m = elasticity.metrics(disp.u, k_struct, self.l_out, k_out, E_t=e_t)
        return State(
            rho_bar=rho_bar,
            e_field=e_field,
            de=de,
            flow=flow_sys,
            pressure=pressure,
            force=force,
            k_struct=k_struct,
            disp=disp,
            metrics=m,
            k_out=k_out,
        )

    def sweep(self, rho_bar: np.ndarray, k_values) -> list[PerformanceMetrics]:
        """Metrics at increasing spring stiffnesses from one flow solve: a
        forward solve at the softest k_1, then for every other k that solve's
        system with the rank-r update ``(k - k_1) / r * D_f D_f^T`` (r output
        nodes, D_f the rows of D at the free DOFs), through the one banded
        Cholesky factorization, or by CG preconditioned with the one
        multigrid hierarchy where the reduction has coarse levels."""
        state = self.forward(rho_bar, k_out=k_values[0])
        free, n_out = self.elastic_reduction.free, self.output_op.shape[1]
        coefficients = [(k - k_values[0]) / n_out for k in k_values[1:]]
        systems = state.disp.system.rank_updates(self.output_op[free], coefficients)
        out = [state.metrics]
        # Each updated system holds its own matrix: drop it before the next
        # is built (a loop variable would keep it alive through next()).
        for k in k_values[1:]:
            u = np.zeros_like(state.disp.u)
            u[free] = next(systems).solve(state.force[free])
            out.append(elasticity.metrics(u, state.k_struct, self.l_out, k, state.metrics.E_t))
        return out

    def _check_pressure_bounds(self, p: np.ndarray):
        lo = min(self.flow_params.p_atm, self.flow_params.P_in)
        hi = max(self.flow_params.p_atm, self.flow_params.P_in)
        tol = MAX_PRINCIPLE_TOL * abs(self.flow_params.P_in - self.flow_params.p_atm)
        if p.min() < lo - tol or p.max() > hi + tol:
            raise SolveError(
                f"pressure field violates its physical bounds: "
                f"[{p.min():.6g}, {p.max():.6g}] outside "
                f"[{lo:.6g}, {hi:.6g}] (tol {tol:.3g})"
            )

    def seal_report(self, rho_bar: np.ndarray, added: int = 0) -> closure_mod.SealReport:
        rep = closure_mod.check_sealed(
            rho_bar[0], self.grid, self.inlet_faces, self.drain_faces
        )
        return replace(rep, added_volume_fraction=added / self.grid.nelem)
