"""Porous-flow pressure equilibrium and pressure-to-force coupling.

The flow matrix combines element conduction K(rho1) * integral(grad N . grad N)
with a drainage sink D_s * H(rho1) * M that decays pressure inside solid
walls and closed cavities. The drainage mass matrix is row-sum lumped: a
consistent mass matrix introduces positive off-diagonals that break the
discrete maximum principle, producing nonphysical pressure undershoot of a
few percent next to sharp walls. Nodal forces come from the volumetric
gradient form F = -T p, which is what makes the load follow the design.

The flow matrix's CSR pattern (each node coupled to its 3^d stencil) and
the scatter matrix S from the element coefficients ``[k; d]`` to its data,
against the templates ``[ke | lumped me]``, are built once per grid, so
assembly is ``A.data = S @ [k; d]``; T is built through the same helper.
The inlet nodes (held at P_in) and the drain nodes (at p_atm) make one
Dirichlet set, which ``pressure_reduction`` derives once per model together
with its values; ``solve_pressure`` solves through that reduction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import shapefn
from .errors import ConfigError
from .grid import Grid, stencil_operator
from .linalg import DirichletReduction, FactorizedSystem
from .materials import FlowParams, drainage_coefficient, flow_coefficient


@dataclass
class FlowSystem:
    """Assembled global flow matrix plus per-element model coefficients."""

    A: sparse.csr_matrix
    k_elem: np.ndarray
    dk_elem: np.ndarray
    d_elem: np.ndarray
    dd_elem: np.ndarray
    params: FlowParams


@dataclass
class PressureField:
    """Equilibrium nodal pressures (Pa) and the solver of their free block."""

    p: np.ndarray
    system: FactorizedSystem = field(repr=False)


class FlowAssembler:
    """Reusable element templates, and the flow matrix's pattern and
    scatter (``op``), for one grid."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.ke = shapefn.conduction_matrix(grid.dim, grid.h)
        # Lumped drainage keeps the flow matrix an M-matrix (see module doc).
        self.me = np.diag(shapefn.mass_matrix(grid.dim, grid.h).sum(axis=1))
        self.op = stencil_operator(grid, [self.ke, self.me])

    def assemble(self, rho_bar1: np.ndarray, params: FlowParams) -> FlowSystem:
        """Global flow matrix for the given topology-channel densities."""
        rho_bar1 = np.asarray(rho_bar1, dtype=float)
        if rho_bar1.shape != (self.grid.nelem,):
            raise ConfigError(
                f"density field has shape {rho_bar1.shape}, expected "
                f"({self.grid.nelem},)"
            )
        k, dk = flow_coefficient(rho_bar1, params)
        d, dd = drainage_coefficient(rho_bar1, params)
        a = self.op.assemble(np.concatenate([k, d]))
        return FlowSystem(a, k, dk, d, dd, params)


def pressure_reduction(
    assembler: FlowAssembler,
    inlet_nodes: np.ndarray,
    drain_nodes: np.ndarray,
    params: FlowParams,
) -> DirichletReduction:
    """The flow matrix's reduction to its free nodes, holding the inlet
    nodes at P_in and then the drain nodes at p_atm."""
    fixed = np.concatenate([inlet_nodes, drain_nodes])
    if fixed.size == 0:
        raise ConfigError(
            "flow system has no pressure Dirichlet DOFs (need an inlet or drain)"
        )
    values = np.concatenate(
        [np.full(len(inlet_nodes), params.P_in), np.full(len(drain_nodes), params.p_atm)]
    )
    return DirichletReduction(assembler.op, fixed, assembler.grid, values)


def solve_pressure(system: FlowSystem, reduction: DirichletReduction) -> PressureField:
    """Solve for equilibrium pressure with the Dirichlet values ``reduction``
    holds (see ``pressure_reduction``), its multigrid levels, if it has any,
    built from the coefficients ``[k; d]``; the solver of the reduced symmetric
    system is kept for adjoint reuse."""
    coef = np.concatenate([system.k_elem, system.d_elem])
    p, solver = reduction.solve(system.A, np.zeros(system.A.shape[0]), coef, "pressure solve")
    return PressureField(p, solver)


def coupling_matrix(grid: Grid) -> sparse.csr_matrix:
    """Global pressure-to-force map T (geometry only): F = -T p."""
    te = shapefn.coupling_matrix(grid.dim, grid.h)
    return stencil_operator(grid, te, row_comps=grid.dim).assemble(np.ones(grid.nelem))


def energy_loss(system: FlowSystem, p: np.ndarray, inlet_nodes: np.ndarray) -> float:
    """Leakage power from inlet boundary reactions.

    Sums (reaction flux) * (p - p_atm) over the inlet nodes, the reaction
    being the unconstrained-matrix residual at the fixed nodes. With gauge
    pressure this equals the total dissipation p^T A p.
    """
    r = system.A @ p
    return float(np.dot(p[inlet_nodes] - system.params.p_atm, r[inlet_nodes]))
