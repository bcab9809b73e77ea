"""Linear-elastic FEM: stiffness assembly, output springs, solve, metrics.

2-D analysis is plane strain with unit thickness; 3-D uses full trilinear
hexahedra. The element stiffness for unit modulus is precomputed once and
scaled by the interpolated modulus field during assembly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import shapefn
from .errors import ConfigError, SingularSystemError
from .grid import Grid, RegionSelection
from .linalg import FactorizedSystem


@dataclass
class DisplacementField:
    u: np.ndarray
    fixed_dofs: np.ndarray
    free_dofs: np.ndarray
    lu: object = field(repr=False, default=None)


@dataclass(frozen=True)
class PerformanceMetrics:
    """Scalar performance of one solved state.

    u_out is the mean output-direction displacement over the output nodes,
    SE the structural strain energy (springs excluded), W the spring work
    0.5 * k_out * u_out**2, and E_t the flow energy loss.
    """

    u_out: float
    SE: float
    W: float
    E_t: float = 0.0


class ElasticAssembler:
    """Unit-modulus element stiffness and sparsity pattern for one grid."""

    def __init__(self, grid: Grid, nu: float):
        self.grid = grid
        self.nu = nu
        self.ke = shapefn.stiffness_matrix(grid.dim, grid.h, nu)
        ndof = grid.dim * grid.nen
        self.rows = np.repeat(grid.edof_u, ndof, axis=1).ravel()
        self.cols = np.tile(grid.edof_u, (1, ndof)).ravel()

    def assemble(self, e_field: np.ndarray) -> sparse.csr_matrix:
        e_field = np.asarray(e_field, dtype=float)
        if e_field.shape != (self.grid.nelem,):
            raise ConfigError(
                f"modulus field has shape {e_field.shape}, expected "
                f"({self.grid.nelem},)"
            )
        if np.any(e_field <= 0):
            raise ConfigError("modulus field must be strictly positive")
        vals = e_field[:, None, None] * self.ke[None, :, :]
        return sparse.coo_matrix(
            (vals.ravel(), (self.rows, self.cols)),
            shape=(self.grid.n_disp_dofs,) * 2,
        ).tocsr()


def output_spring_matrix(
    grid: Grid, sel: RegionSelection, k_out: float | None = None
) -> sparse.csr_matrix:
    """Diagonal-block spring matrix distributing k_out over the output nodes.

    Each node receives (k_out / n_nodes) * d d^T on its displacement block,
    so non-axis-aligned output directions are supported.
    """
    region = sel.region
    k = region.k_out if k_out is None else k_out
    d = np.asarray(region.direction, dtype=float)
    n = sel.nodes.size
    block = (k / n) * np.outer(d, d)
    rows, cols, vals = [], [], []
    for node in sel.nodes:
        dofs = grid.dim * node + np.arange(grid.dim)
        rows.append(np.repeat(dofs, grid.dim))
        cols.append(np.tile(dofs, grid.dim))
        vals.append(block.ravel())
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_disp_dofs,) * 2,
    ).tocsr()


def solve_displacement(
    k: sparse.csr_matrix, f: np.ndarray, fixed_dofs: np.ndarray
) -> DisplacementField:
    """Solve K u = F with the given DOFs pinned to zero."""
    n = k.shape[0]
    fixed_dofs = np.unique(np.asarray(fixed_dofs, dtype=np.int64))
    free = np.setdiff1d(np.arange(n), fixed_dofs)
    k_csc = k.tocsc()
    k_ff = k_csc[free][:, free]
    b = np.asarray(f, dtype=float)[free]
    try:
        lu = FactorizedSystem(k_ff, context="displacement solve")
        u = np.zeros(n)
        u[free] = lu.solve(b)
    except SingularSystemError as exc:
        raise ConfigError(
            f"displacement system is singular; check supports ({exc})"
        ) from exc
    return DisplacementField(u, fixed_dofs, free, lu)


def output_projector(grid: Grid, sel: RegionSelection) -> np.ndarray:
    """Vector l with u_out = l . u (mean output-direction displacement)."""
    d = np.asarray(sel.region.direction, dtype=float)
    l = np.zeros(grid.n_disp_dofs)
    for node in sel.nodes:
        l[grid.dim * node + np.arange(grid.dim)] += d / sel.nodes.size
    return l


def metrics(
    u: np.ndarray,
    k_struct: sparse.csr_matrix,
    l_out: np.ndarray,
    k_out: float,
    E_t: float = 0.0,
) -> PerformanceMetrics:
    """Output displacement ``l_out . u``, structural strain energy, and the
    work of an output spring of stiffness ``k_out``."""
    u = np.asarray(u, dtype=float)
    u_out = float(l_out @ u)
    se = 0.5 * float(u @ (k_struct @ u))
    w = 0.5 * k_out * u_out**2
    return PerformanceMetrics(u_out=u_out, SE=se, W=w, E_t=E_t)
