"""Linear-elastic FEM: stiffness assembly, output operator, solve, metrics.

2-D analysis is plane strain with unit thickness; 3-D uses full trilinear
hexahedra. The element stiffness for unit modulus is precomputed once, and
the stiffness K is the ``StencilOperator`` of the element moduli E on it. A
band solve reads K assembled, ``K.data = S @ E`` by the CSR pattern (each
node's DOFs coupled to those of its 3^d stencil) and the scatter matrix S
built once, so every design gives the same pattern. A multigrid solve (a 3-D
block of more than ``linalg.COARSEST_DOFS`` free DOFs) reads it element by
element (``element_sum``), so in 3-D the pattern and S are built only where a
band solve or an assembly asks for them. ``solve_displacement`` solves
through a ``DirichletReduction`` of that operator whose fixed DOFs, the
supports, hold zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import shapefn
from .errors import ConfigError, SingularSystemError
from .grid import ElementSum, Grid, RegionSelection, StencilOperator, node_dofs
from .linalg import DirichletReduction, FactorizedSystem


@dataclass
class DisplacementField:
    """Nodal displacements (m) and the solver of their free block."""

    u: np.ndarray
    system: FactorizedSystem = field(repr=False)


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
    """Unit-modulus element stiffness, and the stiffness's operator ``op``,
    for one grid: matrix-free in 3-D (see the module docstring), while every
    2-D solve is a band solve and builds the pattern with the model."""

    def __init__(self, grid: Grid, nu: float):
        self.grid = grid
        self.nu = nu
        self.ke = shapefn.stiffness_matrix(grid.dim, grid.h, nu)
        self.op = StencilOperator(grid, self.ke, grid.dim, grid.dim, matrix_free=grid.matrix_free)

    def _moduli(self, e_field: np.ndarray) -> np.ndarray:
        e_field = np.asarray(e_field, dtype=float)
        if e_field.shape != (self.grid.nelem,):
            raise ConfigError(
                f"modulus field has shape {e_field.shape}, expected "
                f"({self.grid.nelem},)"
            )
        if np.any(e_field <= 0):
            raise ConfigError("modulus field must be strictly positive")
        return e_field

    def assemble(self, e_field: np.ndarray) -> sparse.csr_matrix:
        """K of the moduli ``e_field``, assembled."""
        return self.op.assemble(self._moduli(e_field))

    def element_sum(self, e_field: np.ndarray) -> ElementSum:
        """K of the moduli ``e_field``, as an element sum: not assembled."""
        return ElementSum(self.op, self._moduli(e_field))


def output_operator(grid: Grid, sel: RegionSelection) -> sparse.csr_matrix:
    """Output operator D (n_disp_dofs x r): column j is the output direction
    on the DOFs of output node j. ``l = D 1 / r`` gives u_out = l . u, and
    ``(k_out / r) D D^T`` are the output springs, k_out split evenly over the
    r nodes along any unit direction."""
    d = np.asarray(sel.region.direction, dtype=float)
    r = sel.nodes.size
    rows = node_dofs(sel.nodes, grid.dim).ravel()
    cols = np.repeat(np.arange(r), grid.dim)
    return sparse.csr_matrix(
        (np.tile(d, r), (rows, cols)), shape=(grid.n_disp_dofs, r)
    )


def solve_displacement(
    k, f: np.ndarray, reduction: DirichletReduction, e_field: np.ndarray,
    k_out: float = 0.0,
) -> DisplacementField:
    """Solve ``(K + k_out S) u = F``, ``k`` the stiffness K of the moduli
    ``e_field`` as ``reduction`` reads it (assembled, or an element sum where
    it multiplies element by element) and ``k_out S`` the output springs
    ``reduction`` holds, added to its free block, with the supports it holds
    at zero. No copy of ``k`` is made for the springs."""
    try:
        u, system = reduction.solve(k, f, e_field, "displacement solve", k_out)
    except SingularSystemError as exc:
        raise ConfigError(
            f"displacement system is singular; check supports ({exc})"
        ) from exc
    return DisplacementField(u, system)


def metrics(
    u: np.ndarray, ku: np.ndarray, l_out: np.ndarray, k_out: float, E_t: float = 0.0
) -> PerformanceMetrics:
    """Output displacement ``l_out . u``, structural strain energy
    ``u . ku / 2`` from ``ku = K u`` (the stiffness without springs), and the
    work of an output spring of stiffness ``k_out``."""
    u = np.asarray(u, dtype=float)
    u_out = float(l_out @ u)
    se = 0.5 * float(u @ ku)
    w = 0.5 * k_out * u_out**2
    return PerformanceMetrics(u_out=u_out, SE=se, W=w, E_t=E_t)
