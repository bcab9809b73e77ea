"""Coupled adjoint sensitivities for the pressure-driven mechanism objective.

Both objective variants reward output motion against a soft strain-energy
penalty; the energy-penalty variant additionally divides by the flow energy
loss to reward airtight layouts. Gradients flow through two adjoint solves
(elastic, then flow) and are validated against finite differences in the
test suite, which pins every sign convention used here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolveError
from .filtering import chain_sensitivities

VARIANTS = ("baseline", "energy_penalty")


@dataclass(frozen=True)
class ObjectiveSpec:
    """Objective variant with scaling s and strain-energy exponent n.

    ``s = None`` requests automatic calibration on the first iteration.
    """

    variant: str = "baseline"
    n: float = 8.0
    s: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown objective variant {self.variant!r}")
        if self.n < 1:
            raise ConfigError(f"strain-energy exponent must be >= 1, got {self.n}")
        if self.s is not None and not self.s > 0:
            raise ConfigError(f"objective scaling must be > 0, got {self.s}")


def objective_value(metrics, spec: ObjectiveSpec, s: float | None = None) -> float:
    """Evaluate the scalar objective from solved performance metrics."""
    s = spec.s if s is None else s
    if s is None:
        raise ConfigError("objective scaling s has not been calibrated")
    if metrics.u_out == 0.0:
        return 0.0
    if metrics.SE <= 0.0:
        raise SolveError("degenerate load: strain energy is zero with nonzero output")
    value = s * metrics.u_out / metrics.SE ** (1.0 / spec.n)
    if spec.variant == "energy_penalty":
        if metrics.E_t <= 0.0:
            raise SolveError("energy-penalty objective needs E_t > 0")
        value /= metrics.E_t
    return -value


def objective_partials(model, state, spec: ObjectiveSpec, s: float):
    """Objective value plus its explicit partials w.r.t. u, p, SE, and E_t.

    Returns (f, df_du, df_dp, c_se, c_et) where c_se = df/dSE and
    c_et = df/dE_t hold the explicit scalar dependencies; df_dp is the
    full-length pressure partial (nonzero only for the penalty variant).
    """
    m = state.metrics
    if m.SE <= 0.0:
        raise SolveError("degenerate load: strain energy is zero")
    n = spec.n
    se_pow = m.SE ** (-1.0 / n)
    pref = s * se_pow
    if spec.variant == "energy_penalty":
        if m.E_t <= 0.0:
            raise SolveError("energy-penalty objective needs E_t > 0")
        pref /= m.E_t
    f = -pref * m.u_out

    df_du = -pref * model.l_out + (pref * m.u_out / (n * m.SE)) * state.ku
    c_se = -f / (n * m.SE)
    if spec.variant == "energy_penalty":
        c_et = -f / m.E_t
        df_dp = c_et * (state.flow.A @ model.inlet_gauge)
    else:
        c_et = 0.0
        df_dp = np.zeros(model.grid.nnodes)
    return f, df_du, df_dp, c_se, c_et


def solve_adjoints(model, state, df_du: np.ndarray, df_dp: np.ndarray):
    """Adjoint fields (lam_u, lam_p), padded with zeros on Dirichlet DOFs."""
    lam_u = np.zeros(model.grid.n_disp_dofs)
    free_u = model.elastic_reduction.free
    lam_u[free_u] = state.disp.system.solve(-df_du[free_u])

    lam_p = np.zeros(model.grid.nnodes)
    free_p = model.flow_reduction.free
    rhs = -(model.t_matrix.T @ lam_u)[free_p] - df_dp[free_p]
    lam_p[free_p] = state.pressure.system.solve(rhs)
    return lam_u, lam_p


def gradient_wrt_physical(model, state, spec: ObjectiveSpec, s: float):
    """Objective gradient w.r.t. the physical densities, shape (3, nelem).

    Combines the explicit strain-energy and energy-loss dependencies with the
    two adjoint terms through the stiffness and flow matrices.
    """
    f, df_du, df_dp, c_se, c_et = objective_partials(model, state, spec, s)
    lam_u, lam_p = solve_adjoints(model, state, df_du, df_dp)

    grid = model.grid
    edof, k0 = grid.edof_u, model.elastic.ke
    # each element's entries of lam_u, then of u, and their products with
    # K0, in two arrays; "clip" lets take write straight into them, and the
    # element DOFs are all in range
    gathered, products = np.empty(edof.shape), np.empty(edof.shape)
    np.matmul(np.take(lam_u, edof, out=gathered, mode="clip"), k0, out=products)
    ue = np.take(state.disp.u, edof, out=gathered, mode="clip")
    quad_ku = np.einsum("ei,ei->e", products, ue)  # (le @ k0) . ue
    quad_uu = np.einsum("ei,ei->e", np.matmul(ue, k0, out=products), ue)
    elastic_weight = quad_ku + 0.5 * c_se * quad_uu

    grad = np.zeros((3, grid.nelem))
    for ch in range(model.mats.n_channels):
        grad[ch] = state.de[ch] * elastic_weight

    mu = lam_p + c_et * model.inlet_gauge
    pe = state.pressure.p[grid.conn]
    me_ = mu[grid.conn]
    quad_cond = np.einsum("ei,ei->e", me_ @ model.flow.ke, pe)
    quad_mass = np.einsum("ei,ei->e", me_ @ model.flow.me, pe)
    grad[0] += state.flow.dk_elem * quad_cond + state.flow.dd_elem * quad_mass
    return f, grad


def total_gradient(model, state, spec: ObjectiveSpec, s: float, dproj: np.ndarray):
    """Objective value and its design-space gradient (chained through filtering)."""
    f, grad_bar = gradient_wrt_physical(model, state, spec, s)
    df_drho = chain_sensitivities(grad_bar, dproj, model.kernel_t)
    return f, df_drho
