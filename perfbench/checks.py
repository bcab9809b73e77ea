"""Output checks that hold for any correct solver and any workload seed.

Each check returns a list of failure messages; an empty list is a pass.
They read only public fields of the package's results, and recompute what
they test instead of trusting the solver's own bookkeeping.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse

OBJECTIVE_GAIN = 10.0
FD_REL_TOL = 1e-4
SWEEP_REL_TOL = 1e-9
E_T_REL_TOL = 1e-6


def backward_error(a, x, b) -> float:
    """Normwise backward error ||b - A x|| / (||A||_1 ||x|| + ||b||)."""
    a = sparse.csr_matrix(a)
    r = np.asarray(b, dtype=float) - a @ x
    norm1 = float(abs(a).sum(axis=0).max()) if a.shape[0] else 0.0
    denom = norm1 * np.linalg.norm(x) + np.linalg.norm(b)
    return float(np.linalg.norm(r) / denom) if denom > 0 else 0.0


def check_backward_error(label: str, a, x, b, tol: float) -> list[str]:
    if not np.all(np.isfinite(x)):
        return [f"{label}: solution has non-finite entries"]
    err = backward_error(a, x, b)
    if not err <= tol:
        return [f"{label}: backward error {err:.3e} exceeds {tol:.0e}"]
    return []


def _dirichlet_split(a, values, fixed):
    """Reduced system (A_ff, x_f, b_f) of a solution with Dirichlet DOFs."""
    a = sparse.csr_matrix(a)
    n = a.shape[0]
    free = np.setdiff1d(np.arange(n), fixed)
    a_f = a[free]
    b = -(a_f[:, fixed] @ values[fixed])
    return a_f[:, free], values[free], b, free


def check_flow_solve(model, state, tol: float) -> list[str]:
    """Pressure solve: Dirichlet values held and the reduced system solved."""
    p = state.pressure.p
    fp = model.flow_params
    fails = []
    if not (np.all(p[model.inlet_nodes] == fp.P_in)
            and np.all(p[model.drain_nodes] == fp.p_atm)):
        fails.append("flow solve: inlet or drain pressures not held")
    fixed = np.concatenate([model.inlet_nodes, model.drain_nodes])
    a_ff, x, b, _ = _dirichlet_split(state.flow.A, p, fixed)
    return fails + check_backward_error("flow solve", a_ff, x, b, tol)


def check_elastic_solve(model, state, tol: float) -> list[str]:
    """Displacement solve: supports held and (K + k_out S) u = F solved."""
    u = state.disp.u
    fails = []
    if np.any(u[model.fixed_u_dofs] != 0.0):
        fails.append("elastic solve: supported DOFs moved")
    k = state.k_struct + state.k_out * model.spring_unit
    a_ff, x, _, free = _dirichlet_split(k, u, model.fixed_u_dofs)
    return fails + check_backward_error(
        "elastic solve", a_ff, x, state.force[free], tol
    )


def check_objective_improved(f_history, label: str) -> list[str]:
    """The last objective is lower than the first and 10x larger in size."""
    f = [float(v) for v in f_history]
    if len(f) < 2:
        return [f"{label}: fewer than two iterations recorded"]
    f1, fn = f[0], f[-1]
    if not (fn < f1 and abs(fn) >= OBJECTIVE_GAIN * abs(f1)):
        return [
            f"{label}: objective went from {f1:.6g} to {fn:.6g}, "
            f"not a {OBJECTIVE_GAIN:g}x improvement"
        ]
    return []


def check_directional_fd(analytic: float, fd: float, tol: float = FD_REL_TOL) -> list[str]:
    """Adjoint directional derivative agrees with central differences."""
    scale = max(abs(analytic), abs(fd))
    if not np.isfinite(analytic) or scale == 0.0:
        return [f"adjoint FD check: degenerate derivative {analytic!r}"]
    rel = abs(analytic - fd) / scale
    if not rel <= tol:
        return [
            f"adjoint FD check: adjoint {analytic:.8g} vs FD {fd:.8g} "
            f"(rel {rel:.2e} > {tol:.0e})"
        ]
    return []


def check_sweep(rows, sweep) -> list[str]:
    """Sweep invariants: rows follow the requested stiffnesses, E_t is
    constant, u_out falls strictly as k_out rises, and W = k u_out^2 / 2."""
    k = np.array([r["k_out"] for r in rows], dtype=float)
    if not np.array_equal(k, np.asarray(sweep, dtype=float)):
        return [f"sweep: rows are for k_out {k.tolist()}, asked for {list(sweep)}"]
    u = np.array([r["u_out"] for r in rows], dtype=float)
    w = np.array([r["W"] for r in rows], dtype=float)
    e_t = np.array([r["E_t"] for r in rows], dtype=float)
    fails = []
    if np.ptp(e_t) > E_T_REL_TOL * np.max(np.abs(e_t)):
        fails.append(f"sweep: E_t varies across points ({e_t.min():.9g}..{e_t.max():.9g})")
    if not np.all(np.diff(u) < 0):
        fails.append(f"sweep: u_out does not fall strictly with k_out: {u.tolist()}")
    w_ref = 0.5 * k * u**2
    if not np.allclose(w, w_ref, rtol=SWEEP_REL_TOL, atol=0):
        fails.append("sweep: W differs from k_out * u_out^2 / 2")
    return fails
