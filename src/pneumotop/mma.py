"""Method of moving asymptotes for bound-constrained nonlinear programs.

Minimizes f(x) subject to g_i(x) <= 0 and box bounds by solving a separable
convex approximation each iteration. Asymptotes contract under oscillation
and relax under steady progress. Elastic constraint variables y keep the
subproblem feasible. It is solved through its dual (Svanberg 1987, IJNME
24:359): for multipliers lam >= 0 of the m constraints, each x_j and y_i
has a closed form, so the dual is a concave function of m variables, which
projected Newton steps maximize at O(n m) cost per step. The dual works in
reused buffers: each evaluation writes its n- and (m, n)-sized terms into
work arrays allocated once per subproblem solve, so it allocates only what
it returns, and the Newton matrix is formed only for a step that uses it.

A step that turns out to raise the true objective can be re-solved more
conservatively with ``MMA.conservative_step``: the objective approximation's
curvature term ``raa0`` is raised by the update of GCMMA (Svanberg 2002,
SIAM J. Optim. 12(2)) until the approximation lies above the observed
value, and the subproblem is solved again from the same point, with the
same asymptotes, gradients and move limit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolveError

# Every variable lives in the box [0, 1], so the box width is 1 throughout.
ASYINIT = 0.5      # initial asymptote distance
ASYINCR = 1.2      # asymptote widening under steady progress
ASYDECR = 0.7      # asymptote narrowing under oscillation
ALBEFA = 0.1       # fraction of the asymptote distance the step bounds keep
RAA0 = 1e-5        # floor of the approximations' curvature term
C_PENALTY = 1e4    # cost of the elastic constraint variables
# The dual solve stops once every component of the dual gradient that is
# not held at lam = 0 is within DUAL_TOL (1 + lam) of zero: the y term's
# roundoff grows with lam.
DUAL_TOL = 1e-12
DUAL_MAX_ITERS = 50
DUAL_MAX_HALVINGS = 60     # step halvings per Newton step
BOUND_CURVATURE = 1e-6     # share of its curvature a bound variable keeps


@dataclass
class _Subproblem:
    """Everything one convex approximation is built from, around ``x``.

    ``df0dx`` is already divided by ``scale``; ``raa0`` is the objective's
    curvature term, raised by conservative re-solves.
    """

    x: np.ndarray
    df0dx: np.ndarray
    g: np.ndarray
    dgdx: np.ndarray
    low: np.ndarray
    upp: np.ndarray
    move: float
    scale: float
    raa0: float

    def squares(self):
        """``(upp - x)^2`` and ``(x - low)^2``, the weights of every p and q term."""
        return np.square(self.upp - self.x), np.square(self.x - self.low)

    def terms(self):
        """MMA's p and q terms of the objective, then of the constraints,
        formed from one ``squares()``."""
        squares = self.squares()
        return (_convex_terms(self.df0dx, self.raa0, squares),
                _convex_terms(self.dgdx, RAA0, squares))

    def objective_change(self, xt):
        """The approximation of f(xt) - f(x), in the caller's units."""
        p0, q0 = _convex_terms(self.df0dx, self.raa0, self.squares())
        return self.scale * float(
            np.sum(p0 / (self.upp - xt) + q0 / (xt - self.low))
            - np.sum(p0 / (self.upp - self.x) + q0 / (self.x - self.low))
        )


def _convex_terms(grad, rho, squares):
    """MMA's p and q coefficients for gradient(s) ``grad`` with curvature
    ``rho``: ``(p + pq) (upp - x)^2`` and ``(q + pq) (x - low)^2``, the two
    ``squares``, with ``p = max(grad, 0)``, ``q = max(-grad, 0)`` and ``pq =
    0.001 (p + q) + rho``, formed in the two arrays returned and one
    temporary."""
    ux2, xl2 = squares
    p = np.maximum(grad, 0.0)
    q = np.negative(grad)
    np.maximum(q, 0.0, out=q)
    pq = np.add(p, q)
    np.add(np.multiply(0.001, pq, out=pq), rho, out=pq)
    np.multiply(np.add(p, pq, out=p), ux2, out=p)
    np.multiply(np.add(q, pq, out=q), xl2, out=q)
    return p, q


class MMA:
    """Stateful MMA driver; the problem size is that of the first update's
    arrays. It keeps what the next update needs: the asymptotes, the last
    two points and the last subproblem. The caller passes each update's
    move limit: the optimizer's continuation shrinks it as the projection
    sharpens, to ``move_limit * sqrt(beta_p_initial / beta)`` and no less
    than ``min(0.05, move_limit)``."""

    def __init__(self):
        self.low = None
        self.upp = None
        self.xold1 = None
        self.xold2 = None
        self._sub = None

    def update(
        self,
        x: np.ndarray,
        df0dx: np.ndarray,
        g: np.ndarray,
        dgdx: np.ndarray,
        move: float,
    ) -> np.ndarray:
        """One MMA step; returns the new design within ``move`` (a fraction
        of the box width) of ``x`` and within [0, 1]."""
        x = np.asarray(x, dtype=float)
        df0dx = np.asarray(df0dx, dtype=float)
        g = np.atleast_1d(np.asarray(g, dtype=float))
        dgdx = np.atleast_2d(np.asarray(dgdx, dtype=float))
        if not (np.all(np.isfinite(df0dx)) and np.all(np.isfinite(dgdx))):
            raise SolveError("MMA received non-finite gradients")

        if not np.any(df0dx) and not np.any(dgdx):
            self._sub = None
            return x.copy()

        # RAA0 and C_PENALTY are in units of the normalized objective
        # gradient, as is the 0.001 (p + q) term they are weighed against;
        # normalizing makes the step independent of the objective's units.
        scale = max(np.abs(df0dx).max(), 1.0)

        x = x.copy()  # the subproblem's point and the next update's xold1
        self.low, self.upp = self._asymptotes(x)
        sub = _Subproblem(
            x=x, df0dx=df0dx / scale, g=g, dgdx=dgdx, low=self.low,
            upp=self.upp, move=move, scale=scale,
            raa0=max(0.1 * self._sub.raa0, RAA0) if self._sub else RAA0,
        )
        xnew = self._solve(sub)
        self._sub = sub
        self.xold2 = self.xold1
        self.xold1 = x
        return xnew

    def conservative_step(self, x_trial: np.ndarray, f_increase: float) -> np.ndarray:
        """Re-solve the last update after its step ``x_trial`` raised f.

        ``f_increase`` is f(x_trial) - f(x) in the caller's units, x being
        the point the last ``update`` started from. Svanberg's update raises
        the objective's ``raa0`` to 1.1 (raa0 + delta), where delta is the
        raise that makes the approximation equal the observed f at
        ``x_trial``; the 10x cap of his notes is left out, so that after one
        call the approximation already lies above every value observed so
        far. The subproblem is then solved again from x with the same
        asymptotes, gradients and move limit, which shortens the step.
        Returns the new trial point. The next ``update`` starts from a tenth
        of the raised ``raa0``, never below ``RAA0``.
        """
        sub = self._sub
        if sub is None:
            raise SolveError("MMA has no subproblem to re-solve")
        x_trial = np.asarray(x_trial, dtype=float)
        # The approximation is linear in raa0, with this slope at x_trial.
        slope = float(np.sum(
            (sub.upp - sub.low) * (x_trial - sub.x) ** 2
            / ((sub.upp - x_trial) * (x_trial - sub.low))
        ))
        if slope <= 0.0:
            raise SolveError("MMA conservative re-solve needs a step to shorten")
        delta = (f_increase - sub.objective_change(x_trial)) / (sub.scale * slope)
        if delta > 0.0:
            sub.raa0 = 1.1 * (sub.raa0 + delta)
        return self._solve(sub)

    def _asymptotes(self, x):
        if self.xold2 is None:  # the first two updates
            return x - ASYINIT, x + ASYINIT
        zzz = (x - self.xold1) * (self.xold1 - self.xold2)
        factor = np.ones_like(x)
        factor[zzz > 0] = ASYINCR
        factor[zzz < 0] = ASYDECR
        low = x - factor * (self.xold1 - self.low)
        upp = x + factor * (self.upp - self.xold1)
        low = np.clip(low, x - 10.0, x - 0.01)
        upp = np.clip(upp, x + 0.01, x + 10.0)
        return low, upp

    def _solve(self, sub: _Subproblem) -> np.ndarray:
        x, low, upp = sub.x, sub.low, sub.upp
        alfa = np.maximum(np.maximum(low + ALBEFA * (x - low), x - sub.move), 0.0)
        beta = np.minimum(np.minimum(upp - ALBEFA * (upp - x), x + sub.move), 1.0)
        (p0, q0), (pp, qq) = sub.terms()
        b = pp @ (1.0 / (upp - x)) + qq @ (1.0 / (x - low)) - sub.g
        return _subsolve(low, upp, alfa, beta, p0, q0, pp, qq, b)


def _dual(low, upp, alfa, beta, p0, q0, pp, qq, b):
    """The dual of ``_subsolve``'s subproblem, as two functions.

    ``at(lam)`` returns x(lam) and the dual gradient at the multipliers lam;
    ``newton(lam, x)`` the negated dual Hessian there, from the terms the
    last ``at(lam)`` call left, so it is called after that call and before
    the next one. Only a Newton step needs the matrix: a trial point that is
    rejected, or that ends the solve, never forms it. Both write their n-
    and (m, n)-sized terms into work arrays allocated here, and return fresh
    arrays, so a trial's result outlives the next call.
    """
    m, n = pp.shape
    # Separate arrays, not one block: a block of (8 + 2m) n doubles, freed
    # at the top of the heap, made malloc trim and refault about 4 MB per
    # finger2d iteration.
    plam, qlam, x_free, ux, xl, t1, t2, t3 = (np.empty(n) for _ in range(8))
    dgdx, scaled = np.empty((m, n)), np.empty((m, n))
    free = np.empty(n, dtype=bool)

    def at(lam):
        np.add(p0, np.matmul(lam, pp, out=plam), out=plam)
        np.add(q0, np.matmul(lam, qq, out=qlam), out=qlam)
        sp, sq = np.sqrt(plam, out=t1), np.sqrt(qlam, out=t2)
        np.add(sp, sq, out=t3)
        np.add(np.multiply(sp, low, out=sp), np.multiply(sq, upp, out=sq), out=t1)
        np.divide(t1, t3, out=x_free)  # (sp low + sq upp) / (sp + sq)
        x = np.clip(x_free, alfa, beta)
        np.subtract(upp, x, out=ux)
        np.subtract(x, low, out=xl)
        y = np.maximum(lam - C_PENALTY, 0.0)
        grad = pp @ np.divide(1.0, ux, out=t1) + qq @ np.divide(1.0, xl, out=t1) - y - b
        return x, grad

    def newton(lam, x):
        # dx/dlam = -dgdx / curvature for a free variable and 0 for one at a
        # bound; bound variables keep a small share of theirs so that the
        # matrix stays regular when every variable is at a bound.
        np.divide(pp, np.square(ux, out=t1), out=dgdx)
        np.subtract(dgdx, np.divide(qq, np.square(xl, out=t1), out=scaled), out=dgdx)
        np.divide(plam, np.power(ux, 3, out=t1), out=t1)
        np.add(t1, np.divide(qlam, np.power(xl, 3, out=t2), out=t2), out=t1)
        curvature = np.multiply(2.0, t1, out=t1)
        weight = t2
        weight.fill(BOUND_CURVATURE)
        np.copyto(weight, 1.0, where=np.equal(x, x_free, out=free))
        np.divide(weight, curvature, out=weight)
        matrix = np.multiply(dgdx, weight, out=scaled) @ dgdx.T
        matrix += np.diag((lam > C_PENALTY).astype(float))
        return matrix

    return at, newton


def _subsolve(low, upp, alfa, beta, p0, q0, pp, qq, b):
    """Solve the separable MMA subproblem through its dual; returns its x.

    The subproblem minimizes sum(p0/(upp-x) + q0/(x-low)) + sum(C_PENALTY y
    + y^2/2) subject to pp@(1/(upp-x)) + qq@(1/(x-low)) - y <= b, alfa <= x
    <= beta and y >= 0. For multipliers lam >= 0 its Lagrangian has the
    minimizer x(lam), y(lam) in closed form, and the dual is concave in
    lam, with gradient the constraint residual at x(lam), y(lam). Projected
    Newton steps maximize it until the stopping test of ``DUAL_TOL`` holds;
    raises SolveError if that takes more than ``DUAL_MAX_ITERS`` steps or a
    step cannot be made.
    """
    at, newton = _dual(low, upp, alfa, beta, p0, q0, pp, qq, b)
    lam = np.zeros(b.size)
    x, grad = at(lam)
    for _ in range(DUAL_MAX_ITERS):
        # Components held at lam = 0 by a negative gradient are optimal.
        open_ = (lam > 0.0) | (grad > 0.0)
        if np.all(np.abs(grad[open_]) <= DUAL_TOL * (1.0 + lam[open_])):
            return x
        step = np.zeros_like(lam)
        hessian = newton(lam, x)  # at lam, the point of the last ``at`` call
        try:
            step[open_] = np.linalg.solve(hessian[np.ix_(open_, open_)], grad[open_])
        except np.linalg.LinAlgError as exc:
            raise SolveError(f"MMA dual Newton matrix is singular ({exc})") from exc
        t = 1.0
        for _ in range(DUAL_MAX_HALVINGS):
            lam_t = np.maximum(lam + t * step, 0.0)
            trial = at(lam_t)
            # By concavity the dual did not fall if its gradient at the
            # end of the step still points along the step.
            if trial[1] @ (lam_t - lam) >= 0.0:
                break
            t *= 0.5
        else:
            raise SolveError("MMA dual solve stalled in its step search")
        lam = lam_t
        x, grad = trial
    raise SolveError(
        f"MMA dual solve did not converge in {DUAL_MAX_ITERS} Newton steps "
        f"(dual gradient {np.abs(grad).max():.3g})"
    )
