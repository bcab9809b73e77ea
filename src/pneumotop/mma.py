"""Method of moving asymptotes for bound-constrained nonlinear programs.

Minimizes f(x) subject to g_i(x) <= 0 and box bounds by solving a separable
convex approximation each iteration. Asymptotes contract under oscillation
and relax under steady progress; the convex subproblem is solved with a
primal-dual Newton interior-point method on its dual-augmented form, which
is always feasible thanks to elastic constraint variables.

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

    def objective_terms(self):
        return _convex_terms(self.df0dx, self.raa0, self)

    def objective_change(self, xt):
        """The approximation of f(xt) - f(x), in the caller's units."""
        p0, q0 = self.objective_terms()
        return self.scale * float(
            np.sum(p0 / (self.upp - xt) + q0 / (xt - self.low))
            - np.sum(p0 / (self.upp - self.x) + q0 / (self.x - self.low))
        )


def _convex_terms(grad, rho, sub: _Subproblem):
    """MMA's p and q coefficients for gradient(s) ``grad`` with curvature ``rho``."""
    p = np.maximum(grad, 0.0)
    q = np.maximum(-grad, 0.0)
    pq = 0.001 * (p + q) + rho
    return (p + pq) * (sub.upp - sub.x) ** 2, (q + pq) * (sub.x - sub.low) ** 2


class MMA:
    """Stateful MMA driver for a fixed problem size.

    Parameters
    ----------
    n, m : int
        Number of design variables and inequality constraints.
    move : float
        Move limit as a fraction of the box width per update.
    """

    def __init__(self, n: int, m: int, move: float = 0.2):
        self.n = n
        self.m = m
        self.move = move
        self.iteration = 0
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
        move: float | None = None,
    ) -> np.ndarray:
        """One MMA step; returns the new design within move limits and [0, 1].

        If the subproblem fails at the full move limit it is solved again,
        with the same asymptotes, at half of it.
        """
        x = np.asarray(x, dtype=float)
        df0dx = np.asarray(df0dx, dtype=float)
        g = np.atleast_1d(np.asarray(g, dtype=float))
        dgdx = np.atleast_2d(np.asarray(dgdx, dtype=float))
        if not (np.all(np.isfinite(df0dx)) and np.all(np.isfinite(dgdx))):
            raise SolveError("MMA received non-finite gradients")
        move = self.move if move is None else min(move, self.move)

        if not np.any(df0dx) and not np.any(dgdx):
            self._sub = None
            return x.copy()

        # The subproblem optimum is invariant to the objective's scale, but
        # the interior-point tolerances are absolute; normalize so residual
        # magnitudes stay O(1) whatever the caller's objective units are.
        scale = max(np.abs(df0dx).max(), 1.0)

        self.iteration += 1
        self.low, self.upp = self._asymptotes(x)
        sub = _Subproblem(
            x=x.copy(), df0dx=df0dx / scale, g=g, dgdx=dgdx, low=self.low,
            upp=self.upp, move=move, scale=scale,
            raa0=max(0.1 * self._sub.raa0, RAA0) if self._sub else RAA0,
        )
        xnew = self._solve(sub)
        self._sub = sub
        self.xold2 = self.xold1
        self.xold1 = x.copy()
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
        if self.iteration <= 2 or self.xold2 is None:
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
        """Solve ``sub`` at its move limit, retrying once at half of it."""
        xnew = self._solve_at(sub, sub.move)
        if xnew is None:
            sub.move /= 2.0
            xnew = self._solve_at(sub, sub.move)
        if xnew is None:
            raise SolveError("MMA subproblem failed to converge after move-limit retry")
        return xnew

    def _solve_at(self, sub: _Subproblem, move):
        x, low, upp = sub.x, sub.low, sub.upp
        alfa = np.maximum(np.maximum(low + ALBEFA * (x - low), x - move), 0.0)
        beta = np.minimum(np.minimum(upp - ALBEFA * (upp - x), x + move), 1.0)
        p0, q0 = sub.objective_terms()
        pp, qq = _convex_terms(sub.dgdx, RAA0, sub)
        b = pp @ (1.0 / (upp - x)) + qq @ (1.0 / (x - low)) - sub.g
        return _subsolve(low, upp, alfa, beta, p0, q0, pp, qq, b)


def _subsolve(low, upp, alfa, beta, p0, q0, pp, qq, b, epsimin=1e-9):
    """Primal-dual interior-point solve of the separable MMA subproblem.

    Returns the optimal x, or None if the Newton iteration stalls.
    """
    n = low.size
    m = b.size
    a0 = 1.0
    a = np.zeros(m)
    c = np.full(m, C_PENALTY)
    d = np.ones(m)

    x = 0.5 * (alfa + beta)
    y = np.ones(m)
    z = 1.0
    lam = np.ones(m)
    xsi = np.maximum(1.0 / (x - alfa), 1.0)
    eta = np.maximum(1.0 / (beta - x), 1.0)
    mu = np.maximum(1.0, 0.5 * c)
    zet = 1.0
    s = np.ones(m)

    def residuals(x, y, z, lam, xsi, eta, mu, zet, s, epsi):
        ux1 = upp - x
        xl1 = x - low
        plam = p0 + lam @ pp
        qlam = q0 + lam @ qq
        gvec = pp @ (1.0 / ux1) + qq @ (1.0 / xl1)
        dpsidx = plam / ux1**2 - qlam / xl1**2
        rex = dpsidx - xsi + eta
        rey = c + d * y - mu - lam
        rez = a0 - zet - a @ lam
        relam = gvec - a * z - y + s - b
        rexsi = xsi * (x - alfa) - epsi
        reeta = eta * (beta - x) - epsi
        remu = mu * y - epsi
        rezet = zet * z - epsi
        res = lam * s - epsi
        full = np.concatenate(
            [rex, rey, [rez], relam, rexsi, reeta, remu, [rezet], res]
        )
        return np.linalg.norm(full), np.abs(full).max()

    epsi = 1.0
    while epsi > epsimin:
        resinorm, resimax = residuals(x, y, z, lam, xsi, eta, mu, zet, s, epsi)
        for _ in range(200):
            if resimax <= 0.9 * epsi:
                break
            ux1 = upp - x
            xl1 = x - low
            ux2 = ux1**2
            xl2 = xl1**2
            ux3 = ux1 * ux2
            xl3 = xl1 * xl2
            plam = p0 + lam @ pp
            qlam = q0 + lam @ qq
            gvec = pp @ (1.0 / ux1) + qq @ (1.0 / xl1)
            gg = pp / ux2[None, :] - qq / xl2[None, :]
            dpsidx = plam / ux2 - qlam / xl2
            delx = dpsidx - epsi / (x - alfa) + epsi / (beta - x)
            dely = c + d * y - lam - epsi / y
            delz = a0 - a @ lam - epsi / z
            dellam = gvec - a * z - y - b + epsi / lam
            diagx = 2.0 * (plam / ux3 + qlam / xl3)
            diagx += xsi / (x - alfa) + eta / (beta - x)
            diagy = d + mu / y
            diaglam = s / lam
            diaglamyi = diaglam + 1.0 / diagy

            blam = dellam + dely / diagy - gg @ (delx / diagx)
            alam = np.diag(diaglamyi) + (gg / diagx[None, :]) @ gg.T
            aa = np.zeros((m + 1, m + 1))
            aa[:m, :m] = alam
            aa[:m, m] = a
            aa[m, :m] = a
            aa[m, m] = -zet / z
            bb = np.concatenate([blam, [delz]])
            try:
                solut = np.linalg.solve(aa, bb)
            except np.linalg.LinAlgError:
                return None
            dlam = solut[:m]
            dz = solut[m]
            dx = -delx / diagx - (dlam @ gg) / diagx
            dy = -dely / diagy + dlam / diagy
            dxsi = -xsi + epsi / (x - alfa) - (xsi * dx) / (x - alfa)
            deta = -eta + epsi / (beta - x) + (eta * dx) / (beta - x)
            dmu = -mu + epsi / y - (mu * dy) / y
            dzet = -zet + epsi / z - zet * dz / z
            ds = -s + epsi / lam - (s * dlam) / lam

            xx = np.concatenate([y, [z], lam, xsi, eta, mu, [zet], s])
            dxx = np.concatenate([dy, [dz], dlam, dxsi, deta, dmu, [dzet], ds])
            stepxx = -1.01 * dxx / xx
            stepalfa = -1.01 * dx / (x - alfa)
            stepbeta = 1.01 * dx / (beta - x)
            stminv = max(stepxx.max(), stepalfa.max(), stepbeta.max(), 1.0)
            steg = 1.0 / stminv

            xold, yold, zold = x, y, z
            lamold, xsiold, etaold = lam, xsi, eta
            muold, zetold, sold = mu, zet, s
            ok = False
            for _ in range(50):
                x = xold + steg * dx
                y = yold + steg * dy
                z = zold + steg * dz
                lam = lamold + steg * dlam
                xsi = xsiold + steg * dxsi
                eta = etaold + steg * deta
                mu = muold + steg * dmu
                zet = zetold + steg * dzet
                s = sold + steg * ds
                newnorm, newmax = residuals(x, y, z, lam, xsi, eta, mu, zet, s, epsi)
                if newnorm < 2.0 * resinorm:
                    ok = True
                    break
                steg *= 0.5
            if not ok:
                return None
            resinorm, resimax = newnorm, newmax
        else:
            return None
        epsi *= 0.1
    return x
