"""MMA update behavior on small analytic programs."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pneumotop import mma as mma_module
from pneumotop.errors import SolveError
from pneumotop.mma import ALBEFA, C_PENALTY, MMA, RAA0, _dual, _Subproblem, _subsolve


def test_active_constraint_toy():
    # minimize -x subject to x <= 0.5 on [0, 1], start 0.25, move 0.5
    mma = MMA()
    x = np.array([0.25])
    for _ in range(30):
        g = np.array([x[0] / 0.5 - 1.0])
        dg = np.array([[2.0]])
        x = mma.update(x, np.array([-1.0]), g, dg, move=0.5)
    assert x[0] == pytest.approx(0.5, abs=1e-4)


def test_zero_gradient_leaves_design_unchanged():
    mma = MMA()
    x = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    x_new = mma.update(
        x, np.zeros(5), np.array([-0.5]), np.zeros((1, 5)), move=0.2
    )
    assert np.allclose(x_new, x, atol=1e-9)


def test_two_variable_kkt_point():
    # minimize (x1-2)^2 + (x2-1)^2 s.t. x1 + x2 <= 1 on [0,1]^2
    # KKT: x = (1, 0) with the constraint active... gradient at (1,0):
    # (-2, -2): lambda balances both; true optimum of the QP on the triangle
    # is x = (1, 0)? minimize distance to (2,1) over {x1+x2<=1, box}:
    # closest point is (1, 0) on the corner of box and constraint.
    mma = MMA()
    x = np.array([0.2, 0.2])
    for _ in range(50):
        df = 2 * (x - np.array([2.0, 1.0]))
        g = np.array([x.sum() - 1.0])
        dg = np.ones((1, 2))
        x = mma.update(x, df, g, dg, move=0.3)
    assert np.allclose(x, [1.0, 0.0], atol=1e-4)


def test_quadratic_active_constraint_kkt():
    # minimize (x1-1)^2 + (x2-1)^2 s.t. x1 + x2 <= 1 on [0,1]^2
    # KKT point x* = (0.5, 0.5) with multiplier 1 (constraint active)
    mma = MMA()
    x = np.array([0.15, 0.35])
    for _ in range(50):
        df = 2 * (x - 1.0)
        g = np.array([x.sum() - 1.0])
        dg = np.ones((1, 2))
        x = mma.update(x, df, g, dg, move=0.3)
    assert np.allclose(x, [0.5, 0.5], atol=1e-4)


def test_move_limit_respected_every_step():
    rng = np.random.default_rng(0)
    mma = MMA()
    x = rng.uniform(0.2, 0.8, 20)
    for _ in range(10):
        df = rng.normal(size=20) * 10
        g = rng.uniform(-0.5, 0.0, 2)
        dg = rng.normal(size=(2, 20))
        x_new = mma.update(x, df, g, dg, move=0.1)
        assert np.max(np.abs(x_new - x)) <= 0.1 + 1e-12
        assert np.all(x_new >= -1e-12) and np.all(x_new <= 1 + 1e-12)
        x = x_new


def test_recovers_feasibility_from_infeasible_start():
    # start violating x1 + x2 <= 0.6
    mma = MMA()
    x = np.array([0.9, 0.9])
    for _ in range(40):
        df = np.array([-1.0, -1.0])  # objective pushes further infeasible
        g = np.array([x.sum() / 0.6 - 1.0])
        dg = np.array([[1 / 0.6, 1 / 0.6]])
        x = mma.update(x, df, g, dg, move=0.2)
    assert x.sum() <= 0.6 + 1e-6


def test_nonfinite_gradients_rejected():
    mma = MMA()
    with pytest.raises(SolveError, match="non-finite"):
        mma.update(
            np.array([0.5, 0.5]),
            np.array([np.nan, 0.0]),
            np.array([-1.0]),
            np.zeros((1, 2)),
            move=0.2,
        )


def test_huge_gradient_scales_are_handled():
    mma = MMA()
    x = np.array([0.5, 0.5, 0.5])
    x_new = mma.update(
        x,
        np.array([-1e9, 2e8, -5e7]),
        np.array([-0.2]),
        np.array([[1e-3, 1e-3, 1e-3]]),
        move=0.2,
    )
    assert np.all(np.isfinite(x_new))
    assert np.max(np.abs(x_new - x)) <= 0.2 + 1e-12


def test_conservative_step_shortens_step_and_covers_observed_f():
    # f(x) = 100 sum (x - 0.55)^2 on [0, 1]^3: from x0 the first step runs to
    # the move limit and overshoots the minimum, so f rises
    def f(x):
        return float(100.0 * np.sum((x - 0.55) ** 2))

    x0 = np.array([0.5, 0.6, 0.45])
    mma = MMA()
    trial = mma.update(x0, 200.0 * (x0 - 0.55), np.array([-1.0]), np.zeros((1, 3)),
                       move=0.2)
    assert f(trial) > f(x0)
    assert f(x0) + mma._sub.objective_change(trial) < f(trial)

    resolved = mma.conservative_step(trial, f(trial) - f(x0))
    assert np.max(np.abs(resolved - x0)) < np.max(np.abs(trial - x0))
    # the raised approximation lies above the value observed at the trial
    assert f(x0) + mma._sub.objective_change(trial) >= f(trial)
    assert f(resolved) < f(x0)


def test_conservative_step_keeps_asymptotes_and_history():
    rng = np.random.default_rng(1)
    mma = MMA()
    x = rng.uniform(0.2, 0.8, 10)
    for _ in range(3):
        x_prev = x
        x = mma.update(x, rng.normal(size=10), np.array([-0.5]), rng.normal(size=(1, 10)),
                       move=0.2)
    low, upp, xold1, xold2 = mma.low.copy(), mma.upp.copy(), mma.xold1, mma.xold2
    resolved = mma.conservative_step(x, 1.0)
    assert np.array_equal(mma.low, low) and np.array_equal(mma.upp, upp)
    assert mma.xold1 is xold1 and mma.xold2 is xold2
    assert np.max(np.abs(resolved - x_prev)) < np.max(np.abs(x - x_prev))


def test_conservative_step_without_update_raises():
    with pytest.raises(SolveError, match="no subproblem"):
        MMA().conservative_step(np.array([0.5, 0.5]), 1.0)


def _flat_subproblem(n=3000, seed=0):
    """The arguments of ``_subsolve`` for one volume-like constraint
    (m = 1) that binds, flat objective gradients of about 1e-3 around a
    random x, asymptotes at +-0.5 and a move limit of 0.2."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.2, 0.8, n)
    dgdx = np.full((1, n), 2.0 / n)
    sub = _Subproblem(
        x=x, df0dx=-1e-3 * rng.uniform(0.5, 1.5, n), g=np.array([x.mean() / 0.5 - 1.0]),
        dgdx=dgdx, low=x - 0.5, upp=x + 0.5, move=0.2, scale=1.0, raa0=RAA0,
    )
    alfa = np.maximum(np.maximum(sub.low + ALBEFA * (x - sub.low), x - sub.move), 0.0)
    beta = np.minimum(np.minimum(sub.upp - ALBEFA * (sub.upp - x), x + sub.move), 1.0)
    (p0, q0), (pp, qq) = sub.terms()
    b = pp @ (1.0 / (sub.upp - x)) + qq @ (1.0 / (x - sub.low)) - sub.g
    return sub.low, sub.upp, alfa, beta, p0, q0, pp, qq, b


def test_subsolve_matches_bisection_on_the_dual():
    low, upp, alfa, beta, p0, q0, pp, qq, b = args = _flat_subproblem()

    def x_of(lam):
        sp, sq = np.sqrt(p0 + lam * pp[0]), np.sqrt(q0 + lam * qq[0])
        return np.clip((sp * low + sq * upp) / (sp + sq), alfa, beta)

    def dual_gradient(lam):  # falls monotonically in lam
        x = x_of(lam)
        return float(pp[0] @ (1.0 / (upp - x)) + qq[0] @ (1.0 / (x - low))
                     - max(lam - C_PENALTY, 0.0) - b[0])

    assert dual_gradient(0.0) > 0.0  # the constraint binds
    lo, hi = 0.0, 1.0
    while dual_gradient(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if dual_gradient(mid) > 0.0 else (lo, mid)
    x_ref = x_of(0.5 * (lo + hi))
    assert np.max(np.abs(_subsolve(*args) - x_ref)) <= 1e-9


def test_subsolve_out_of_iterations_raises(monkeypatch):
    monkeypatch.setattr(mma_module, "DUAL_MAX_ITERS", 1)
    with pytest.raises(SolveError, match="did not converge"):
        _subsolve(*_flat_subproblem())


def test_update_takes_its_move_limit_from_the_caller():
    # MMA keeps no move limit or iteration count of its own: each update
    # moves by the limit it is given, the first two from the initial
    # asymptotes, and the third widens them after two steps the same way
    mma = MMA()
    assert not hasattr(mma, "move") and not hasattr(mma, "iteration")
    x, df, g, dg = np.full(4, 0.3), -np.ones(4), np.array([-1.0]), np.zeros((1, 4))
    with pytest.raises(TypeError):
        mma.update(x, df, g, dg)
    widths = (1.0, 1.0, mma_module.ASYINCR)
    for move, width in zip((0.05, 0.1, 0.2), widths):
        x_new = mma.update(x, df, g, dg, move=move)
        assert np.allclose(x_new - x, move, rtol=1e-12)
        assert np.allclose(mma.upp - mma.low, 2 * mma_module.ASYINIT * width, rtol=1e-12)
        x = x_new


def _reference_convex_terms(grad, rho, sub):
    """``_convex_terms`` as it was written before it worked in place."""
    p = np.maximum(grad, 0.0)
    q = np.maximum(-grad, 0.0)
    pq = 0.001 * (p + q) + rho
    return (p + pq) * (sub.upp - sub.x) ** 2, (q + pq) * (sub.x - sub.low) ** 2


def _reference_dual(low, upp, alfa, beta, p0, q0, pp, qq, b):
    """``_dual`` as it was written before it worked in place: the formulas
    its buffers must reproduce bit for bit."""
    def at(lam):
        plam = p0 + lam @ pp
        qlam = q0 + lam @ qq
        sp, sq = np.sqrt(plam), np.sqrt(qlam)
        x_free = (sp * low + sq * upp) / (sp + sq)
        x = np.clip(x_free, alfa, beta)
        ux, xl = upp - x, x - low
        y = np.maximum(lam - C_PENALTY, 0.0)
        grad = pp @ (1.0 / ux) + qq @ (1.0 / xl) - y - b
        dgdx = pp / ux**2 - qq / xl**2
        curvature = 2.0 * (plam / ux**3 + qlam / xl**3)
        weight = np.where(x == x_free, 1.0, mma_module.BOUND_CURVATURE) / curvature
        newton = (dgdx * weight) @ dgdx.T + np.diag((lam > C_PENALTY).astype(float))
        return x, grad, newton

    return at


def _reference_subsolve(*args):
    """``_subsolve`` on ``_reference_dual``."""
    b = args[-1]
    at = _reference_dual(*args)
    lam = np.zeros(b.size)
    x, grad, newton = at(lam)
    for _ in range(mma_module.DUAL_MAX_ITERS):
        open_ = (lam > 0.0) | (grad > 0.0)
        if np.all(np.abs(grad[open_]) <= mma_module.DUAL_TOL * (1.0 + lam[open_])):
            return x
        step = np.zeros_like(lam)
        try:
            step[open_] = np.linalg.solve(newton[np.ix_(open_, open_)], grad[open_])
        except np.linalg.LinAlgError as exc:
            raise SolveError("MMA dual Newton matrix is singular") from exc
        t = 1.0
        for _ in range(mma_module.DUAL_MAX_HALVINGS):
            lam_t = np.maximum(lam + t * step, 0.0)
            trial = at(lam_t)
            if trial[1] @ (lam_t - lam) >= 0.0:
                break
            t *= 0.5
        else:
            raise SolveError("MMA dual solve stalled in its step search")
        lam = lam_t
        x, grad, newton = trial
    raise SolveError("MMA dual solve did not converge")


@st.composite
def _subproblems(draw):
    """A subproblem as ``MMA.update`` builds one: m of 1 to 4 constraints,
    variables on the box bounds and off them, asymptotes from 0.01 to 10
    away, and gradients from 1e-12 to 1e9 in size, some of them zero."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 24))
    unit = st.floats(0.0, 1.0)
    x = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), unit),
                               min_size=n, max_size=n)))
    gaps = st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)
    low, upp = x - np.array(draw(gaps)), x + np.array(draw(gaps))
    magnitude = st.one_of(st.just(0.0), st.floats(-12.0, 9.0).map(lambda e: 10.0**e))
    signed = st.tuples(magnitude, st.sampled_from([-1.0, 1.0])).map(lambda t: t[0] * t[1])
    df0dx = np.array(draw(st.lists(signed, min_size=n, max_size=n)))
    dgdx = np.array(draw(st.lists(signed, min_size=m * n, max_size=m * n))).reshape(m, n)
    g = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
    scale = max(np.abs(df0dx).max(), 1.0)
    return _Subproblem(x=x, df0dx=df0dx / scale, g=g, dgdx=dgdx, low=low, upp=upp,
                       move=draw(st.floats(0.01, 0.5)), scale=scale, raa0=RAA0)


def _outcome(solve, *args):
    try:
        return solve(*args)
    except SolveError as exc:
        return type(exc)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(_subproblems(), st.lists(st.one_of(st.just(C_PENALTY), st.floats(0.0, 3.0 * C_PENALTY)),
                               min_size=4, max_size=4))
def test_in_place_dual_is_bit_for_bit_the_allocating_one(sub, lams):
    x, low, upp = sub.x, sub.low, sub.upp
    alfa = np.maximum(np.maximum(low + ALBEFA * (x - low), x - sub.move), 0.0)
    beta = np.minimum(np.minimum(upp - ALBEFA * (upp - x), x + sub.move), 1.0)
    terms = sub.terms()
    reference = (_reference_convex_terms(sub.df0dx, sub.raa0, sub),
                 _reference_convex_terms(sub.dgdx, RAA0, sub))
    for got, want in zip(terms, reference):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    (p0, q0), (pp, qq) = terms
    b = pp @ (1.0 / (upp - x)) + qq @ (1.0 / (x - low)) - sub.g
    args = (low, upp, alfa, beta, p0, q0, pp, qq, b)

    # the dual at lam = 0, at C_PENALTY and on both sides of it, one
    # evaluation after another in the same buffers: each result equals the
    # reference's and is left as it was by the evaluations after it
    (at, newton), reference_at = _dual(*args), _reference_dual(*args)
    m = b.size
    points = [np.zeros(m)] + [np.resize(lams[i:], m) for i in range(len(lams))]
    results = [(x, grad, newton(lam, x)) for lam in points for x, grad in [at(lam)]]
    for lam, got in zip(points, results):
        assert all(np.array_equal(a, w) for a, w in zip(got, reference_at(lam)))

    got, want = _outcome(_subsolve, *args), _outcome(_reference_subsolve, *args)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
    else:
        assert got is want


def test_returned_designs_outlive_later_updates():
    # the update works in buffers of its own: no x it returned, and no x it
    # was given, is written by a later update or re-solve
    rng = np.random.default_rng(4)
    mma = MMA()
    x0 = rng.uniform(0.2, 0.8, 50)
    given_ = x0.copy()
    x1 = mma.update(x0, rng.normal(size=50), np.array([-0.5, 0.2]),
                    rng.normal(size=(2, 50)), move=0.2)
    first = x1.copy()
    x2 = mma.update(x1, rng.normal(size=50), np.array([-0.3, 0.1]),
                    rng.normal(size=(2, 50)), move=0.2)
    second = x2.copy()
    x3 = mma.conservative_step(x2, 1.0)
    assert np.array_equal(x0, given_) and np.array_equal(x1, first)
    assert np.array_equal(x2, second)
    assert not np.shares_memory(x3, x2) and not np.shares_memory(mma.xold1, x1)
