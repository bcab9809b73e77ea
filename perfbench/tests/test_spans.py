"""Self-time arithmetic over nested spans, and wrapper restoration."""
import types

import pytest

import spans
import workloads
from pneumotop import adjoint, filtering, io, linalg, mma, runner
from pneumotop.model import Model


def test_self_time_subtracts_children_only_once():
    s = [
        spans.Span("root", 0.0, 10.0),
        spans.Span("a", 1.0, 4.0, parent=0),
        spans.Span("a.inner", 2.0, 3.0, parent=1),
        spans.Span("b", 5.0, 9.0, parent=0),
    ]
    assert spans.self_times(s) == [10.0 - 3.0 - 4.0, 3.0 - 1.0, 1.0, 4.0]


def test_aggregate_sums_self_time_per_name():
    s = [
        spans.Span("x", 0.0, 4.0),
        spans.Span("y", 1.0, 2.0, parent=0),
        spans.Span("x", 5.0, 6.0),
    ]
    assert spans.aggregate(s) == {
        "x": {"count": 2, "self_s": 4.0},
        "y": {"count": 1, "self_s": 1.0},
    }


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    mod = types.SimpleNamespace()
    mod.inner = lambda: "in"
    mod.outer = lambda: mod.inner() + "out"
    t = spans.Tracer(clock=lambda: float(next(ticks)))
    t.wrap(mod, "outer", "outer").wrap(mod, "inner", "inner")
    with t:
        assert mod.outer() == "inout"
    outer, inner = t.spans
    assert (outer.start, outer.end, outer.parent) == (0.0, 3.0, -1)
    assert (inner.start, inner.end, inner.parent) == (1.0, 2.0, 0)
    assert spans.self_times(t.spans) == [2.0, 1.0]


def test_wrapper_cost_is_small_and_positive():
    assert 0.0 < spans.wrapper_cost_s(calls=2000, repeats=3) < 1e-3


def _targets():
    return [
        (runner, "optimize_problem"), (runner, "evaluate_design"),
        (runner, "load_problem"), (adjoint, "total_gradient"),
        (adjoint, "chain_sensitivities"), (filtering, "chain_sensitivities"),
        (io, "save_design"), (io, "export_vtk"), (io, "load_design"),
    ]


def _class_targets():
    return [
        (linalg.FactorizedSystem, "__init__"), (linalg.FactorizedSystem, "solve"),
        (mma.MMA, "update"), (Model, "__init__"), (Model, "forward"),
        (io.HistoryWriter, "__call__"),
    ]


def test_wrappers_are_restored_after_the_traced_run():
    before = [getattr(o, a) for o, a in _targets()]
    before += [vars(o)[a] for o, a in _class_targets()]
    tracer = workloads.layer_tracer([], [])
    with tracer:
        assert runner.optimize_problem is not before[0]
        assert vars(mma.MMA)["update"] is not before[-4]
    after = [getattr(o, a) for o, a in _targets()]
    after += [vars(o)[a] for o, a in _class_targets()]
    assert all(x is y for x, y in zip(before, after))


def test_wrappers_are_restored_when_the_run_raises():
    original = vars(linalg.FactorizedSystem)["solve"]
    with pytest.raises(RuntimeError):
        with workloads.layer_tracer([], []):
            raise RuntimeError("operation failed")
    assert vars(linalg.FactorizedSystem)["solve"] is original
