"""BENCHMARK.json agrees with the code, and inputs follow the seed."""
import json
import re
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent.parent
DOC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_workloads_and_reasons_match_the_code():
    assert {w["name"]: w["why"] for w in DOC["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}


def test_metric_lists_match_the_code():
    assert [(m["name"], m["unit"], m["better"]) for m in DOC["per_layer"]] == (
        layers.per_layer_spec())
    assert {m["name"]: m["unit"] for m in DOC["end_to_end"]} == run.E2E_UNITS
    bounds = {m["name"]: m["bound"] for m in DOC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in DOC["end_to_end"] + DOC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)


def test_layer_metrics_report_every_listed_metric():
    out = layers.layer_metrics([], [], n_ops=1, bytes_per_op=0.0, overhead_s=0.0)
    assert sorted(out) == sorted(n for n, _, _ in layers.per_layer_spec())


def test_a_layer_never_called_reports_zero_and_is_listed():
    recorded = [spans.Span("runner", 0.0, 1.0),
                spans.Span("mma.update", 0.2, 0.5, parent=0)]
    out = layers.layer_metrics(recorded, [], n_ops=1, bytes_per_op=0.0,
                               overhead_s=0.0)
    assert out["mma.update_ms"] == pytest.approx(300.0)
    assert out["runner.self_ms"] == pytest.approx(700.0)
    assert out["darcy.solve_ms"] == 0.0
    missing = layers.not_called(recorded)
    assert "darcy.solve_ms" in missing and "mma.update_ms" not in missing
    assert len(missing) == len(layers.PER_CALL_MS) - 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    for d in "abc":
        (tmp_path / d).mkdir()
    a, b, c = (wl.make_inputs(seed, tmp_path / d) for seed, d in zip((5, 5, 6), "abc"))
    assert a.describe == b.describe != c.describe
    assert a.problem_path.read_text() == b.problem_path.read_text()
    if a.sweep:
        ratio = np.asarray(a.sweep) / np.asarray(workloads.SWEEP_BASE)
        assert np.all(np.abs(np.log(ratio)) <= workloads.K_JITTER)
        assert np.all(np.diff(a.sweep) > 0)
    else:
        base = json.loads(problem_text(wl))["volume_fractions"]
        vf = a.describe["volume_fractions"]
        assert np.all(np.abs(np.subtract(vf, base)) <= workloads.VF_JITTER)


def problem_text(wl):
    return workloads.problem.fixture_path(wl.fixture).read_text()
