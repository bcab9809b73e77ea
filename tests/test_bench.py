"""Suite mechanics: case merging, failure isolation, output tables."""
import json

import numpy as np
import pytest

from pneumotop import bench, cli, io, problem
from pneumotop.errors import ConfigError


def test_duplicate_labels_rejected(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(
        json.dumps(
            {
                "cases": [
                    {"label": "a", "problem": "pneunet2d"},
                    {"label": "a", "problem": "pneunet2d"},
                ]
            }
        )
    )
    with pytest.raises(ConfigError, match="duplicate"):
        bench.load_suite(suite)


def test_suite_on_fixed_designs(tmp_path, pneunet_design_path):
    cases = [
        bench.ComparisonCase(
            label="pneunet", problem="pneunet2d", design=str(pneunet_design_path)
        ),
        bench.ComparisonCase(
            label="missing", problem="pneunet2d", design=str(tmp_path / "nope.json")
        ),
    ]
    out = tmp_path / "suite"
    summary = bench.run_suite(cases, out, sweep=[1.0, 10.0, 100.0])
    # failed case is recorded, suite continues
    assert "missing" in summary["failed"]
    assert list(summary["cases"]) == ["pneunet"]
    for metric in ("u_out", "SE", "W", "E_t"):
        lines = (out / f"{metric}.csv").read_text().splitlines()
        assert lines[0] == "k_out,pneunet"
        assert len(lines) == 4
    assert (out / "suite_summary.json").exists()
    orders = summary["orderings_desc"]
    assert orders["u_out_softest"] == ["pneunet"]


def test_unknown_closure_rejected():
    with pytest.raises(ConfigError, match="closure"):
        bench.ComparisonCase(label="x", problem="finger2d", closure="weld")


@pytest.mark.parametrize("content", [
    "{not json",
    json.dumps({"cases": {"label": "a", "problem": "pneunet2d"}}),
    json.dumps({"cases": [{"problem": "pneunet2d"}]}),
    json.dumps({"cases": [{"label": "a"}]}),
    json.dumps({"cases": ["a"]}),
    json.dumps({"cases": [], "sweep_n_per_m": 10.0}),
    json.dumps({"cases": [], "sweep_n_per_m": []}),
    json.dumps({"cases": [], "sweep_n_per_m": [1, "a"]}),
    json.dumps({"cases": [], "sweep_n_per_m": [1, True]}),
    json.dumps({"cases": [], "sweep_n_per_m": [1, 0]}),
    json.dumps({"cases": [], "sweep_n_per_m": [-1, 2]}),
    '{"cases": [], "sweep_n_per_m": [1, Infinity]}',
    '{"cases": [], "sweep_n_per_m": [NaN]}',
    json.dumps({"cases": [{"label": "a", "problem": "pneunet2d", "design": "d.json",
                           "closure": "heuristic"}]}),
])
def test_malformed_suite_exits_3(tmp_path, content):
    suite = tmp_path / "suite.json"
    suite.write_text(content)
    with pytest.raises(ConfigError):
        bench.load_suite(suite)
    assert cli.main(["bench", str(suite), "--out-dir", str(tmp_path / "out")]) == 3


def test_decreasing_suite_sweep_exits_3_before_any_case_runs(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(bench.runner, "optimize_problem", lambda *a: calls.append(a))
    monkeypatch.setattr(bench.runner, "evaluate_design", lambda *a, **k: calls.append(a))
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"sweep_n_per_m": [10, 1], "cases": [
        {"label": "a", "problem": "finger2d"},
    ]}))
    with pytest.raises(ConfigError, match="strictly increasing"):
        bench.load_suite(suite)
    assert cli.main(["bench", str(suite), "--out-dir", str(tmp_path / "out")]) == 3
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_energy_penalty_case_optimizes_energy_penalty_objective(tmp_path, monkeypatch):
    captured = []

    def optimize_problem(spec, out_dir):
        captured.append(spec)
        return {"design": "design.json", "design_sealed": None}

    def evaluate_design(design_path, problem_path, sweep=None):
        return [{"k_out": k, "u_out": 1.0 / k, "SE": 1.0, "W": 0.5 / k, "E_t": 1.0}
                for k in sweep]

    monkeypatch.setattr(bench.runner, "optimize_problem", optimize_problem)
    monkeypatch.setattr(bench.runner, "evaluate_design", evaluate_design)
    case = bench.ComparisonCase(label="penalty", problem="finger2d", closure="energy_penalty")
    summary = bench.run_suite([case], tmp_path / "suite", sweep=[1.0, 10.0])
    assert summary["failed"] == {}
    (spec,) = captured
    assert spec.closure.mode == "energy_penalty"
    assert spec.objective.variant == "energy_penalty"
    assert spec == problem.load_problem("finger2d", closure="energy_penalty")


def test_unexpected_error_fails_only_its_case(tmp_path, monkeypatch, pneunet_design_path):
    def evaluate_design(design_path, problem_path, sweep=None):
        if "broken" in str(design_path):
            raise RuntimeError("boom")
        return [{"k_out": k, "u_out": 1.0 / k, "SE": 1.0, "W": 0.5 / k, "E_t": 1.0}
                for k in sweep]

    monkeypatch.setattr(bench.runner, "evaluate_design", evaluate_design)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"sweep_n_per_m": [1.0, 10.0], "cases": [
        {"label": "ok", "problem": "pneunet2d", "design": str(pneunet_design_path)},
        {"label": "bad", "problem": "pneunet2d", "design": str(tmp_path / "broken.json")},
    ]}))
    out = tmp_path / "out"
    assert cli.main(["bench", str(suite), "--out-dir", str(out)]) == 1
    summary = json.loads((out / "suite_summary.json").read_text())
    assert summary["failed"] == {"bad": "RuntimeError: boom"}
    assert list(summary["cases"]) == ["ok"]
    for metric in bench.METRICS:
        assert (out / f"{metric}.csv").read_text().splitlines()[0] == "k_out,ok"
