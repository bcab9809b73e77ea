"""Shared fixtures: small problem factories and cached expensive runs.

Optimization runs are session-scoped; acceptance and bench tests reuse the
same converged artifacts instead of re-optimizing per test.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from pneumotop import fixtures as fixture_lib
from pneumotop import io, problem, runner
from pneumotop.model import Model


def tiny_problem_dict(**overrides):
    """A 12x6 bending strip: inlet off-center so the start is not degenerate."""
    raw = {
        "name": "tiny",
        "grid": {"dim": 2, "nel": [12, 6], "h_m": 0.001},
        "regions": [
            {"role": "fixed_support", "box_m": [[0, 0], [0, 0.006]]},
            {"role": "pressure_inlet", "box_m": [[0, 0.003], [0, 0.005]]},
            {"role": "pressure_drain", "box_m": [[0.012, 0], [0.012, 0.006]]},
            {
                "role": "output",
                "box_m": [[0.012, 0.002], [0.012, 0.004]],
                "direction": [0, -1],
                "k_out_n_per_m": 10.0,
            },
        ],
        "materials": {"E_pa": [1e6, 1e7, 1e8]},
        "flow": {"P_in_pa": 5e4},
        "volume_fractions": [0.3, 0.2, 0.2],
        "optimizer": {"max_iters": 60},
    }
    raw.update(overrides)
    return raw


@pytest.fixture()
def tiny_spec():
    return problem.parse_problem(tiny_problem_dict())


@pytest.fixture()
def tiny_model(tiny_spec):
    return Model(tiny_spec)


@pytest.fixture(scope="session")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("runs")


@pytest.fixture(scope="session")
def finger2d_run(out_root):
    """Converged baseline finger2d with heuristic-closure artifacts."""
    spec = problem.load_problem("finger2d", closure="heuristic")
    out = out_root / "finger2d_baseline"
    summary = runner.optimize_problem(spec, out)
    return {"spec": spec, "out": out, "summary": summary}


@pytest.fixture(scope="session")
def finger2d_skin_run(out_root):
    spec = problem.load_problem("finger2d", closure="skin")
    out = out_root / "finger2d_skin"
    summary = runner.optimize_problem(spec, out)
    return {"spec": spec, "out": out, "summary": summary}


@pytest.fixture(scope="session")
def gripper3d_run(out_root):
    """Three optimizer iterations of gripper3d (no closure)."""
    spec = problem.load_problem("gripper3d", max_iters=3)
    out = out_root / "gripper3d_3"
    summary = runner.optimize_problem(spec, out)
    return {"spec": spec, "out": out, "summary": summary}


def _penalty_spec(vf1: float):
    spec = problem.load_problem("finger2d", closure="energy_penalty")
    return replace(spec, volume_fractions=(vf1, 0.2, 0.2))


@pytest.fixture(scope="session")
def finger2d_penalty_runs(out_root):
    out = {}
    for vf1 in (0.2, 0.4):
        d = out_root / f"finger2d_penalty_{vf1}"
        summary = runner.optimize_problem(_penalty_spec(vf1), d)
        out[vf1] = {"out": d, "summary": summary}
    return out


@pytest.fixture(scope="session")
def pneunet_design_path(out_root):
    gspec, rho = fixture_lib.make_pneunet2d_design()
    path = out_root / "pneunet2d.design.json"
    io.save_design(path, gspec, rho)
    return path
