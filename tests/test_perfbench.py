"""The benchmark's layer tracer against the package it wraps."""
import importlib
from pathlib import Path

import numpy as np

from pneumotop import optimizer, problem
from pneumotop.model import Model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_layer_tracer_wraps_only_names_the_package_defines(monkeypatch):
    # entering the tracer looks up every function and method it wraps, so
    # renaming one of them fails here and not only in a traced benchmark run
    with _workloads(monkeypatch).layer_tracer([], []) as tracer:
        assert tracer.spans == []


def test_layer_tracer_records_the_solves(monkeypatch, tiny_model):
    # a traced run reads these spans, and each system's size and stored
    # factor entries through FactorizedSystem.a and .lu
    workloads = _workloads(monkeypatch)
    gripper = Model(problem.load_problem("gripper3d"))
    rho_3d = gripper.physical_fields(optimizer.initialize(gripper), 1.0)[1]
    rho_2d = np.full((3, tiny_model.grid.nelem), 0.5)
    fills = []
    with workloads.layer_tracer([], fills) as tracer:
        state = tiny_model.forward(rho_2d)
        tiny_model.sweep(rho_2d, [1.0, 10.0])
        n_2d, fills_2d = len(tracer.spans), list(fills)
        gripper.forward(rho_3d)
    solves = {"linalg.solve", "darcy.solve", "elasticity.solve"}
    factors = {"linalg.factor.pressure", "linalg.factor.displacement"}
    assert solves | factors <= {s.name for s in tracer.spans[:n_2d]}
    # a 3-D system builds its multigrid hierarchy in the span timed as its factor
    assert solves | factors <= {s.name for s in tracer.spans[n_2d:]}
    forward_fills = [
        ("pressure", tiny_model.flow_reduction.free.size, state.pressure.system.lu.nnz),
        ("displacement", tiny_model.elastic_reduction.free.size, state.disp.system.lu.nnz),
    ]
    # the forward, then the sweep's forward and its one updated elastic
    # system, which solves through the base factor
    assert fills_2d == forward_fills * 2 + forward_fills[1:]
