"""The benchmark's layer tracer against the package it wraps."""
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_layer_tracer_wraps_only_names_the_package_defines(monkeypatch):
    # entering the tracer looks up every function and method it wraps, so
    # renaming one of them fails here and not only in a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    with workloads.layer_tracer([], []) as tracer:
        assert tracer.spans == []
