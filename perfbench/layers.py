"""Per-layer metrics from the spans of a traced run.

Every ``*_ms`` metric is the mean self time per call of the wrapped
function: its span minus the durations of its child spans. ``*_count``
metrics are calls per operation (one optimize_problem or evaluate_design
call). A layer the workload never calls reports 0, and the report lists it
under ``layers_not_called``.

``MOVES`` records, for each layer metric, the end-to-end metric and the
workloads it should move; ``step_ms`` is the per-iteration time on the
optimize workloads and the per-sweep time on the sweep.
"""
from __future__ import annotations

import statistics

import spans

CONTEXTS = ("pressure", "displacement")
FACTOR_ENTRY_BYTES = 12  # float64 value plus int32 row index per stored entry

# metric name -> span name, for the mean-self-time-per-call metrics.
PER_CALL_MS = {
    "problem.load_ms": "problem.load",
    "model.init_ms": "model.init",
    "model.forward_ms": "model.forward",
    "filtering.project_ms": "filtering.project",
    "filtering.chain_ms": "filtering.chain",
    "darcy.assemble_ms": "darcy.assemble",
    "darcy.solve_ms": "darcy.solve",
    "elasticity.assemble_ms": "elasticity.assemble",
    "elasticity.solve_ms": "elasticity.solve",
    "linalg.factor_ms.pressure": "linalg.factor.pressure",
    "linalg.factor_ms.displacement": "linalg.factor.displacement",
    "linalg.solve_ms": "linalg.solve",
    "adjoint.gradient_ms": "adjoint.gradient",
    "adjoint.solves_ms": "adjoint.solves",
    "mma.update_ms": "mma.update",
    "optimizer.self_ms": "optimizer",
    "runner.self_ms": "runner",
    "closure.skin_ms": "closure.skin",
    "closure.seal_check_ms": "closure.seal_check",
    "io.save_design_ms": "io.save_design",
    "io.export_vtk_ms": "io.export_vtk",
    "io.history_ms": "io.history",
    "io.load_design_ms": "io.load_design",
}

# metric name -> span name, for the calls-per-operation metrics.
PER_OP_COUNT = {
    "mma.update_count": "mma.update",
    "model.forward_count": "model.forward",
    "linalg.solve_count": "linalg.solve",
}

OPT = ("finger2d-opt", "gripper3d-opt")
MOVES = {
    "problem.load_ms": ("setup_s", OPT + ("pneunet-sweep",)),
    "model.init_ms": ("setup_s", OPT + ("pneunet-sweep",)),
    "model.forward_ms": ("step_ms_p50", OPT + ("pneunet-sweep",)),
    "filtering.project_ms": ("step_ms_p50", ("finger2d-opt",)),
    "filtering.chain_ms": ("step_ms_p50", ("finger2d-opt",)),
    "darcy.assemble_ms": ("step_ms_p50", ("pneunet-sweep", "gripper3d-opt")),
    "darcy.solve_ms": ("step_ms_p50", ("pneunet-sweep", "gripper3d-opt")),
    "elasticity.assemble_ms": ("step_ms_p50", OPT),
    "elasticity.solve_ms": ("step_ms_p50", OPT),
    "linalg.*": ("step_ms_p50, peak_rss_mb", ("gripper3d-opt", "pneunet-sweep")),
    "adjoint.*": ("step_ms_p50", OPT),
    "mma.*": ("step_ms_p50", ("finger2d-opt",)),
    "optimizer.update_ratio": ("step_ms_p50", OPT),
    "optimizer.self_ms": ("wall_s", OPT),
    "runner.self_ms": ("wall_s, step_ms_p50", OPT + ("pneunet-sweep",)),
    "model.forward_count": ("wall_s, step_ms_p50", OPT + ("pneunet-sweep",)),
    "closure.*": ("wall_s", ("finger2d-opt",)),
    "io.*": ("wall_s on finger2d-opt, setup_s on pneunet-sweep",
             ("finger2d-opt", "pneunet-sweep")),
    "trace.overhead_s": ("none: estimated traced minus untraced wall_s", ()),
}


def layer_metrics(all_spans, fills, n_ops: int, bytes_per_op: float,
                  overhead_s: float) -> dict:
    """Per-layer metric values from the spans of ``n_ops`` traced operations.

    ``fills`` holds one (context, n, stored nnz) tuple per factorization;
    the stored nnz is SuperLU's own count, supernodal padding included.
    """
    agg = spans.aggregate(all_spans)

    def count(span):
        return agg.get(span, {}).get("count", 0)

    out = {}
    for metric, span in PER_CALL_MS.items():
        a = agg.get(span)
        out[metric] = a["self_s"] * 1e3 / a["count"] if a else 0.0
    for metric, span in PER_OP_COUNT.items():
        out[metric] = count(span) / n_ops

    factors = sum(count(f"linalg.factor.{c}") for c in CONTEXTS + ("other",))
    out["linalg.factor_count"] = factors / n_ops
    out["linalg.solves_per_factor"] = (
        count("linalg.solve") / factors if factors else 0.0
    )
    fill_bytes = 0.0
    for c in CONTEXTS:
        nnz = [f[2] for f in fills if f[0] == c]
        out[f"linalg.fill_nnz.{c}"] = statistics.mean(nnz) if nnz else 0.0
        out[f"linalg.n.{c}"] = (
            statistics.mean(f[1] for f in fills if f[0] == c) if nnz else 0.0
        )
        # Both factors stay alive together (the adjoint reuses them).
        fill_bytes += max(nnz, default=0) * FACTOR_ENTRY_BYTES
    out["linalg.fill_mb"] = fill_bytes / 1e6
    forwards = count("model.forward")
    out["optimizer.update_ratio"] = (
        count("mma.update") / forwards if forwards else 0.0
    )
    out["io.bytes_written"] = bytes_per_op
    out["trace.overhead_s"] = overhead_s
    return out


def not_called(all_spans) -> list[str]:
    """The mean-self-time metrics whose function no span recorded a call of.

    They report 0 because every traced result carries every per-layer metric.
    """
    names = {s.name for s in all_spans}
    return [m for m, span in PER_CALL_MS.items() if span not in names]


# (name, unit, better) for BENCHMARK.json's per_layer list, in report order.
def per_layer_spec() -> list[tuple]:
    spec = []
    for metric in PER_CALL_MS:
        spec.append((metric, "ms", "lower"))
    spec += [
        ("linalg.factor_count", "count", "lower"),
        ("linalg.solve_count", "count", "lower"),
        ("linalg.solves_per_factor", "ratio", "higher"),
        ("linalg.fill_nnz.pressure", "count", "lower"),
        ("linalg.fill_nnz.displacement", "count", "lower"),
        ("linalg.n.pressure", "count", "lower"),
        ("linalg.n.displacement", "count", "lower"),
        ("linalg.fill_mb", "MB-computed", "lower"),
        ("mma.update_count", "count", "lower"),
        ("model.forward_count", "count", "lower"),
        ("optimizer.update_ratio", "ratio", "higher"),
        ("io.bytes_written", "bytes", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return spec
