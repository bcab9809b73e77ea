"""pneumotop benchmark: one workload, one seed, one line of JSON metrics.

    python3 perfbench/run.py --workload finger2d-opt --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else. The run repeats rounds
of a few set-ups (``setup_s``) and one operation of the workload until
``--seconds`` have passed, then checks the adjoint gradient by finite
differences once and checks the outputs. With ``--trace 0`` the last
line carries the end-to-end metrics; with ``--trace 1`` every set-up and
operation is traced, and the last line carries the per-layer metrics and
the estimated tracing overhead. Every timing in the result is scaled to
the reference speed of ``speed.py`` by the probes run next to it. The line
before the result is a report with the environment, the inputs, every
sample's median and quartiles, the timings as measured, the probes'
slowdown, and the check results.

Exit codes: 0 all checks passed, 1 a check or an operation failed (the
result is printed with ``"correct": false``), 2 the checkout or the
arguments are unusable (nothing is printed on stdout).
"""
import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
# BLAS threads, pinned before numpy loads and recorded in every report.
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-ups before each operation. Spreading them over the run, instead of
# timing them in one burst, lets set-up time see the same slow and fast
# spells of a shared machine that the operations see.
SETUP_REPS_PER_OP = 5
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = ROOT / "src" / "pneumotop" / "__init__.py"
    if not pkg.is_file():
        return _fail(f"no package source at {pkg.relative_to(ROOT)}; "
                     "run from the root of a pneumotop checkout")
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(ROOT / "src"))
    import pneumotop

    if Path(pneumotop.__file__).resolve() != pkg.resolve():
        return _fail(f"imported pneumotop from {pneumotop.__file__}, not {pkg}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    work = ROOT / "perfbench" / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report, result = run(workloads.WORKLOADS[args.workload], args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # left in place while another run uses it
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run(wl, args, work: Path):
    import layers
    import spans
    import stats
    import workloads
    from pneumotop.errors import PneumotopError

    clock, speed = workloads.clock, workloads.SPEED
    inp = wl.make_inputs(args.seed, work)
    sink_times, fills = [], []
    plain = workloads.sink_tracer(sink_times)
    traced = workloads.layer_tracer(sink_times, fills) if args.trace else None

    setup_spans = []

    def set_up():
        speed.probe()
        with traced or contextlib.nullcontext():
            t0 = clock()
            spec, _model, _rho = wl.setup(inp)
            setup_spans.append((t0, clock()))
        # Only the spec lives on: the operation builds its own Model, and a
        # second one held here would count in peak_rss_mb.
        return spec

    ops, failed, failures, rounds, op_spans = [], 0, [], [], []
    speed.probe()  # the first probe runs cold
    t_start = clock()
    while True:
        t_round = clock()
        for _ in range(SETUP_REPS_PER_OP):
            spec = set_up()
        out_dir = work / f"op{len(ops)}"
        out_dir.mkdir()
        n_spans = len(traced.spans) if traced else 0
        speed.probe()
        try:
            ops.append(wl.run_op(inp, spec, out_dir, traced or plain, sink_times))
        except PneumotopError as exc:
            failed += 1
            failures.append(f"{wl.name} op {len(ops)}: {type(exc).__name__}: {exc}")
            break
        speed.probe()
        if traced:
            # The untraced run records the sink's spans too.
            op_spans.append(sum(s.name != "io.history" for s in traced.spans[n_spans:]))
        rounds.append(clock() - t_round)
        elapsed = clock() - t_start
        typical = statistics.median(rounds)
        # Stop where the next round would end further from the target.
        if elapsed + typical / 2 >= args.seconds:
            break

    # Peak of set-up and operations only, before the checks allocate.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures += workloads.fd_check()
    if ops:
        _, model, rho = wl.setup(inp)
        failures += wl.check(inp, model, rho, ops)
    attempted = len(ops) + failed
    correct = not failures

    # Every timing at the reference speed of speed.py, and as measured.
    setup_s = [speed.at_reference(*s) for s in setup_spans]
    walls = [speed.at_reference(*op.span) for op in ops]
    steps = [speed.at_reference(*s) * 1e3 for op in ops for s in op.steps]
    raw = {
        "setup_s": [b - a for a, b in setup_spans],
        "wall_s": [op.span[1] - op.span[0] for op in ops],
        "step_ms": [(b - a) * 1e3 for op in ops for a, b in op.steps],
    }
    tail = stats.tail(steps, wl.tail_p) if steps else None
    e2e, e2e_raw = {}, {}
    if steps:
        e2e = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(walls),
            "step_ms_p50": statistics.median(steps),
            "step_ms_tail": tail["value"],
            "peak_rss_mb": peak_rss_mb,
        }
        e2e_raw = {
            "setup_s": statistics.median(raw["setup_s"]),
            "wall_s": statistics.median(raw["wall_s"]),
            "step_ms_p50": statistics.median(raw["step_ms"]),
            "step_ms_tail": stats.tail(raw["step_ms"], wl.tail_p)["value"],
        }
    report = {
        "report": "perfbench",
        "workload": wl.name,
        "why": wl.why,
        "step": wl.step,
        "seed": args.seed,
        "seed_default": DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "inputs": inp.describe,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "checks": failures or "all passed",
        # Traced operations are slower by the tracing overhead.
        "e2e_traced" if args.trace else "e2e": e2e,
        "e2e_as_measured": e2e_raw,
        "slowdown": stats.summary(speed.slowdowns),
        "samples": {
            "setup_s": stats.summary(setup_s),
            "wall_s": stats.summary(walls) if walls else None,
            "step_ms": stats.summary(steps) if steps else None,
        },
        "step_ms_tail": tail,
        "raw": {"setup_s": setup_s, "wall_s": walls, "step_ms": steps},
        "raw_as_measured": raw,
    }
    metrics = {}
    if args.trace:
        if ops:
            # Wrapped calls per operation times the cost of one wrapper call:
            # the traced minus the untraced wall_s, without the noise of
            # comparing whole operations.
            overhead = statistics.median(op_spans) * spans.wrapper_cost_s()
            values = layers.layer_metrics(
                traced.spans, fills, len(ops),
                statistics.mean(op.bytes_written for op in ops), overhead,
            )
            report["layers"] = values
            report["layers_not_called"] = layers.not_called(traced.spans)
            report["layer_moves"] = layers.MOVES
            units = {name: unit for name, unit, _ in layers.per_layer_spec()}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    if not metrics:
        correct = False
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return report, result


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_pin": BLAS_PIN,
        "openblas_threads": _openblas_threads(numpy, scipy),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads(*modules) -> dict:
    """Thread count each bundled OpenBLAS reports, where it exports the query."""
    found = {}
    for mod in modules:
        libs = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(path).name] = fn()
                    break
    return found


if __name__ == "__main__":
    sys.exit(main())
