"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload finger2d-opt pneunet-sweep --runs 10

Runs the benchmark once per seed and workload, cycling through the
workloads for each seed so that a slow spell of the machine touches all of
them alike. It prints, for each workload and end-to-end metric, the median
and quartiles of the per-run values, the interquartile distance as a share
of the median, and that share against the metric's bound in
BENCHMARK.json. Two runs of this script on the same commit tell
"unchanged" from "unresolved": a difference smaller than the spread is not
resolved.
"""
import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, dict[str, list]] = {w: {} for w in args.workload}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in args.workload:
            cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {took:.1f}s " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                flush=True)

    for workload, metrics in values.items():
        print(f"\n{workload}: {args.runs} runs")
        for name, vals in metrics.items():
            s = stats.summary(vals)
            share = stats.relative_spread(vals)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if share < bound / 3 else (
                    "wide" if share <= bound else "FAIL")
                verdict = f"bound {bound:g} {verdict}"
            print(f"  {name:32s} median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {share:.4f} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
