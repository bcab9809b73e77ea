"""Comparison harness: sweep several designs/closure modes over one spring range.

A suite is a JSON file of labelled cases. Each case either points at an
existing design file or names a problem to optimize first (with an optional
closure-mode override). Outputs one CSV per metric (rows: spring stiffness,
columns: case labels) plus a JSON summary of the cross-case orderings at the
softest and stiffest sweep endpoints.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from . import io, runner
from .errors import ConfigError, PneumotopError
from .problem import CLOSURE_MODES, load_problem

log = logging.getLogger(__name__)

METRICS = ("u_out", "SE", "W", "E_t")


@dataclass(frozen=True)
class ComparisonCase:
    """One labelled entry of a suite.

    ``design`` (a design-file path) skips optimization; otherwise ``problem``
    is optimized under the case's closure mode and the resulting design
    (the sealed one, for heuristic closure) is evaluated.
    """

    label: str
    problem: str
    design: str | None = None
    closure: str = "none"

    def __post_init__(self):
        if self.closure not in CLOSURE_MODES:
            raise ConfigError(f"case {self.label!r}: unknown closure {self.closure!r}")


def load_suite(path) -> tuple[list[ComparisonCase], list[float]]:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError covers JSON and decoding errors
        raise ConfigError(f"{path}: cannot read suite file ({exc})") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("cases"), list):
        raise ConfigError(f"{path}: suite file needs a 'cases' list")
    cases = []
    for i, c in enumerate(raw["cases"]):
        if not (isinstance(c, dict) and isinstance(c.get("label"), str)
                and isinstance(c.get("problem"), str)):
            raise ConfigError(f"{path}: case {i} needs a 'label' and a 'problem'")
        if c.get("design") is not None and "closure" in c:
            raise ConfigError(
                f"{path}: case {c['label']!r} evaluates a given design, "
                f"so its 'closure' would be ignored"
            )
        cases.append(ComparisonCase(
            label=c["label"],
            problem=c["problem"],
            design=c.get("design"),
            closure=c.get("closure", "none"),
        ))
    labels = [c.label for c in cases]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"{path}: duplicate case labels")
    return cases, runner.sweep_stiffnesses(raw.get("sweep_n_per_m"), f"{path}: 'sweep_n_per_m'")


def _run_case(case: ComparisonCase, sweep, out_dir) -> dict:
    out = Path(out_dir) / case.label
    design_path = case.design
    if design_path is None:
        spec = load_problem(case.problem, closure=case.closure)
        summary = runner.optimize_problem(spec, out)
        design_path = summary["design_sealed"] or summary["design"]
    rows = runner.evaluate_design(design_path, case.problem, sweep=sweep)
    return {"label": case.label, "design": str(design_path), "rows": rows}


def _case_worker(case: ComparisonCase, sweep, out_dir) -> dict:
    try:
        return _run_case(case, sweep, out_dir)
    except PneumotopError as exc:
        return {"label": case.label, "error": str(exc)}
    except Exception as exc:  # one broken case must not end the suite
        log.exception("case %s raised", case.label)
        return {"label": case.label, "error": f"{type(exc).__name__}: {exc}"}


def run_suite(cases, out_dir, sweep=None) -> dict:
    """Run all cases, merge by label order, and write the comparison tables."""
    sweep = runner.sweep_stiffnesses(sweep)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    results = [_case_worker(c, sweep, out) for c in cases]

    ok = [r for r in results if "rows" in r]
    failed = {r["label"]: r["error"] for r in results if "error" in r}
    for label, err in failed.items():
        log.error("case %s failed: %s", label, err)

    for metric in METRICS:
        lines = ["k_out," + ",".join(r["label"] for r in ok)]
        for i, k in enumerate(sweep):
            vals = [repr(float(r["rows"][i][metric])) for r in ok]
            lines.append(",".join([repr(float(k))] + vals))
        io.atomic_write_text(out / f"{metric}.csv", "\n".join(lines) + "\n")

    orderings = {}
    for metric in METRICS:
        for which, idx in (("softest", 0), ("stiffest", len(sweep) - 1)):
            ranked = sorted(
                ok, key=lambda r: r["rows"][idx][metric], reverse=True
            )
            orderings[f"{metric}_{which}"] = [r["label"] for r in ranked]

    summary = {
        "sweep_n_per_m": sweep,
        "cases": {r["label"]: r["design"] for r in ok},
        "failed": failed,
        "orderings_desc": orderings,
    }
    io.write_summary(out / "suite_summary.json", summary)
    return summary
