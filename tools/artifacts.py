"""Write the artifact set of a fixed list of runs, or compare two such sets.

A change that claims to leave the numerics alone must leave every file of
this set byte-identical::

    python tools/artifacts.py write OUT     # every case into OUT/<case>/
    python tools/artifacts.py compare A B   # name every file that differs

``write`` imports ``pneumotop`` from the ``src/`` beside this script, so a
second checkout writes its own set. ``compare`` reads ``summary.json`` as
JSON and leaves out its wall time and output paths; every other file is
compared byte for byte. It exits 1 when a file differs or is missing on
one side. For a differing CSV it prints the largest relative difference
``|a - b| / max(|a|, |b|)`` of each column that differs, and the first
row where the two differ, with its first field (a history's iteration)
and the largest relative difference there; for a differing
``summary.json`` it prints that of each numeric field. A change that
moves the numerics by roundoff so shows how far, and from where.

The optimize cases cover a short and a converged finger2d run, a short
gripper3d run, and runs whose projection is sharpened only by stalls (a
loose ``change_tol`` and no scheduled doubling in reach). The sweep cases
are the default spring sweeps of the packaged pneunet design, of the
``gripper3d-5`` design on the gripper3d fixture (multigrid CG on updated
systems) and of the sealed ``finger2d-converged`` design on the finger2d
fixture.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pneumotop import io, problem, runner  # noqa: E402
from pneumotop.fixtures import make_pneunet2d_design  # noqa: E402

STALLS = {"filter": {"beta_p_double_every": 1000}}
# case -> (fixture, {section: {key: value}} replacing the fixture's values)
CASES = {
    "finger2d-20": ("finger2d", {"optimizer": {"max_iters": 20},
                                 "closure": {"mode": "heuristic"}}),
    "gripper3d-5": ("gripper3d", {"optimizer": {"max_iters": 5}}),
    "finger2d-converged": ("finger2d", {"closure": {"mode": "heuristic"}}),
    "finger2d-stalls-heuristic": ("finger2d", {
        **STALLS, "optimizer": {"change_tol": 0.15, "max_iters": 150},
        "closure": {"mode": "heuristic"}}),
    "finger2d-stalls-none": ("finger2d", {
        **STALLS, "optimizer": {"change_tol": 0.15, "max_iters": 150},
        "closure": {"mode": "none"}}),
    "gripper3d-stalls": ("gripper3d", {
        **STALLS, "optimizer": {"change_tol": 0.25, "max_iters": 12}}),
}
# sweep case -> (design, relative to the output directory, and fixture); the
# pneunet design is written into its case, the others come from cases above
SWEEPS = {
    "pneunet2d-sweep": ("pneunet2d-sweep/design.json", "pneunet2d"),
    "gripper3d-sweep": ("gripper3d-5/design.json", "gripper3d"),
    "finger2d-sweep": ("finger2d-converged/design_sealed.json", "finger2d"),
}
# summary.json entries that differ between two runs of the same code
VOLATILE = ("wall_time_s", "design", "design_sealed", "history_csv")


def write(out: Path):
    for case, (fixture, overrides) in CASES.items():
        raw = json.loads(problem.fixture_path(fixture).read_text())
        for section, values in overrides.items():
            raw.setdefault(section, {}).update(values)
        t0 = time.perf_counter()
        summary = runner.optimize_problem(problem.parse_problem(raw, fixture), out / case)
        status = "converged" if summary["converged"] else "iteration limit"
        print(f"{case}: {status} after {summary['iterations']} iterations "
              f"({time.perf_counter() - t0:.1f} s)")
    io.save_design(out / SWEEPS["pneunet2d-sweep"][0], *make_pneunet2d_design(), note="pneunet2d")
    for case, (design, fixture) in SWEEPS.items():
        rows = runner.evaluate_design(out / design, problem.fixture_path(fixture))
        io.write_metrics_csv(out / case / "evaluation.csv", rows)
        print(f"{case}: {len(rows)} sweep points")


def _content(path: Path):
    if path.name == "summary.json":
        summary = json.loads(path.read_text())
        return {k: v for k, v in summary.items() if k not in VOLATILE}
    return path.read_bytes()


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _leaves(value, key=""):
    """``{path: value}`` of every leaf of a JSON value, ``.``-joined."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {key: value}
    return {k: v for i, item in items for k, v in _leaves(item, f"{key}.{i}".lstrip(".")).items()}


def _rows(path: Path):
    """The header and the data rows of a CSV."""
    with path.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def _columns(path: Path):
    """``{column: values}`` of a CSV with a header row, or of ``summary.json``
    (each numeric leaf a column of one value)."""
    if path.suffix == ".json":
        return {k: [v] for k, v in _leaves(_content(path)).items()}
    header, rows = _rows(path)
    return {name: [row[i] if i < len(row) else None for row in rows]
            for i, name in enumerate(header)}


def _relative(x, y) -> float:
    return 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))


def differences(pa: Path, pb: Path) -> list[str]:
    """``column: largest relative difference`` of every column of two CSVs
    (or numeric field of two ``summary.json``) that differs; a column whose
    values are not all numbers, or whose length differs, is named alone."""
    ca, cb = _columns(pa), _columns(pb)
    out = []
    for name in dict.fromkeys([*ca, *cb]):
        va, vb = ca.get(name), cb.get(name)
        if va == vb:
            continue
        pairs = [(_number(x), _number(y)) for x, y in zip(va or [], vb or [])]
        if va is None or vb is None or len(va) != len(vb) or any(None in p for p in pairs):
            out.append(f"{name}: differs")
        else:
            out.append(f"{name}: {max(_relative(x, y) for x, y in pairs):.1e}")
    return out


def first_difference(pa: Path, pb: Path) -> str | None:
    """``row (name=value): gap`` of the first data row in which two CSVs
    differ: its number from 1, its first field and the largest relative
    difference of its fields, or ``differs`` where a field is not a number
    on both sides or the row is in one file only; None if none differs."""
    (header, ra), (_, rb) = _rows(pa), _rows(pb)
    for row, (xs, ys) in enumerate(zip_longest(ra, rb), start=1):
        if xs == ys:
            continue
        label = f"{row} ({header[0]}={(xs or ys or [''])[0]})"
        pairs = [(_number(x), _number(y)) for x, y in zip_longest(xs or [], ys or [])]
        if xs is None or ys is None or any(None in p for p in pairs):
            return f"{label}: differs"
        return f"{label}: {max(_relative(x, y) for x, y in pairs):.1e}"
    return None


def compare(a: Path, b: Path) -> int:
    """Print every file that differs or exists on one side only; the count."""
    files = {p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()}
    bad = 0
    for rel in sorted(files):
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file()):
            print(f"only in {a if pa.is_file() else b}: {rel}")
        elif _content(pa) != _content(pb):
            print(f"differs: {rel}")
            if pa.suffix == ".csv" or pa.name == "summary.json":
                print("  largest relative difference: " + ", ".join(differences(pa, pb)))
            if pa.suffix == ".csv" and (first := first_difference(pa, pb)):
                print(f"  first differing row: {first}")
        else:
            continue
        bad += 1
    print(f"{len(files) - bad} of {len(files)} files identical")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("write").add_argument("out", type=Path)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("a", type=Path)
    p_cmp.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "write":
        write(args.out)
        return 0
    for d in (args.a, args.b):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    return 1 if compare(args.a, args.b) else 0


if __name__ == "__main__":
    sys.exit(main())
