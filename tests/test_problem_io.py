"""Problem-file validation, fixtures, artifact formats, and the CLI verbs."""
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pneumotop
from pneumotop import cli, io, linalg, problem, runner
from pneumotop.errors import ConfigError, SolveError
from pneumotop.fixtures import make_pneunet2d_design
from pneumotop.grid import GridSpec, build_grid
from pneumotop.materials import drainage_for_wall
from pneumotop.model import Model

from tinyproblem import tiny_problem_dict


def test_finger2d_fixture_values():
    spec = problem.load_problem("finger2d")
    assert spec.materials.E == (1e6, 1e7, 1e8)
    assert spec.flow.P_in == 5e4
    assert spec.volume_fractions == (0.3, 0.2, 0.2)
    assert spec.objective.n == 8.0
    assert spec.materials.penalty == 3.0
    assert spec.grid.nel == (96, 24)


def test_all_fixtures_parse():
    for name in problem.available_fixtures():
        spec = problem.load_problem(name)
        assert spec.name == name


def test_missing_inlet_is_named_error():
    raw = tiny_problem_dict()
    raw["regions"] = [r for r in raw["regions"] if r["role"] != "pressure_inlet"]
    with pytest.raises(ConfigError, match="pressure_inlet"):
        problem.parse_problem(raw)


def test_spec_rules_hold_under_replace(tiny_spec):
    no_inlet = tuple(r for r in tiny_spec.regions if r.role != "pressure_inlet")
    with pytest.raises(ConfigError, match="pressure_inlet"):
        dataclasses.replace(tiny_spec, regions=no_inlet)
    symmetry_only = tuple(
        dataclasses.replace(r, role="symmetry") if r.role == "fixed_support" else r
        for r in tiny_spec.regions
    )
    with pytest.raises(ConfigError, match="fixed_support"):
        dataclasses.replace(tiny_spec, regions=symmetry_only)
    with pytest.raises(ConfigError, match=r"\$\.volume_fractions: expected 3 entries"):
        dataclasses.replace(tiny_spec, volume_fractions=(0.3, 0.2))
    solid = problem.PassiveBox("solid", ((0.0, 0.0), (0.001, 0.001)), material=4)
    with pytest.raises(ConfigError, match=r"\$\.passive\[0\]: material 4"):
        dataclasses.replace(tiny_spec, passive=(solid,))
    void = problem.PassiveBox("void", ((0.0, 0.0, 0.0), (0.001, 0.001, 0.001)))
    with pytest.raises(ConfigError, match=r"\$\.passive\[0\]\.box_m: expected 2"):
        dataclasses.replace(tiny_spec, passive=(void,))


def _assert_defaults(section, given=()):
    """Every optional field of a spec dataclass, but those ``given``, holds
    its declared default."""
    for f in dataclasses.fields(section):
        if f.name in given:
            continue
        if f.default is not dataclasses.MISSING:
            assert getattr(section, f.name) == f.default, f.name
        elif f.default_factory is not dataclasses.MISSING:
            assert getattr(section, f.name) == f.default_factory(), f.name


def test_missing_keys_take_the_spec_dataclass_defaults():
    raw = {
        "grid": {"dim": 2, "nel": [12, 6], "h_m": 0.001},
        "regions": [
            {"role": "fixed_support", "box_m": [[0, 0], [0, 0.006]]},
            {"role": "pressure_inlet", "box_m": [[0, 0.003], [0, 0.005]]},
            {"role": "output", "box_m": [[0.012, 0.002], [0.012, 0.004]],
             "direction": [0, -1]},
        ],
        "materials": {"E_pa": [1e6]},
        "flow": {"P_in_pa": 5e4},
        "volume_fractions": [0.3],
    }
    spec = problem.parse_problem(raw)
    assert spec.name == "problem"
    for section in (spec, spec.materials, spec.objective, spec.filter, spec.optimizer,
                    spec.closure):
        _assert_defaults(section)
    for region in spec.regions:
        _assert_defaults(region, given=("direction",) if region.role == "output" else ())
    _assert_defaults(spec.flow, given=("D_s",))
    # the two values derived from the file: the filter radius by dimension,
    # and the drainage that leaves 1% of the pressure across one radius
    assert spec.filter.r_min_elems == 1.5
    assert spec.flow.D_s == drainage_for_wall(spec.flow.K_s, 1.5 * 0.001, 0.01)


@pytest.mark.parametrize("where, entry, message", [
    ("regions", {"role": "fixed_support", "box_m": [[0, 0], [0, 0.006]],
                 "direction": [1, 0]}, r"\$\.regions\[4\]\.direction"),
    ("regions", {"role": "fixed_support", "box_m": [[0, 0], [0, 0.006]],
                 "k_out_n_per_m": 5}, r"\$\.regions\[4\]\.k_out_n_per_m"),
    ("passive", {"tag": "void", "box_m": [[0, 0], [0.001, 0.001]], "material": 2},
     r"\$\.passive\[0\]\.material"),
], ids=["direction", "k_out", "void-material"])
def test_keys_that_do_nothing_are_rejected(where, entry, message):
    raw = tiny_problem_dict()
    raw.setdefault(where, []).append(entry)
    with pytest.raises(ConfigError, match=message):
        problem.parse_problem(raw)


def test_nel_of_the_wrong_length_is_named_error():
    raw = tiny_problem_dict()
    raw["grid"]["nel"] = [12, 6, 6]
    with pytest.raises(ConfigError, match=r"\$\.grid\.nel: expected 2 entries, got 3"):
        problem.parse_problem(raw)


def test_volume_fractions_over_one_rejected():
    raw = tiny_problem_dict(volume_fractions=[0.6, 0.3, 0.3])
    with pytest.raises(ConfigError, match="volume_fractions"):
        problem.parse_problem(raw)


def test_unknown_keys_rejected_with_path():
    raw = tiny_problem_dict()
    raw["grid"]["spacing"] = 1.0
    with pytest.raises(ConfigError, match=r"\$\.grid"):
        problem.parse_problem(raw)


def test_wrong_type_reported_with_path():
    raw = tiny_problem_dict()
    raw["flow"]["P_in_pa"] = "fifty"
    with pytest.raises(ConfigError, match="P_in_pa"):
        problem.parse_problem(raw)


def test_closure_mode_forces_objective_variant():
    raw = tiny_problem_dict(closure={"mode": "energy_penalty"})
    spec = problem.parse_problem(raw)
    assert spec.objective.variant == "energy_penalty"


def test_load_problem_overrides_go_through_the_schema():
    spec = problem.load_problem("finger2d", closure="energy_penalty", max_iters=0)
    assert spec.closure.mode == "energy_penalty"
    assert spec.objective.variant == "energy_penalty"
    assert spec.optimizer.max_iters == 0
    base = problem.load_problem("finger2d")
    assert spec.optimizer.move_limit == base.optimizer.move_limit
    assert spec.closure.skin_thickness_elems == base.closure.skin_thickness_elems
    with pytest.raises(ConfigError, match="closure"):
        problem.load_problem("finger2d", closure="weld")
    with pytest.raises(ConfigError, match="max_iters"):
        problem.load_problem("finger2d", max_iters=-1)


def _paths(obj, prefix=()):
    """Every key path into a nested problem dictionary."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(list(_paths(tiny_problem_dict()))),
       value=_JSON_VALUES, delete=st.booleans())
def test_parse_problem_mutations_raise_only_config_errors(path, value, delete):
    raw = tiny_problem_dict()
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    try:
        spec = problem.parse_problem(raw)
    except ConfigError:
        return
    assert isinstance(spec, problem.ProblemSpec)


def test_drainage_default_scales_with_filter_radius():
    raw = tiny_problem_dict()
    s1 = problem.parse_problem(raw)
    raw2 = tiny_problem_dict(filter={"r_min_elems": 3.0})
    s2 = problem.parse_problem(raw2)
    assert s2.flow.D_s < s1.flow.D_s  # thicker reference wall, gentler sink
    raw3 = tiny_problem_dict(flow={"P_in_pa": 5e4, "D_s": 7.0})
    assert problem.parse_problem(raw3).flow.D_s == 7.0


def test_design_round_trip(tmp_path):
    gspec = GridSpec(2, (4, 3), 0.5)
    rng = np.random.default_rng(0)
    rho = rng.uniform(0, 1, (3, 12))
    path = tmp_path / "d.json"
    io.save_design(path, gspec, rho, note="test")
    spec2, rho2 = io.load_design(path)
    assert spec2 == gspec
    assert np.array_equal(rho, rho2)  # exact: repr round-trips floats


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_design_round_trip_is_exact(tmp_path_factory, data):
    dim = data.draw(st.sampled_from([2, 3]))
    nel = tuple(data.draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim)))
    h = data.draw(st.floats(min_value=1e-6, max_value=1.0))
    gspec = GridSpec(dim, nel, h)
    n = math.prod(nel)
    rho = np.array(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=3 * n, max_size=3 * n
    ))).reshape(3, n)
    path = tmp_path_factory.mktemp("design") / "d.json"
    io.save_design(path, gspec, rho, note=data.draw(st.text(max_size=8)))
    spec2, rho2 = io.load_design(path)
    assert spec2 == gspec
    assert np.array_equal(rho2, rho)


def _tiny_problem_and_design(tmp_path, value, **overrides):
    """The tiny problem file, with ``overrides``, and a matching design with
    one density set to ``value``."""
    prob = tmp_path / "tiny.json"
    prob.write_text(json.dumps(tiny_problem_dict(**overrides)))
    spec = problem.load_problem(prob)
    rho = np.full((3, math.prod(spec.grid.nel)), 0.5)
    rho[0, 7] = value
    design = tmp_path / "design.json"
    io.save_design(design, spec.grid, rho)
    return prob, design


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1.7, -0.2])
def test_cli_evaluate_bad_density_exit_3(tmp_path, value, capsys):
    prob, design = _tiny_problem_and_design(tmp_path, value)
    code = cli.main(["evaluate", str(design), str(prob), "--out-dir", str(tmp_path / "o")])
    assert code == 3
    assert "densities must" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"{not json",
    b"[1, 2]",
    b'{"format": "pneumotop-design", "version": 1, "dim": 2, "nel": [12, 6]}',
    b"\xff\xfe",
    # the tiny design but for a fractional count, which was once truncated to 12
    pytest.param(json.dumps({"format": "pneumotop-design", "version": 1, "dim": 2,
                             "nel": [12.5, 6], "h_m": 0.001,
                             "data": [[0.5] * 72] * 3}).encode(), id="fractional-nel"),
])
def test_cli_evaluate_malformed_design_exit_3(tmp_path, content):
    prob, design = _tiny_problem_and_design(tmp_path, 0.5)
    design.write_bytes(content)
    assert cli.main(["evaluate", str(design), str(prob)]) == 3


def test_overlapping_inlet_and_drain_exit_3(tmp_path, capsys):
    # Model holds the one overlap check, for every verb that builds one
    drain = {"role": "pressure_drain", "box_m": [[0, 0.004], [0, 0.006]]}
    regions = tiny_problem_dict()["regions"] + [drain]
    prob, design = _tiny_problem_and_design(tmp_path, 0.5, regions=regions)
    for verb in (["seal-check"], ["export", "-o", str(tmp_path / "fields.vtk")]):
        assert cli.main([*verb, str(design), str(prob)]) == 3
        assert "share 2 nodes" in capsys.readouterr().err


def test_design_rounding_outside_unit_interval_loads(tmp_path):
    prob, design = _tiny_problem_and_design(tmp_path, 1.0 + 1e-12)
    assert io.load_design(design)[1][0, 7] == 1.0


def test_design_rounding_below_zero_evaluates_with_fractional_penalty(tmp_path):
    # (-1e-10) ** 2.5 is NaN, so an unclipped density broke the modulus
    materials = dict(tiny_problem_dict()["materials"], penalty=2.5)
    prob, design = _tiny_problem_and_design(tmp_path, -1e-10, materials=materials)
    rows = runner.evaluate_design(design, prob)
    assert rows and all(math.isfinite(v) for row in rows for v in row.values())


@pytest.mark.parametrize("argv", [
    ["optimize", "finger2d"],
    ["evaluate", "design.json", "pneunet2d"],
    ["bench", "suite.json"],
], ids=["optimize", "evaluate", "bench"])
def test_verb_has_no_threads_option(argv):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([*argv, "--threads", "2"])


def _write_history(path, recs):
    writer = io.HistoryWriter(path)
    for rec in recs:
        writer(rec)
    writer.close()


def test_run_that_raises_leaves_no_history(tmp_path, tiny_spec, monkeypatch):
    from pneumotop.optimizer import IterationRecord

    def failing_run(model, sink):
        sink(IterationRecord(1, -10.0, (0.0,), 0.2, 0.8, 1e-3, 2e-2, 3e4, 1.0))
        raise SolveError("mid-run failure")

    monkeypatch.setattr(runner.optimizer, "run", failing_run)
    with pytest.raises(SolveError, match="mid-run failure"):
        runner.optimize_problem(tiny_spec, tmp_path / "out")
    assert list((tmp_path / "out").iterdir()) == []


def test_history_csv_columns_and_values(tmp_path):
    from pneumotop.optimizer import IterationRecord

    recs = [
        IterationRecord(1, -10.0, (0.0, -0.1, -0.2), 0.2, 0.8, 1e-3, 2e-2, 3e4, 1.0),
        IterationRecord(2, -12.5, (-0.01, -0.1, -0.2), 0.1, 0.7, 2e-3, 2.1e-2, 2.9e4, 1.0),
    ]
    path = tmp_path / "h.csv"
    _write_history(path, recs)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,f,g1,g2,g3,change,grayness,u_out,SE,E_t"
    row = lines[1].split(",")
    assert row[0] == "1" and float(row[1]) == -10.0 and float(row[9]) == 3e4


def test_history_csv_single_constraint_leaves_columns_empty(tmp_path):
    from pneumotop.optimizer import IterationRecord

    recs = [IterationRecord(1, -10.0, (-0.3,), 0.2, 0.8, 1e-3, 2e-2, 3e4, 1.0)]
    path = tmp_path / "h1.csv"
    _write_history(path, recs)
    row = path.read_text().splitlines()[1].split(",")
    assert row[2] != "" and row[3] == "" and row[4] == ""


@pytest.mark.parametrize("case", ["pneunet2d", "finger2d", "gripper3d"])
def test_sweep_matches_per_point_forward(case, request, monkeypatch):
    # the first row is a plain forward solve; the others go through its
    # Cholesky factor with a rank-r spring update (2-D) or CG on the updated matrix with its
    # multigrid preconditioner (3-D) and must agree with a solve per point
    sweep = list(runner.DEFAULT_SWEEP)
    if case == "pneunet2d":
        design = request.getfixturevalue("pneunet_design_path")
    elif case == "finger2d":
        design = request.getfixturevalue("finger2d_run")["out"] / "design_sealed.json"
    else:
        design = request.getfixturevalue("gripper3d_run")["out"] / "design.json"
        sweep = sweep[::4]
    hierarchies, real_init = [], linalg.VCycle.__init__

    def counting_init(self, *args, **kwargs):
        hierarchies.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(linalg.VCycle, "__init__", counting_init)
    rows = runner.evaluate_design(design, case, sweep=sweep)
    # one flow and one elastic hierarchy for the whole 3-D sweep
    assert len(hierarchies) == (2 if case == "gripper3d" else 0)
    model = Model(problem.load_problem(case))
    rho = io.load_design(design)[1]
    # In 2-D the rows and the references come from one Cholesky factor
    # each, and agreed to 6e-11 on pneunet2d and 5.1e-9 on finger2d (its
    # SE). In 3-D they are two CG runs with different preconditioners.
    rel = 1e-6 if case == "gripper3d" else 5e-8
    first = model.forward(rho, k_out=sweep[0]).metrics
    assert rows[0] == {"k_out": sweep[0], "u_out": first.u_out, "SE": first.SE,
                       "W": first.W, "E_t": first.E_t}
    for k, row in zip(sweep[1:], rows[1:]):
        ref = model.forward(rho, k_out=k).metrics
        assert row["k_out"] == k
        for name in ("u_out", "SE", "W"):
            assert row[name] == pytest.approx(getattr(ref, name), rel=rel, abs=0)
    assert {row["E_t"] for row in rows} == {first.E_t}


def test_vtk_export_header_and_round_trip(tmp_path):
    g = build_grid(GridSpec(3, (2, 2, 2), 0.01))
    rng = np.random.default_rng(1)
    p = rng.uniform(0, 5e4, g.nnodes)
    u = rng.normal(size=(g.nnodes, 3)) * 1e-4
    rho = rng.uniform(0, 1, g.nelem)
    path = tmp_path / "f.vtk"
    io.export_vtk(path, g, cell_data={"rho1": rho}, point_data={"pressure": p, "displacement": u})
    lines = path.read_text().splitlines()
    assert lines[3] == "DATASET STRUCTURED_POINTS"
    assert lines[4] == "DIMENSIONS 3 3 3"
    # re-parse the pressure block and compare bit-exactly
    i = lines.index("SCALARS pressure double")
    values = [float(v) for v in lines[i + 2 : i + 2 + g.nnodes]]
    assert np.array_equal(np.array(values), p)
    j = lines.index("VECTORS displacement double")
    vec0 = [float(v) for v in lines[j + 1].split()]
    assert np.array_equal(np.array(vec0), u[0])


def test_vtk_2d_exports_unit_thickness_slab(tmp_path):
    g = build_grid(GridSpec(2, (3, 2), 1.0))
    path = tmp_path / "f2.vtk"
    io.export_vtk(path, g, cell_data={"rho1": np.zeros(g.nelem)})
    assert "DIMENSIONS 4 3 1" in path.read_text()


@pytest.mark.parametrize("n_materials, expected", [
    (1, [1, 1, 1, 0]), (2, [2, 2, 1, 0]), (3, [3, 2, 1, 0]),
], ids=["1", "2", "3"])
def test_dominant_material_labels(n_materials, expected):
    # channels past the material count select nothing
    rho = np.array(
        [[0.9, 0.9, 0.9, 0.2], [0.9, 0.9, 0.1, 0.9], [0.9, 0.2, 0.8, 0.9]]
    )
    labels = io.dominant_material_labels(rho, n_materials)
    assert list(labels) == expected


def test_pneunet_design_matches_problem_grid():
    spec = problem.load_problem("pneunet2d")
    gspec, rho = make_pneunet2d_design()
    assert gspec == spec.grid
    assert rho.shape == (3, 144 * 34)
    frac_solid = (rho[0] > 0.5).mean()
    assert 0.25 < frac_solid < 0.8  # mostly air: 7 chambers plus the channel


def test_cli_optimize_zero_iters_writes_init_and_exits_2(tmp_path):
    prob = tmp_path / "tiny.json"
    prob.write_text(json.dumps(tiny_problem_dict()))
    out = tmp_path / "run"
    code = cli.main(
        ["optimize", str(prob), "--max-iters", "0", "--out-dir", str(out)]
    )
    assert code == 2
    assert (out / "design.json").exists()
    assert (out / "summary.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == 0
    assert not summary["converged"]
    spec2, rho = io.load_design(out / "design.json")
    assert np.allclose(rho[0], 0.7, atol=1e-12)


@pytest.mark.parametrize("path, value", [
    (("materials", "penalty"), float("nan")),
    (("flow", "P_in_pa"), float("inf")),
    (("volume_fractions", 0), float("nan")),
    (("regions", 0, "box_m", 1, 0), float("-inf")),
], ids=["penalty", "P_in_pa", "volume_fraction", "box_m"])
def test_non_finite_problem_numbers_are_config_errors(tmp_path, path, value):
    raw = tiny_problem_dict(materials={"E_pa": [1e6, 1e7, 1e8], "penalty": 3.0})
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    json_path = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    with pytest.raises(ConfigError, match=re.escape(json_path) + ": numbers must be finite"):
        problem.parse_problem(raw)
    prob = tmp_path / "nonfinite.json"
    prob.write_text(json.dumps(raw))
    assert cli.main(["optimize", str(prob), "--out-dir", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("h", [1e-300, 1e300])
def test_element_size_that_overflows_the_templates_exit_3(tmp_path, h, capsys):
    # the tiny problem scaled to h: (2/h)^2 or (h/2)^2 overflows shapefn's
    # element matrices, which once ended in an OverflowError traceback
    raw = tiny_problem_dict()
    scale = h / raw["grid"]["h_m"]
    raw["grid"]["h_m"] = h
    for region in raw["regions"]:
        region["box_m"] = [[v * scale for v in corner] for corner in region["box_m"]]
    prob = tmp_path / "scaled.json"
    prob.write_text(json.dumps(raw))
    assert cli.main(["optimize", str(prob), "--out-dir", str(tmp_path / "o")]) == 3
    assert "overflows the element matrices" in capsys.readouterr().err


def test_cli_optimize_bad_problem_exit_3(tmp_path):
    prob = tmp_path / "bad.json"
    raw = tiny_problem_dict()
    del raw["regions"]
    prob.write_text(json.dumps(raw))
    assert cli.main(["optimize", str(prob)]) == 3
    prob.write_bytes(b"\xff\xfe")
    assert cli.main(["optimize", str(prob)]) == 3


def test_cli_evaluate_and_export(tmp_path, pneunet_design_path):
    out = tmp_path / "eval"
    code = cli.main(
        [
            "evaluate", str(pneunet_design_path), "pneunet2d",
            "--sweep", "1", "10", "100",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    lines = (out / "evaluation.csv").read_text().splitlines()
    assert lines[0] == "k_out,u_out,SE,W,E_t"
    assert len(lines) == 4
    vtk = tmp_path / "out.vtk"
    assert cli.main(["export", str(pneunet_design_path), "pneunet2d", "-o", str(vtk)]) == 0
    assert vtk.exists()


def test_cli_evaluate_dimension_mismatch(tmp_path, pneunet_design_path):
    assert cli.main(["evaluate", str(pneunet_design_path), "finger2d"]) == 3


def test_cli_evaluate_overflowing_spring_exit_4(tmp_path, pneunet_design_path):
    # the residual of the 1e200 N/m point overflows: refinement stops there
    # and the backward-error check reports it as a solver failure
    env = {**os.environ, "PYTHONPATH": str(Path(pneumotop.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "pneumotop.cli", "evaluate", str(pneunet_design_path),
         "pneunet2d", "--sweep", "1", "1e200", "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 4
    assert "backward error" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr  # the overflowed norms are checked, not warned of


def test_cli_seal_check_pneunet(tmp_path, pneunet_design_path):
    code = cli.main(
        ["seal-check", str(pneunet_design_path), "pneunet2d",
         "--out-dir", str(tmp_path)]
    )
    assert code == 0  # the pneunet walls are airtight
    rep = json.loads((tmp_path / "seal_report.json").read_text())
    assert rep["sealed"] is True


def test_cli_fixtures_export(tmp_path):
    out = tmp_path / "fx"
    assert cli.main(["fixtures", "--out-dir", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert {"finger2d.json", "gripper2d.json", "gripper3d.json",
            "pneunet2d.json", "pneunet2d.design.json"} <= names


@pytest.mark.parametrize("sweep, message", [
    (["10", "5"], "increasing"),
    (["1", "nan"], "finite"),
    (["1", "inf"], "finite"),
], ids=["decreasing", "nan", "inf"])
def test_cli_sweep_must_increase(tmp_path, pneunet_design_path, sweep, message, capsys):
    code = cli.main(
        ["evaluate", str(pneunet_design_path), "pneunet2d", "--sweep", *sweep,
         "--out-dir", str(tmp_path)]
    )
    assert code == 3
    assert message in capsys.readouterr().err


def test_evaluate_empty_sweep_is_config_error(pneunet_design_path):
    with pytest.raises(ConfigError, match=r"finite and > 0, got \[\]"):
        runner.evaluate_design(pneunet_design_path, "pneunet2d", sweep=[])


def _blas_threads_after(imports: str, preset=None) -> list:
    """The BLAS thread variables in a fresh interpreter after ``imports``,
    with OPENBLAS_NUM_THREADS set to ``preset`` and the others unset
    beforehand ("-" for one still unset)."""
    env = {k: v for k, v in os.environ.items() if k not in pneumotop.BLAS_THREAD_VARS}
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = str(Path(pneumotop.__file__).resolve().parents[1])
    code = (f"import os; {imports}; "
            f"print(' '.join(os.environ.get(v, '-') for v in {pneumotop.BLAS_THREAD_VARS!r}))")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout.split()


@pytest.mark.parametrize("preset", [None, "3"], ids=["unset", "set"])
def test_cli_defaults_blas_threads_to_one_unless_set(preset):
    """The CLI sets every BLAS thread count the user left unset to 1,
    through the package, and keeps one the user set."""
    assert _blas_threads_after("import pneumotop.cli", preset) == [preset or "1", "1", "1"]


@pytest.mark.parametrize("preset", [None, "3"], ids=["unset", "set"])
def test_import_defaults_blas_threads_to_one_unless_set(preset):
    """So does a plain import, before numpy loads."""
    imports = "import sys, pneumotop; assert 'numpy' not in sys.modules"
    assert _blas_threads_after(imports, preset) == [preset or "1", "1", "1"]


def test_import_after_numpy_leaves_blas_threads_unset():
    # numpy's BLAS has read the variables already, so setting them would
    # only mislead
    assert _blas_threads_after("import numpy, pneumotop") == ["-", "-", "-"]
