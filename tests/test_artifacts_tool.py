"""The artifact comparison of ``tools/artifacts.py``."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "artifacts.py"


@pytest.fixture(scope="module")
def artifacts():
    spec = importlib.util.spec_from_file_location("artifacts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(root: Path, summary: dict, history: str):
    (root / "case").mkdir(parents=True)
    (root / "case" / "summary.json").write_text(json.dumps(summary))
    (root / "case" / "history.csv").write_text(history)


def test_compare_ignores_wall_time_and_paths_only(artifacts, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write_run(a, {"iterations": 3, "wall_time_s": 1.0, "design": "a/design.json"}, "1,2\n")
    _write_run(b, {"iterations": 3, "wall_time_s": 2.0, "design": "b/design.json"}, "1,2\n")
    assert artifacts.main(["compare", str(a), str(b)]) == 0
    (b / "case" / "history.csv").write_text("1,3\n")
    (b / "case" / "extra.vtk").write_text("")
    assert artifacts.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "differs: case/history.csv" in out and "only in" in out and "extra.vtk" in out
    with pytest.raises(SystemExit):
        artifacts.main(["compare", str(a), str(tmp_path / "missing")])


def test_compare_sizes_each_differing_column(artifacts, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write_run(a, {"objective": -2.0, "constraints": [1.0, 4.0], "name": "x"},
               "iter,f,u_out\n1,10.0,2.0\n2,8.0,4.0\n")
    _write_run(b, {"objective": -2.0, "constraints": [1.0, 5.0], "name": "x"},
               "iter,f,u_out\n1,10.0,2.0\n2,8.0,3.0\n")
    assert artifacts.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "largest relative difference: u_out: 2.5e-01\n" in out  # f and iter agree
    assert "largest relative difference: constraints.1: 2.0e-01\n" in out
    (b / "case" / "history.csv").write_text("iter,f,u_out\n1,10.0,2.0\n")
    assert artifacts.differences(a / "case" / "history.csv", b / "case" / "history.csv") == [
        "iter: differs", "f: differs", "u_out: differs"]


def test_compare_names_the_first_differing_row(artifacts, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write_run(a, {}, "iter,f,u_out\n1,10.0,2.0\n2,8.0,4.0\n3,6.0,5.0\n")
    _write_run(b, {}, "iter,f,u_out\n1,10.0,2.0\n2,8.0,3.0\n3,4.0,5.0\n")
    assert artifacts.main(["compare", str(a), str(b)]) == 1
    # the gap first appears in row 2, and is largest later, in row 3
    assert "first differing row: 2 (iter=2): 2.5e-01\n" in capsys.readouterr().out
    history = (a / "case" / "history.csv", b / "case" / "history.csv")
    (b / "case" / "history.csv").write_text("iter,f,u_out\n1,10.0,2.0\n2,8.0,4.0\n")
    assert artifacts.first_difference(*history) == "3 (iter=3): differs"
    (b / "case" / "history.csv").write_text("iter,f,u_out\n1,10.0,2.0\n2,8.0,nan?\n3,6.0,5.0\n")
    assert artifacts.first_difference(*history) == "2 (iter=2): differs"
    assert artifacts.first_difference(history[0], history[0]) is None
