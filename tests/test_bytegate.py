"""The byte gate's value comparison: floats that moved are measured, every
other difference is listed."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bytegate", Path(__file__).resolve().parent.parent / "tools" / "bytegate.py")
bytegate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bytegate)


def _walk(old, new):
    diff = bytegate.ValueDiff()
    diff.walk(old, new)
    return diff


def test_moved_floats_give_the_worst_relative_difference_and_nothing_else():
    diff = _walk({"a": [1.0, 2.0, float("nan")], "b": {"c": 0.5, "d": "x"}},
                 {"a": [1.0, 2.0 * (1 + 1e-12), float("nan")], "b": {"c": 0.5 + 1e-15, "d": "x"}})
    assert diff.other == []
    assert diff.worst == pytest.approx(1e-12, rel=1e-3)
    assert diff.worst_at.startswith(".a[1] (parent 2.0, change 2.0000000000")
    assert _walk([1, "s", None, True], [1, "s", None, True]).worst == 0.0


@pytest.mark.parametrize("old, new, where", [
    ({"v": "converges"}, {"v": "diverges"}, ".v"),
    ({"n": 3}, {"n": 4}, ".n"),
    ({"n": 3}, {"n": 3.0}, ".n"),
    ({"ok": True}, {"ok": False}, ".ok"),
    ({"x": 1.0}, {"x": float("inf")}, ".x"),
    ({"x": float("nan")}, {"x": 1.0}, ".x"),
    ({"x": 1.0}, {"x": 1.0, "y": 2.0}, ""),
    ([[1.0, 2.0]], [[1.0]], "[0]"),
])
def test_every_non_float_difference_is_listed(old, new, where):
    diff = _walk(old, new)
    assert len(diff.other) == 1 and diff.other[0].startswith(where + ":")


def test_outputs_are_parsed_by_kind(tmp_path):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"wall_times": {"run": 1.5}, "results": {"r": 0.25}}))
    assert bytegate._values(report) == {"results": {"r": 0.25}}
    table = tmp_path / "trace.csv"
    table.write_bytes(b"n,x,flag\r\n0,0.5,True\r\n1,,nan\r\n")
    rows = bytegate._values(table)
    assert rows[:2] == [["n", "x", "flag"], [0, 0.5, "True"]]
    assert rows[2][:2] == [1, ""] and rows[2][2] != rows[2][2]


def test_each_moved_float_is_measured_against_its_field():
    # noise on an entry that is 0 reads as relative difference 1; against
    # the largest finite magnitude under its key (here "matrix", in either
    # tree) it is tiny.  Values under other keys do not count.
    old = {"limit_form": {"matrix": [[1.5, 0.0], [-3.0, float("inf")]], "scale": 1e9}}
    new = {"limit_form": {"matrix": [[1.5, -2.87e-18], [-2.5, float("inf")]], "scale": 1e9}}
    diff = _walk(old, new)
    assert diff.other == []
    assert [f[0] for f in diff.floats] == [".limit_form.matrix[0][1]", ".limit_form.matrix[1][0]"]
    at, o, n, rel, of_field = diff.floats[0]
    assert (o, n, rel) == (0.0, -2.87e-18, 1.0)
    assert of_field == 2.87e-18 / 3.0
    assert diff.floats[1][3:] == (0.5 / 3.0, 0.5 / 3.0)


def test_a_moved_scalar_is_measured_against_the_floats_of_its_object():
    # a float directly under a key: its field is every float beside it, in
    # either tree; ints, strings, bools and nested values do not count
    old = {"drift": {"partial_sum": 3.2e-15, "tail_estimate": 0.02, "converged": True,
                     "N": 400, "window": [1, 1e9]},
           "alone": {"x": 2.0, "n": 7}}
    new = {"drift": {"partial_sum": 4.8e-16, "tail_estimate": 0.025, "converged": True,
                     "N": 400, "window": [1, 1e9]},
           "alone": {"x": 3.0, "n": 7}}
    diff = _walk(old, new)
    assert diff.other == []
    got = {f[0]: f[3:] for f in diff.floats}
    assert got[".drift.partial_sum"] == ((3.2e-15 - 4.8e-16) / 3.2e-15,
                                         (3.2e-15 - 4.8e-16) / 0.025)
    moved = 0.025 - 0.02
    assert got[".drift.tail_estimate"] == (moved / 0.025, moved / 0.025)
    assert got[".alone.x"] == (1.0 / 3.0, 1.0 / 3.0)


def test_a_moved_csv_cell_is_measured_against_its_column():
    old = [["n", "x", "y"], [0, 0.0, 5.0], [1, 4.0, 1e9], [2, float("nan"), ""]]
    new = [["n", "x", "y"], [0, 1e-16, 5.0], [1, -8.0, 1e9], [2, float("nan"), ""]]
    diff = bytegate.ValueDiff()
    diff.walk_table(old, new)
    assert diff.other == []
    assert [f[0] for f in diff.floats] == ["[1][1]", "[2][1]"]
    assert diff.floats[0][3:] == (1.0, 1e-16 / 8.0)
    assert diff.floats[1][3:] == (1.5, 12.0 / 8.0)
    diff.walk_table(old, old[:2] + [[1, 4.0]] + old[3:])
    assert diff.other == ["[2]: length 3 -> 2"]


def test_the_field_summary_counts_moved_floats_by_workload_and_field():
    # a JSON field is its key path without indices, a CSV field its file
    # and column; the worst values are taken over every output and seed (a
    # float directly under a key is measured against the floats beside it)
    summary = bytegate.FieldSummary()
    for seed_scale in (1.0, 2.0):
        diff = _walk({"results": {"00_band": [{"c1": 1.0, "c2": 4.0}, {"c1": 2.0, "c2": 8.0}]}},
                     {"results": {"00_band": [{"c1": 1.0 + 1e-15 * seed_scale, "c2": 4.0},
                                              {"c1": 2.0 + 4e-15, "c2": 8.0}]}})
        summary.add("short-cli/out/a/report.json", diff)
    table = bytegate.ValueDiff()
    table.walk_table([["n", "norm", "residual"], [0, 3.0, 0.0], [1, 4.0, 1e-16]],
                     [["n", "norm", "residual"], [0, 3.0, 2e-16], [1, 4.0, 1e-16]])
    summary.add("asymptotics-1e5/out/sqrt_growth/02_trajectory_trajectory.csv", table)
    assert summary.lines() == [
        "field asymptotics-1e5 02_trajectory_trajectory.csv:residual: 1 moved floats, "
        "worst relative 1, of the field's largest magnitude 1",
        "field short-cli .results.00_band.c1: 4 moved floats, worst relative 2e-15, "
        f"of the field's largest magnitude {4e-15 / 8.0:.3g}"]
    assert bytegate.FieldSummary().lines() == []


def _report(path: Path, results: str, wall: str) -> Path:
    path.write_text('{\n  "results": {\n    "x": ' + results + '\n  },\n'
                    '  "wall_times": {\n    "00_run": ' + wall + '\n  }\n}\n')
    return path


def _digest(path: Path) -> str:
    return bytegate._file_digests(path.parent, "k")[f"k/{path.name}"]


@pytest.mark.parametrize("parent, change, moved", [
    ("1e-05", "1e-5", "2.5e-05"), ("0.1", "0.10000000000000001", "0.2"),
    ("[\n      1.5\n    ]", "[1.5]", "[\n      2.5\n    ]")])
def test_a_report_digest_sees_number_layout_and_not_wall_times(tmp_path, parent, change, moved):
    (tmp_path / "p").mkdir()
    (tmp_path / "c").mkdir()
    old = _report(tmp_path / "p" / "report.json", parent, "0.25")
    new = _report(tmp_path / "c" / "report.json", change, "0.5")
    assert _digest(old) != _digest(new)
    assert _digest(old) == _digest(_report(new, parent, "7.0"))
    _report(new, change, "0.5")
    diff = bytegate.file_diff(old, new)
    assert diff.floats == [] and diff.other == [": the text differs, the values are equal (layout)"]
    diff = bytegate.file_diff(old, _report(new, moved, "0.5"))
    assert diff.other == [] and len(diff.floats) == 1


def test_a_csv_whose_text_differs_while_its_values_are_equal_is_a_layout_difference(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_bytes(b"n,x\r\n0,1e-05\r\n")
    new.write_bytes(b"n,x\r\n0,1e-5\r\n")
    assert bytegate.file_diff(old, new).other == [
        ": the text differs, the values are equal (layout)"]


def test_the_gate_jobs_run_the_paths_no_workload_takes(tmp_path, monkeypatch):
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    monkeypatch.chdir(tmp_path)
    inputs = bytegate.extra_inputs(3)
    bytegate.write_inputs({"extra": inputs}, tmp_path)
    digests, texts = bytegate._run_jobs(root / "src", tmp_path)
    assert sorted(digests) == [
        "extra/out/extra/02_trajectory_trajectory.csv", "extra/out/extra/report.json",
        "extra/out/scan/00_lambda_scan_intervals.csv", "extra/out/scan/report.json",
        "extra/out/scan/stdout", "extra/out/tabulated/report.json",
        "extra/out/tabulated_cli/report.json", "extra/out/tabulated_cli/stdout"]
    assert texts["extra/out/scan/stdout"] == "exit 0\nwrote out/scan/report.json\n"
    assert texts["extra/out/tabulated_cli/stdout"] == (
        "exit 0\nwrote out/tabulated_cli/report.json\n")
    # the echo of a (its int leaf) and of b (a float table of KERNEL_MIN numbers or more)
    for out in ("tabulated", "tabulated_cli"):
        report = json.loads((tmp_path / "extra/out" / out / "report.json").read_text())
        assert report["config"]["family"] == bytegate.tabulated_file(3)
        assert type(report["config"]["family"]["a"][0][0][0]) is int
        assert "error" not in report["results"]["00_validate" if out == "tabulated"
                                                 else "00_trajectory"]
    results = json.loads((tmp_path / "extra/out/extra/report.json").read_text())["results"]
    assert "error" not in results["00_indeterminacy"]
    assert "error" not in results["01_turan_convergence"]
    # past the overflow limit: the engine's sequential step found it
    traj = results["02_trajectory"]
    assert traj["overflow"] and traj["truncated_at"] < 300
