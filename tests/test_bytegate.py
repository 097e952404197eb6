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
