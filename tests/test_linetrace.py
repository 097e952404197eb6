"""The line trace: executable lines of a module, the lines a run executes,
and their report."""

import importlib.util
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "linetrace", Path(__file__).resolve().parent.parent / "tools" / "linetrace.py")
linetrace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(linetrace)

MODULE = '''"""A docstring is no instruction of a function."""


def sign(x):
    """Neither is this one."""
    if x < 0:
        return -1
    return 1


def unused():
    return 0
'''


def _load(tmp_path):
    path = tmp_path / "pkg" / "mod.py"
    path.parent.mkdir()
    path.write_text(MODULE)
    spec = importlib.util.spec_from_file_location("linetrace_sample", path)
    mod = importlib.util.module_from_spec(spec)
    return path, spec, mod


def test_executable_lines_are_those_of_the_code_objects(tmp_path):
    path, _, _ = _load(tmp_path)
    # the module docstring, each def, and each statement of the bodies
    assert linetrace.executable_lines(path) == {1, 4, 6, 7, 8, 11, 12}


def test_a_run_records_its_lines_under_the_root_and_no_others(tmp_path):
    path, spec, mod = _load(tmp_path)
    before = sys.gettrace()

    def run():
        spec.loader.exec_module(mod)  # the import runs under the tracer too
        return mod.sign(2)

    result, hits = linetrace.record(run, path.parent)
    assert sys.gettrace() is before
    assert result == 1
    assert list(hits) == [str(path)]
    # line 7 (the negative branch) and the body of unused() never ran
    assert linetrace.executable_lines(path) - hits[str(path)] == {7, 12}


def test_lines_are_written_as_runs():
    assert linetrace._ranges([9, 3, 4, 5, 11, 12]) == "3-5, 9, 11-12"
    assert linetrace._ranges([]) == ""


def test_a_mode_is_required(capsys):
    with pytest.raises(SystemExit) as exc:
        linetrace.main([])
    assert exc.value.code == 2
    assert "give --tests, --workloads SEEDS or both" in capsys.readouterr().err
