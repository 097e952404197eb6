"""Line trace: which lines of src/blockjacobi do the tests and the benchmark
workloads execute?

    python3 tools/linetrace.py --tests
    python3 tools/linetrace.py --workloads 0-1
    python3 tools/linetrace.py --tests --workloads 0-1

--tests runs the Tier-1 suite (pytest over the repository) and --workloads
runs every job of the four workloads that perfbench/workloads.py generates
for the given seeds, in a temporary directory, as tools/bytegate.py runs
them.  Each mode runs in its own process, which imports the package under a
sys.settrace tracer and records every line of src/blockjacobi it executes.

For each module the tool prints its executable lines (the line numbers of
co_lines() of the compiled module and of every code object nested in it)
that no run touched, and, with both modes, the lines that only the tests
touched.  It exits 1 when the suite fails or a workload job raises, and 2
when a run's process fails.
Only the standard library is used; the tracer roughly doubles the run time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "blockjacobi"


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file that start an instruction of its code."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts at 0
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def record(run, root: Path) -> tuple[object, dict[str, set[int]]]:
    """run() under a tracer; its result and the executed lines of every
    file under root, by path.  A function's first line counts when it is
    called."""
    prefix = str(root.resolve()) + os.sep
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        hits.setdefault(path, set()).add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, hits


def _ranges(lines) -> str:
    """Sorted line numbers written as runs: "3-5, 9"."""
    runs: list[list[int]] = []
    for n in sorted(lines):
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def _run_tests() -> int:
    import pytest

    os.chdir(ROOT)
    with contextlib.redirect_stdout(sys.stderr):  # stdout carries the result
        return int(pytest.main(["-q", "-p", "no:cacheprovider",
                                "--continue-on-collection-errors"]))


def _run_workloads(seeds: list[int]) -> int:
    """Run every job of the workloads at each seed; the number that raised."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import bytegate
    from workloads import WORKLOADS, generate

    raised = 0
    for seed in seeds:
        with tempfile.TemporaryDirectory(prefix=f"linetrace-s{seed}-") as tmp:
            bytegate.write_inputs({name: generate(name, seed) for name in WORKLOADS}, Path(tmp))
            digests, _ = bytegate._run_jobs(SRC, Path(tmp))
            os.chdir(ROOT)
        for key in [key for key in digests if key.endswith("/raised")]:
            print(f"seed {seed}: {key}: {digests[key]}", file=sys.stderr)
            raised += 1
    return raised


def _child(mode: str, arg: str) -> int:
    if mode == "tests":
        sys.path.insert(0, str(SRC))
        code, hits = record(_run_tests, PACKAGE)
    else:
        from bytegate import _seeds

        code, hits = record(lambda: _run_workloads(_seeds([arg])), PACKAGE)
    print(json.dumps({"exit": code, "hits": {k: sorted(v) for k, v in hits.items()}}))
    return 0


def _traced(mode: str, arg: str = "") -> tuple[int, dict[str, set[int]]]:
    """The exit code and the executed lines of one mode's run, in its own
    process, which writes no bytecode into the repository."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import PINNED_THREADS

    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", **PINNED_THREADS)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, __file__, "--child", mode, arg], env=env,
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"the {mode} run's process exited {proc.returncode}", file=sys.stderr)
        raise SystemExit(2)
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["exit"], {k: set(v) for k, v in out["hits"].items()}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return _child(argv[1], argv[2])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tests", action="store_true", help="run the Tier-1 suite")
    ap.add_argument("--workloads", metavar="SEEDS",
                    help="run the benchmark workloads at these seeds, e.g. 0-1")
    args = ap.parse_args(argv)
    if not args.tests and args.workloads is None:
        ap.error("give --tests, --workloads SEEDS or both")
    runs = {}
    status = 0
    if args.tests:
        code, runs["tests"] = _traced("tests")
        if code:
            print(f"the suite exited {code}", file=sys.stderr)
            status = 1
    if args.workloads is not None:
        raised, runs["workloads"] = _traced("workloads", args.workloads)
        if raised:
            print(f"{raised} workload jobs raised", file=sys.stderr)
            status = 1
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        touched = [run.get(str(path), set()) for run in runs.values()]
        untouched = lines - set().union(*touched)
        print(f"{path.name}: {len(lines)} executable lines, {len(untouched)} untouched")
        if untouched:
            print(f"  untouched: {_ranges(untouched)}")
        if len(runs) == 2:
            only = (touched[0] - touched[1]) & lines
            print(f"  tests only ({len(only)}): {_ranges(only) or '-'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
