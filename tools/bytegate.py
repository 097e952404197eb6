"""Byte gate: do two source trees write the same outputs on the benchmark's
workloads and on a few jobs of the gate's own?

    python3 tools/bytegate.py PARENT_SRC CHANGE_SRC --seeds 0-9

PARENT_SRC and CHANGE_SRC are the `src/` directories of two checkouts.  For
every seed, perfbench/workloads.py generates the inputs of the four
workloads, and `extra_inputs` those of the gate's own jobs (paths no
workload takes: a csv-bundle scan, the indeterminacy and turan_convergence
analyses, the engine's sequential re-step, and the report echo of a
tabulated family file whose b mixes real numbers and [re, im] pairs, from
the library and the CLI).  Each
tree runs every job in its own process (the two side by side, with BLAS
threads pinned to 1 as in the benchmark).  The digest of an output is the sha256 of
  - a `report.json`'s text up to its last key, `"wall_times"`, so that the
    layout of every number counts (1e-05 is not 1e-5),
  - any other file a job writes (the CSVs), as written,
  - a CLI job's exit code and stdout;
a job that raises records its exception instead.  The gate prints every
output whose digest differs between the trees, or that only one of them
wrote, and exits 1 when there is any, 0 when all agree and 2 when a tree's
process fails.  Inputs and outputs go to a temporary directory (TMPDIR) that
is removed afterwards.

With --values, each output that differs is also compared by value: a
report.json as parsed JSON (without `wall_times`), a CSV cell by cell (a
cell is an int, else a float, else a string), and stdout or a raised
exception as text.  For every such output the gate prints
  - the largest relative difference |x - y| / max(|x|, |y|) between two
    finite floats at one place;
  - each moved float (the first FLOATS_SHOWN of them) with that relative
    difference and with |x - y| divided by the largest finite magnitude in
    its field, so that noise on an entry that is 0 in exact arithmetic is
    not read as a change of 100%.  The field of a float in an array is the
    value under the nearest JSON key, of a CSV cell its column, and of a
    float directly under a JSON key the floats directly under the keys of
    its object, in either tree;
  - each other difference: a string, int, bool, key, length or non-finite
    float that changed, or an output only one tree has; and "layout" for an
    output whose text differs while its values are equal.
It ends with one line per field over every output and seed: the workload,
the field (a JSON key path without its indices, or a CSV's file name and
column), how many floats moved there, the worst relative difference and the
worst difference relative to the field's largest magnitude.  It then exits
1 only when there is such a non-float difference, 0 when floats alone
moved.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Moved floats printed one per line for each differing output.
FLOATS_SHOWN = 20


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# The last key of a report.json: the text before it is what the gate digests.
WALL_TIMES = b'\n  "wall_times": '

# Jobs the gate runs besides the workloads', for paths no workload takes: the
# object-cell CSV of a csv-bundle scan, the indeterminacy and
# turan_convergence analyses, and the sequential re-step of the propagation
# engine.  The trajectory starts on the decaying solution of paper-constant
# at z = 3 (the transfer matrix's eigenvector for its eigenvalue 0.1769): a
# chunk product loses it to cancellation, and the growing solution that
# rounding excites passes the overflow limit before the horizon.
DECAYING = [1.0, -0.7071067811865469, 0.17694472517071205, -0.12511881506340083]

# The entries of the gate's tabulated family file: 2x2 matrices.  a is real
# and its first number the int 1; b is Hermitian, written as a config writes
# it with a real diagonal: real numbers on the diagonal, [re, im] pairs off
# it.  Both are echoed as the file wrote them, large lists that the report
# writer walks entry by entry; tabulated-1e4 writes [re, im] pairs of floats
# only, which are echoed from a float64 array.
TABULATED_ENTRIES = 160


def tabulated_file(seed: int) -> dict:
    """The gate's tabulated family at a seed: a_n and Hermitian b_n near
    the identity and half of it, perturbed by at most 0.1 an entry."""
    rnd = random.Random(seed)

    def entry(diag: float, hermitian: bool) -> list:
        e = [rnd.uniform(-0.1, 0.1) for _ in range(3)]
        if hermitian:
            return [[diag + e[0], [e[1], e[2]]], [[e[1], -e[2]], diag - e[0]]]
        return [[diag + e[0], e[1]], [e[2], diag - e[0]]]

    a = [entry(1.0, False) for _ in range(TABULATED_ENTRIES)]
    b = [entry(0.5, True) for _ in range(TABULATED_ENTRIES)]
    a[0][0][0] = 1
    return {"kind": "tabulated", "a": a, "b": b}


def extra_inputs(seed: int):
    """The gate's own jobs at a seed, as a workload's Inputs."""
    from workloads import Inputs, Job

    cfg = {"family": "paper-constant", "horizon": 300, "seed": seed, "analyses": [
        {"kind": "indeterminacy", "z_samples": [0.5, [1.0, 0.5]]},
        {"kind": "turan_convergence", "z": 1.0, "alphas": {"random": 3}},
        {"kind": "trajectory", "z": [3.0, 0.0], "alpha": DECAYING},
    ]}
    scan = ["scan", "--family", "paper-constant", "--range=-5,10", "--grid", "201",
            "--horizon", "1000", "--out-dir", "out/scan", "--format", "csv-bundle"]
    family = tabulated_file(seed)
    tab = {"family": family, "horizon": TABULATED_ENTRIES - 2, "seed": seed, "analyses": [
        {"kind": "validate"},
        {"kind": "trajectory", "z": [0.5, 0.25], "alpha": [1.0, 0.0, 0.0, 0.0]},
    ]}
    tab_cli = ["trajectory", "--family", "tabulated_family.json", "--z", "0.5,0.25",
               "--alpha", "1,0,0,0", "--horizon", str(TABULATED_ENTRIES - 2),
               "--out-dir", "out/tabulated_cli"]
    return Inputs({"extra.json": json.dumps(cfg).encode(),
                   "tabulated.json": json.dumps(tab).encode(),
                   "tabulated_family.json": json.dumps(family).encode()},
                  [Job("library", "out/extra", config="extra.json", fmt="csv-bundle"),
                   Job("cli", "out/scan", argv=scan),
                   Job("library", "out/tabulated", config="tabulated.json"),
                   Job("cli", "out/tabulated_cli", argv=tab_cli)])


def _file_digests(out_dir: Path, key: str) -> dict[str, str]:
    digests = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.json" and WALL_TIMES in data:
            data = data[:data.rindex(WALL_TIMES)]
        digests[f"{key}/{path.relative_to(out_dir)}"] = _sha(data)
    return digests


def write_inputs(inputs: dict, work: Path) -> None:
    """Write each workload's input files and `jobs.json` to its own
    directory under work; inputs maps a workload name to its Inputs."""
    for name, inp in inputs.items():
        wl_dir = work / name
        wl_dir.mkdir(parents=True)
        for fname, data in inp.files.items():
            (wl_dir / fname).write_bytes(data)
        (wl_dir / "jobs.json").write_text(json.dumps([asdict(j) for j in inp.jobs]))


def _run_jobs(src: Path, work: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Run the jobs of every workload directory under work against the
    package in src; each directory holds the inputs and `jobs.json`.  Returns
    the digests, and the text each CLI job's stdout digest was taken of."""
    sys.path.insert(0, str(src))
    import blockjacobi
    from blockjacobi import cli, config, runner

    if not Path(blockjacobi.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported {blockjacobi.__file__}, not the package under {src}")
    digests: dict[str, str] = {}
    texts: dict[str, str] = {}
    for wl_dir in sorted(p for p in work.iterdir() if p.is_dir()):
        os.chdir(wl_dir)
        for job in json.loads(Path("jobs.json").read_text()):
            key = f"{wl_dir.name}/{job['out_dir']}"
            try:
                if job["kind"] == "library":
                    cfg = config.parse_config(Path(job["config"]).read_text())
                    runner.emit(runner.run(cfg), Path(job["out_dir"]), job["fmt"])
                else:
                    sink = io.StringIO()
                    with contextlib.redirect_stdout(sink), \
                            contextlib.redirect_stderr(io.StringIO()):
                        try:
                            code = cli.main(job["argv"])
                        except SystemExit as exc:  # argparse exits on a bad command line
                            code = exc.code
                    texts[f"{key}/stdout"] = f"exit {code}\n{sink.getvalue()}"
                    digests[f"{key}/stdout"] = _sha(texts[f"{key}/stdout"].encode())
            except Exception as exc:  # the job boundary: record and go on
                digests[f"{key}/raised"] = f"{type(exc).__name__}: {exc}"
                continue
            if Path(job["out_dir"]).is_dir():
                digests.update(_file_digests(Path(job["out_dir"]), key))
    return digests, texts


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _values(path: Path):
    """The values of an output file: report.json parsed without
    `wall_times`, a CSV as rows of cells, anything else as text."""
    if path.name == "report.json":
        doc = json.loads(path.read_bytes())
        doc.pop("wall_times", None)
        return doc
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return [[_cell(c) for c in row] for row in csv.reader(fh)]
    return path.read_text()


def _magnitude(value) -> float:
    """The largest finite |x| over the numbers (not bools) nested in value;
    0 when it holds none."""
    if type(value) in (int, float):
        return abs(value) if math.isfinite(value) else 0.0
    if type(value) in (list, tuple):
        return max(map(_magnitude, value), default=0.0)
    if type(value) is dict:
        return max(map(_magnitude, value.values()), default=0.0)
    return 0.0


class ValueDiff:
    """The differences between two parsed outputs: every pair of finite
    floats that moved, with the largest relative difference among them, and
    every other difference.

    Each moved float is also measured against its field, the largest finite
    magnitude in either tree under the nearest JSON key (in its CSV column;
    among the floats of its object, for a float directly under a key):
    rounding noise on an entry that is exactly 0 reads as relative
    difference 1, but as a tiny fraction of the field it sits in."""

    def __init__(self):
        self.worst = 0.0
        self.worst_at = ""
        self.floats: list[tuple[str, float, float, float, float]] = []
        self.other: list[str] = []
        self.header: list | None = None  # a CSV's first row

    def field(self, at: str) -> str:
        """The field of the float at `at`: a CSV's column header, else the
        JSON key path without its indices."""
        if self.header is None:
            return re.sub(r"\[\d+\]", "", at)
        j = int(at.rsplit("[", 1)[1][:-1])
        return str(self.header[j]) if j < len(self.header) else f"column {j}"

    def walk(self, old, new, at: str = "", scale: float | None = None) -> None:
        """Compare old and new; scale is the largest finite magnitude of
        their field (by default, of old and new themselves)."""
        scale = _magnitude((old, new)) if scale is None else scale
        if type(old) is float and type(new) is float and math.isfinite(old) \
                and math.isfinite(new):
            if old != new:
                rel = abs(old - new) / max(abs(old), abs(new))
                self.floats.append((at, old, new, rel, abs(old - new) / scale))
                if rel > self.worst:
                    self.worst, self.worst_at = rel, f"{at} (parent {old!r}, change {new!r})"
        elif type(old) is dict and type(new) is dict:
            if old.keys() != new.keys():
                self.other.append(f"{at}: keys {sorted(old.keys() ^ new.keys())} in one tree only")
            # a float's own field is the floats beside it (itself included)
            scalars = _magnitude([v for v in [*old.values(), *new.values()]
                                  if type(v) is float])
            for k in sorted(old.keys() & new.keys()):
                self.walk(old[k], new[k], f"{at}.{k}",
                          scalars if type(old[k]) is float else _magnitude((old[k], new[k])))
        elif type(old) is list and type(new) is list:
            if len(old) != len(new):
                self.other.append(f"{at}: length {len(old)} -> {len(new)}")
            for i, (o, n) in enumerate(zip(old, new)):
                self.walk(o, n, f"{at}[{i}]", scale)
        elif type(old) is not type(new) or (old != new and not (
                type(old) is float and math.isnan(old) and math.isnan(new))):
            self.other.append(f"{at}: parent {old!r}, change {new!r}")

    def walk_table(self, old: list, new: list) -> None:
        """Compare two CSVs parsed into rows of cells; a cell's field is its
        column in both tables."""
        if len(old) != len(new):
            self.other.append(f": length {len(old)} -> {len(new)}")
        self.header = old[0] if old else []
        rows = old + new
        scales = [_magnitude([row[j] for row in rows if j < len(row)])
                  for j in range(max(map(len, rows), default=0))]
        for i, (o, n) in enumerate(zip(old, new)):
            if len(o) != len(n):
                self.other.append(f"[{i}]: length {len(o)} -> {len(n)}")
            for j, (x, y) in enumerate(zip(o, n)):
                self.walk(x, y, f"[{i}][{j}]", scales[j])


class FieldSummary:
    """The moved floats of every output compared, by workload and field:
    their count, the worst relative difference and the worst difference
    relative to the field's largest magnitude."""

    def __init__(self):
        self.fields: dict[str, list] = {}

    def add(self, key: str, diff: ValueDiff) -> None:
        """Count the moved floats of diff, the output at digest key
        (workload/out_dir/file)."""
        workload, _, path = key.partition("/")
        name = "" if path.endswith(".json") else Path(path).name + ":"
        for at, _, _, rel, of_field in diff.floats:
            entry = self.fields.setdefault(f"{workload} {name}{diff.field(at)}", [0, 0.0, 0.0])
            entry[0] += 1
            entry[1], entry[2] = max(entry[1], rel), max(entry[2], of_field)

    def lines(self) -> list[str]:
        return [f"field {field}: {n} moved floats, worst relative {rel:.3g}, "
                f"of the field's largest magnitude {of_field:.3g}"
                for field, (n, rel, of_field) in sorted(self.fields.items())]


def file_diff(old: Path, new: Path) -> ValueDiff:
    """The differences between two versions of an output file whose digests
    differ: by value, and "layout" when the values are equal."""
    diff = ValueDiff()
    walk = diff.walk_table if old.suffix == ".csv" else diff.walk
    walk(_values(old), _values(new))
    if not diff.floats and not diff.other:
        diff.other.append(": the text differs, the values are equal (layout)")
    return diff


def _seeds(specs: list[str]) -> list[int]:
    """Seeds from "3" and "0-9" style specs, in order."""
    out: list[int] = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _short(digest: str | None) -> str:
    return "missing" if digest is None else digest[:16]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        print(json.dumps(_run_jobs(Path(argv[1]), Path(argv[2]))))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    ap.add_argument("--seeds", nargs="+", default=["0"],
                    help="seeds, or ranges such as 0-9 (default: 0)")
    ap.add_argument("--values", action="store_true",
                    help="compare the values of every output that differs; "
                         "exit 1 only on a non-float difference")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import PINNED_THREADS
    from workloads import WORKLOADS, generate

    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", **PINNED_THREADS)
    env.pop("PYTHONPATH", None)
    trees = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    seeds = _seeds(args.seeds)
    compared = differ = other = 0
    summary = FieldSummary()
    worst_of_field = 0.0
    worst, worst_at = 0.0, ""
    for seed in seeds:
        with tempfile.TemporaryDirectory(prefix=f"bytegate-s{seed}-") as tmp:
            inputs = {name: generate(name, seed) for name in WORKLOADS}
            inputs["extra"] = extra_inputs(seed)
            procs = {}
            for tree, src in trees.items():
                write_inputs(inputs, Path(tmp, tree))
                procs[tree] = subprocess.Popen(
                    [sys.executable, __file__, "--child", str(src), str(Path(tmp, tree))],
                    env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            outs = {tree: proc.communicate() for tree, proc in procs.items()}
            for tree, proc in procs.items():
                if proc.returncode != 0:
                    print(f"seed {seed}: the {tree} tree's process exited {proc.returncode}:\n"
                          f"{outs[tree][1]}", file=sys.stderr)
                    return 2
            (old, old_texts), (new, new_texts) = (
                json.loads(outs[tree][0].splitlines()[-1]) for tree in trees)
            for key in sorted(old.keys() | new.keys()):
                compared += 1
                if old.get(key) == new.get(key):
                    continue
                differ += 1
                print(f"seed {seed}: {key} differs: "
                      f"parent {_short(old.get(key))}, change {_short(new.get(key))}")
                if not args.values:
                    continue
                diff = ValueDiff()
                if key not in old or key not in new:
                    diff.other.append(f": written by the {'change' if key in new else 'parent'} only")
                elif key.endswith(("/stdout", "/raised")):
                    diff.walk(old_texts.get(key, old[key]), new_texts.get(key, new[key]))
                else:
                    diff = file_diff(Path(tmp, "parent", key), Path(tmp, "change", key))
                if diff.worst:
                    print(f"    worst relative float difference {diff.worst:.3g} at {diff.worst_at}")
                    if diff.worst > worst:
                        worst, worst_at = diff.worst, f"seed {seed}: {key}{diff.worst_at}"
                for at, o, n, rel, of_field in diff.floats[:FLOATS_SHOWN]:
                    print(f"    float at {key}{at}: parent {o!r}, change {n!r}; "
                          f"relative {rel:.3g}, of the field's largest magnitude {of_field:.3g}")
                if len(diff.floats) > FLOATS_SHOWN:
                    print(f"    ... and {len(diff.floats) - FLOATS_SHOWN} more moved floats")
                worst_of_field = max([worst_of_field] + [f[-1] for f in diff.floats])
                summary.add(key, diff)
                for line in diff.other:
                    print(f"    non-float difference at {key}{line}")
                other += len(diff.other)
    print(f"{compared} outputs compared at seeds {', '.join(map(str, seeds))}: "
          f"{differ} differ")
    if not args.values:
        return 1 if differ else 0
    print(f"values: worst relative float difference {worst:.3g}"
          + (f" at {worst_at}" if worst else "")
          + f", and {worst_of_field:.3g} relative to a field's largest magnitude"
          + f"; {other} non-float differences")
    for line in summary.lines():
        print(line)
    return 1 if other else 0


if __name__ == "__main__":
    sys.exit(main())
