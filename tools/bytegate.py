"""Byte gate: do two source trees write the same outputs on the benchmark's
workloads?

    python3 tools/bytegate.py PARENT_SRC CHANGE_SRC --seeds 0-9

PARENT_SRC and CHANGE_SRC are the `src/` directories of two checkouts.  For
every seed, perfbench/workloads.py generates the inputs of the four
workloads, and each tree runs every job of them in its own process (the two
side by side, with BLAS threads pinned to 1 as in the benchmark).  The digest
of an output is the sha256 of
  - a `report.json` without `wall_times`, re-dumped with sorted keys,
  - any other file a job writes (the CSVs), as written,
  - a CLI job's exit code and stdout;
a job that raises records its exception instead.  The gate prints every
output whose digest differs between the trees, or that only one of them
wrote, and exits 1 when there is any, 0 when all agree and 2 when a tree's
process fails.  Inputs and outputs go to a temporary directory (TMPDIR) that
is removed afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digests(out_dir: Path, key: str) -> dict[str, str]:
    digests = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.json":
            doc = json.loads(data)
            doc.pop("wall_times", None)
            data = json.dumps(doc, sort_keys=True).encode()
        digests[f"{key}/{path.relative_to(out_dir)}"] = _sha(data)
    return digests


def _run_jobs(src: Path, work: Path) -> dict[str, str]:
    """Run the jobs of every workload directory under work against the
    package in src; each directory holds the inputs and `jobs.json`."""
    sys.path.insert(0, str(src))
    import blockjacobi
    from blockjacobi import cli, config, runner

    if not Path(blockjacobi.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported {blockjacobi.__file__}, not the package under {src}")
    digests: dict[str, str] = {}
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
                    digests[f"{key}/stdout"] = _sha(f"exit {code}\n{sink.getvalue()}".encode())
            except Exception as exc:  # the job boundary: record and go on
                digests[f"{key}/raised"] = f"{type(exc).__name__}: {exc}"
                continue
            if Path(job["out_dir"]).is_dir():
                digests.update(_file_digests(Path(job["out_dir"]), key))
    return digests


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
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import PINNED_THREADS
    from workloads import WORKLOADS, generate

    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", **PINNED_THREADS)
    env.pop("PYTHONPATH", None)
    trees = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    seeds = _seeds(args.seeds)
    compared = differ = 0
    for seed in seeds:
        with tempfile.TemporaryDirectory(prefix=f"bytegate-s{seed}-") as tmp:
            inputs = {name: generate(name, seed) for name in WORKLOADS}
            procs = {}
            for tree, src in trees.items():
                for name, inp in inputs.items():
                    wl_dir = Path(tmp, tree, name)
                    wl_dir.mkdir(parents=True)
                    for fname, data in inp.files.items():
                        (wl_dir / fname).write_bytes(data)
                    (wl_dir / "jobs.json").write_text(json.dumps([asdict(j) for j in inp.jobs]))
                procs[tree] = subprocess.Popen(
                    [sys.executable, __file__, "--child", str(src), str(Path(tmp, tree))],
                    env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            outs = {tree: proc.communicate() for tree, proc in procs.items()}
        for tree, proc in procs.items():
            if proc.returncode != 0:
                print(f"seed {seed}: the {tree} tree's process exited {proc.returncode}:\n"
                      f"{outs[tree][1]}", file=sys.stderr)
                return 2
        old, new = (json.loads(outs[tree][0].splitlines()[-1]) for tree in trees)
        for key in sorted(old.keys() | new.keys()):
            compared += 1
            if old.get(key) != new.get(key):
                differ += 1
                print(f"seed {seed}: {key} differs: "
                      f"parent {_short(old.get(key))}, change {_short(new.get(key))}")
    print(f"{compared} outputs compared at seeds {', '.join(map(str, seeds))}: "
          f"{differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
