"""Benchmark of blockjacobi: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout.  The workload's inputs are generated from
the seed into `.perfbench_run/`, and fresh processes (worker.py) with
BLAS/OpenMP threads pinned to 1 run them against the package under `src/`:
SETUP_PROBES processes that only set up, then one that runs the workload.
Without tracing the end-to-end metrics are printed; with `--trace 1` the
per-layer metrics of one traced pass.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it records the environment and the input sizes.  `--all`
runs every workload untraced and prints each end-to-end metric by name and
unit, one workload per block.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
RUN_ROOT = Path(".perfbench_run")
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150.0
PINNED_THREADS = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "invocation_p50_ms": "ms",
    "invocation_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "opcore.calls": "count",
    "opcore.self_s": "s",
    "opcore.linalg_calls": "count",
    "opcore.linalg_matrices_per_call": "matrices/call",
    "coeffs.self_s": "s",
    "coeffs.entry_calls": "count",
    "coeffs.weight_calls": "count",
    "commutator.self_s": "s",
    "commutator.form_evals": "count",
    "recurrence.self_s": "s",
    "recurrence.steps": "count",
    "recurrence.stack_rows": "count",
    "turan.self_s": "s",
    "turan.extract_s": "s",
    "turan.form_evals": "count",
    "config.parse_s": "s",
    "runner.self_s": "s",
    "runner.emit_s": "s",
    "runner.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def e2e_metrics(setup_samples: list[float], work: dict) -> dict[str, float]:
    inv = work["invocations"]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(work["pass_walls"]),
        "invocation_p50_ms": 1000.0 * percentile(inv, 50.0),
        "invocation_p90_ms": 1000.0 * percentile(inv, 90.0),
        "peak_rss_mb": work["peak_rss_mb"],
    }


def input_sizes(files: dict[str, bytes], jobs) -> dict:
    """Config bytes, horizons and trajectories (initial data) per pass."""
    trajectories = 0
    for job in jobs:
        if job.kind == "cli" and job.argv[0] == "trajectory":
            trajectories += 1
        cfg = job.config or (job.argv[1] if job.argv[0] == "analyze" else None)
        if cfg is None:
            continue
        for a in json.loads(files[cfg])["analyses"]:
            alphas = a.get("alphas", {})
            trajectories += alphas.get("random", 0) if isinstance(alphas, dict) else len(alphas)
            trajectories += a["kind"] in ("trajectory", "christoffel")
    return {
        "config_bytes": sum(len(b) for b in files.values()),
        "jobs": len(jobs),
        "horizons": sorted({j.horizon for j in jobs}),
        "trajectories": trajectories,
    }


def _child(args: list[str], run_dir: Path, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **PINNED_THREADS)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=run_dir, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(info, result) for one run of one workload."""
    src = Path("src").resolve()
    inputs = generate(name, seed)
    run_dir = (RUN_ROOT / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}").resolve()
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        run_dir.mkdir(parents=True)
        for fname, data in inputs.files.items():
            (run_dir / fname).write_bytes(data)
        (run_dir / "jobs.json").write_text(json.dumps([asdict(j) for j in inputs.jobs]))
        setups = [] if trace else [
            _child(["setup", str(run_dir), str(src)], run_dir, 60.0)
            for _ in range(SETUP_PROBES)]
        work = _child(["work", str(run_dir), str(src), str(seconds), str(int(trace))],
                      run_dir, CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if trace:
        metrics = work["layers"]
        units = LAYER_UNITS
        (RUN_ROOT / f"trace-{name}.json").write_text(
            json.dumps(work["trace_summary"], indent=1, sort_keys=True))
        run_dir.with_name(run_dir.name + ".spans.tsv.gz").replace(
            RUN_ROOT / f"trace-{name}.spans.tsv.gz")
    else:
        metrics = e2e_metrics([s["setup_s"] for s in setups + [work]], work)
        units = E2E_UNITS
    info = {
        "workload": name, "seed": seed, "trace": trace,
        "env": work["env"],
        "inputs": input_sizes(inputs.files, inputs.jobs),
        "samples": {"passes": len(work["pass_walls"]),
                    "invocations": len(work["invocations"]),
                    "setups": len(setups) + 1,
                    "speed": work["speed_samples"]},
        "raw": {"pass_walls_s": work["raw_pass_walls"],
                "setups_s": [s["setup_raw_s"] for s in setups + [work]]},
        "failures": work["failures"][:20],
    }
    failed = len(work["failures"])
    result = {
        "correct": failed == 0,
        "attempted": work["attempted"],
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return info, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload untraced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (Path("src") / "blockjacobi" / "__init__.py").is_file():
        print("error: run from the root of a blockjacobi checkout (no src/blockjacobi)",
              file=sys.stderr)
        return 2
    if args.all:
        for name in WORKLOADS:
            info, result = run_workload(name, args.seed, args.seconds, False)
            print(f"{name}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
            for k, m in result["metrics"].items():
                print(f"  {k} = {m['value']:.6g} {m['unit']}")
        return 0
    if args.workload is None:
        ap.error("--workload or --all is required")
    info, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
