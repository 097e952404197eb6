"""One benchmark process: set up, run the workload's jobs, check the outputs.

    python3 perfbench/worker.py setup RUN_DIR SRC_DIR
    python3 perfbench/worker.py work RUN_DIR SRC_DIR SECONDS TRACE

RUN_DIR holds `jobs.json` and the generated inputs written by run.py; every
output lands under it.  `setup` imports the package from SRC_DIR, parses the
configs and builds their families, and prints the time that took, raw and
speed-scaled (see SpeedMeter).  `work` does
the same set-up, then runs whole passes over the jobs until SECONDS have been
measured (at least two passes, so that each output can be compared with the
same output of another pass).  With TRACE=1 the second pass runs under the
tracer of tracing.py, the per-layer numbers are reported instead, and the
spans are written next to RUN_DIR as `<RUN_DIR>.spans.tsv.gz`.

The last stdout line is one JSON object; run.py reads nothing else.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import sys
import time
import traceback
from array import array
from bisect import bisect_right
from pathlib import Path

from checks import check_report, load_report

# Set-up time counts from here: importing numpy (which blockjacobi imports
# first thing, and the speed kernel needs) is part of importing the package.
T_START = time.perf_counter()

import numpy  # noqa: E402

# Every SAMPLE_INTERVAL_S the speed meter runs a kernel of KERNEL_REPEATS
# 2x2 complex products and spectral norms, the kind of small numpy call the
# program spends its time in, SAMPLE_RUNS times back to back and keeps the
# fastest run, which has its code and data back in cache.  REFERENCE_KERNEL_S
# is that time undisturbed on the machine the baseline was measured on (Xeon,
# 2 vCPUs, Python 3.11.7, numpy 2.4.6; 5th-10th percentile of 20 000 samples).
KERNEL_REPEATS = 5
SAMPLE_RUNS = 3
SAMPLE_INTERVAL_S = 0.025
REFERENCE_KERNEL_S = 1.0e-4
_KERNEL_OP = numpy.array([[1.0, 1.0], [1.0, 2.0]], dtype=numpy.complex128)
_norm = numpy.linalg.norm  # bound now, so the tracer's wrapper never counts it


def _kernel() -> None:
    for _ in range(KERNEL_REPEATS):
        _norm(_KERNEL_OP @ _KERNEL_OP, 2)


class SpeedMeter:
    """Measures how fast this process's CPU runs, from inside its own thread.

    On a shared host the vCPU alternates for seconds at a time between its
    full speed and one 1.3-1.7x slower (another tenant on the same core), and
    single runs differ by 20% or more.  SIGALRM samples the kernel between
    bytecodes of the main thread, so each sample sees the speed the program
    sees at that moment.  `scaled(a, b)` is the time from a to b with the
    samples' own time removed and every stretch scaled by REFERENCE_KERNEL_S
    over the kernel time measured there: the seconds the same work takes at
    the reference speed.
    """

    def __init__(self):
        self.t = array("d")     # sample start
        self.busy = array("d")  # time the sample took, all runs
        self.k = array("d")     # fastest kernel run of the sample

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        best = float("inf")
        for _ in range(SAMPLE_RUNS):
            r0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - r0)
        self.t.append(t0)
        self.busy.append(time.perf_counter() - t0)
        self.k.append(best)

    def start(self) -> None:
        _kernel()  # the first call loads LAPACK; keep it out of the samples
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def _rate(self, i: int) -> float:
        """Reference speed over measured speed at sample i (median of three
        neighbours, so one preempted sample does not count)."""
        ks = sorted(self.k[max(i - 1, 0):i + 2])
        return REFERENCE_KERNEL_S / ks[(len(ks) - 1) // 2]

    def scaled(self, a: float, b: float) -> float:
        t = self.t
        if not t:
            return b - a
        i = max(bisect_right(t, a) - 1, 0)
        pos, total = a, 0.0
        j = i + 1
        while j < len(t) and t[j] < b:
            total += max(t[j] - pos, 0.0) * self._rate(i)
            pos, i = t[j] + self.busy[j], j
            j += 1
        return total + max(b - pos, 0.0) * self._rate(i)


METER = SpeedMeter()
# Stop starting passes once this much time has gone, so the whole run stays
# well inside its time limit even when a pass is slow.
PASS_BUDGET_S = 110.0


def _setup(run_dir: Path, src: str):
    """Import the package, parse every config and build its family."""
    sys.path.insert(0, src)
    from blockjacobi import cli, config, runner  # noqa: F401

    jobs = json.loads((run_dir / "jobs.json").read_text())
    for name in sorted({j["config"] for j in jobs if j["config"]}
                       | {a for j in jobs for a in j["argv"] if a.endswith(".json")}):
        config.parse_config((run_dir / name).read_text()).family.build()
    for fam in sorted({j["family"] for j in jobs if j["kind"] == "cli"}):
        config.parse_family(fam, "$.family").build()
    return jobs, time.perf_counter()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _read_outputs(out_dir: Path):
    """The report without wall_times, the CSV texts by stem, and the bytes
    written.  The bytes leave out the `"wall_times": {...}` object, whose
    digits vary from run to run, so that the count repeats."""
    text = (out_dir / "report.json").read_text()
    report = load_report(text)
    report.pop("wall_times", None)
    tables = {p.stem: p.read_text() for p in sorted(out_dir.glob("*.csv"))}
    times_at = text.find('"wall_times": {')
    size = len(text) - (text.find("}", times_at) + 1 - times_at if times_at >= 0 else 0)
    size += sum(p.stat().st_size for p in out_dir.glob("*.csv"))
    return report, tables, size


def _entry_keys(run_dir: Path, job: dict) -> list[str]:
    raw = json.loads((run_dir / job["config"]).read_text())
    return [f"{i:02d}_{a['kind']}" for i, a in enumerate(raw["analyses"])]


class Pass:
    """Timings, per-operation outcomes and output digests of one pass."""

    def __init__(self):
        self.times: list[float] = []
        self.raw_times: list[float] = []
        self.ops: dict[str, list[str]] = {}
        self.digests: dict[str, str] = {}
        self.bytes_written = 0

    def timed(self, t0: float) -> None:
        """Record one job that started at t0 and has just returned."""
        t1 = time.perf_counter()
        self.times.append(METER.scaled(t0, t1))
        self.raw_times.append(t1 - t0)

    @property
    def wall(self) -> float:
        return sum(self.times)


def _run_library(modules, run_dir: Path, job: dict, idx: int, rec: Pass) -> None:
    config, runner = modules["config"], modules["runner"]
    out_dir = run_dir / job["out_dir"]
    shutil.rmtree(out_dir, ignore_errors=True)
    prefix = f"{idx}:"
    try:
        cfg = config.parse_config((run_dir / job["config"]).read_text())
        t0 = time.perf_counter()
        report = runner.run(cfg)
        runner.emit(report, out_dir, job["fmt"])
        rec.timed(t0)
        doc, tables, size = _read_outputs(out_dir)
        failures = check_report(doc, job["family"], tables)
    except Exception:  # the job boundary: record and continue with the next job
        msg = traceback.format_exc(limit=3)
        for key in _entry_keys(run_dir, job):
            rec.ops[prefix + key] = [msg]
        return
    rec.bytes_written += size
    results = doc.pop("results")
    shared = _canonical(doc)
    for key, errs in failures.items():
        rec.ops[prefix + key] = errs
        own = [tables[t].encode() for t in sorted(tables) if t.startswith(key + "_")]
        rec.digests[prefix + key] = _digest(b"\0".join([shared, _canonical(results[key])] + own))


def _run_cli(modules, run_dir: Path, job: dict, idx: int, rec: Pass) -> None:
    cli = modules["cli"]
    out_dir = run_dir / job["out_dir"]
    shutil.rmtree(out_dir, ignore_errors=True)
    key = f"{idx}:{job['argv'][0]}"
    sink = io.StringIO()
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(job["argv"])
            except SystemExit as exc:  # argparse exits on a bad command line
                code = exc.code
        rec.timed(t0)
        if code != 0:
            rec.ops[key] = [f"exit code {code}: {sink.getvalue().strip()}"]
            return
        doc, tables, size = _read_outputs(out_dir)
        failures = check_report(doc, job["family"], tables)
    except Exception:  # the job boundary: record and continue with the next job
        rec.ops[key] = [traceback.format_exc(limit=3)]
        return
    rec.bytes_written += size
    rec.ops[key] = [e for errs in failures.values() for e in errs]
    rec.digests[key] = _digest(b"\0".join([_canonical(doc)]
                                          + [tables[t].encode() for t in sorted(tables)]))


def _run_pass(modules, run_dir: Path, jobs: list[dict], tracer=None) -> Pass:
    rec = Pass()
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.current_op = idx
        if job["kind"] == "library":
            _run_library(modules, run_dir, job, idx, rec)
        else:
            _run_cli(modules, run_dir, job, idx, rec)
    return rec


def _outcomes(passes: list[Pass]) -> tuple[int, list[str]]:
    """Attempted operations and failure messages over all passes.  An output
    that differs from the first pass's fails its operation."""
    attempted, failures = 0, []
    first = passes[0].digests
    for p, rec in enumerate(passes):
        for op, errs in rec.ops.items():
            attempted += 1
            if not errs and op in first and rec.digests.get(op) != first[op]:
                errs = [f"output differs from pass 0 in pass {p}"]
            if errs:
                failures.append(f"pass {p} op {op}: {errs[0]}")
    return attempted, failures


def _environment() -> dict:
    import numpy

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str]) -> int:
    mode, run_dir, src = argv[0], Path(argv[1]), argv[2]
    jobs, t_setup = _setup(run_dir, src)
    setup = {"setup_s": METER.scaled(T_START, t_setup), "setup_raw_s": t_setup - T_START}
    if mode == "setup":
        print(json.dumps(setup))
        return 0
    seconds, trace = float(argv[3]), argv[4] == "1"
    import blockjacobi
    from blockjacobi import cli, config, runner

    if not Path(blockjacobi.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {blockjacobi.__file__}, not the package under {src}")
    modules = {"cli": cli, "config": config, "runner": runner}
    passes: list[Pass] = []
    out = {**setup, "env": _environment()}
    t_measure = time.perf_counter()
    if trace:
        from tracing import Tracer, layer_metrics, summarize

        passes.append(_run_pass(modules, run_dir, jobs))
        tracer = Tracer()
        tracer.install()
        passes.append(_run_pass(modules, run_dir, jobs, tracer))
        tracer.uninstall()
        tracer.write(run_dir.with_name(run_dir.name + ".spans.tsv.gz"))
        summary = summarize(tracer, METER.scaled)
        out["layers"] = layer_metrics(summary, tracer.counts, passes[1].bytes_written,
                                      passes[1].wall - passes[0].wall)
        out["spans"] = len(tracer.start)
        out["trace_summary"] = summary
    else:
        while len(passes) < 2 or (time.perf_counter() - t_measure < seconds
                                  and time.perf_counter() - T_START < PASS_BUDGET_S):
            passes.append(_run_pass(modules, run_dir, jobs))
    attempted, failures = _outcomes(passes)
    out.update({
        "attempted": attempted,
        "failures": failures,
        "pass_walls": [p.wall for p in passes],
        "raw_pass_walls": [sum(p.raw_times) for p in passes],
        "invocations": [t for p in passes for t in p.times],
        "speed_samples": len(METER.t),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    METER.start()
    try:
        code = main(sys.argv[1:])
    finally:
        METER.stop()
    sys.exit(code)
