"""Seeded input generators for the benchmark workloads.

`generate(name, seed)` is a pure function of its arguments: it returns the
input files (relative path -> bytes) and the list of jobs that use them.  The
same seed gives byte-identical files; only the standard library's `random`
is used, so the bytes do not depend on the installed numpy.

A job is one call into the program: a library job runs
`config.parse_config` -> `runner.run` -> `runner.emit` on one config file, a
CLI job runs `cli.main(argv)`.  Every workload is a closed loop with one
caller: the next job starts when the previous one has returned.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("checkers-1e4", "asymptotics-1e5", "tabulated-1e4", "short-cli")

FIXTURE_NAMES = ("paper-constant", "paper-unbounded", "paper-blockrepeat",
                 "paper-logweight")
CLI_HORIZONS = (400, 1000, 2000)
CLI_REPEATS = 3

X_OP = ((1.0, 1.0), (1.0, 2.0))
Y_OP = ((2.0, 1.0), (1.0, 1.0))
ZERO_OP = ((0.0, 0.0), (0.0, 0.0))

# Real spectral parameters inside the paper-constant strict-definiteness
# interval (0.303, 1.459), where the two-sided band holds and trajectories
# stay bounded; the other fixtures' limit forms are definite on all of
# [-5, 10].  The residual and overflow checks rely on this.
TRAJECTORY_Z = (0.5, 0.75, 1.0, 1.25)


@dataclass
class Job:
    """One operation of a workload.

    `kind` is "library" or "cli".  Library jobs name a config file and an
    output format; CLI jobs carry the argv.  `out_dir` is where the report
    lands; `family` labels the input for the checks in checks.py.
    """

    kind: str
    out_dir: str
    config: str | None = None
    fmt: str = "json"
    argv: list[str] = field(default_factory=list)
    family: str = ""
    horizon: int = 0


@dataclass
class Inputs:
    files: dict[str, bytes]
    jobs: list[Job]


def _dump(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def _unit_alpha(rnd: random.Random) -> list:
    """A seeded unit vector of H (+) H for H = C^2, as JSON [re, im] pairs."""
    v = [complex(rnd.gauss(0.0, 1.0), rnd.gauss(0.0, 1.0)) for _ in range(4)]
    nrm = math.sqrt(sum(abs(x) ** 2 for x in v))
    return [[x.real / nrm, x.imag / nrm] for x in v]


def _checkers(rnd: random.Random, seed: int) -> Inputs:
    offset = rnd.randint(10, 20)
    blockrepeat = {
        "family": "paper-blockrepeat",
        "horizon": 10_000,
        "seed": seed,
        "analyses": [
            {"kind": "validate"},
            {"kind": "carleman"},
            {"kind": "variation", "sequence": "a_inv_b", "N": 1},
            {"kind": "growth_criterion"},
            {"kind": "commutator", "strategy": "an", "lambda": 1},
        ],
    }
    logweight = {
        "family": {"kind": "fixture", "name": "paper-logweight",
                   "params": {"offset": offset}},
        "horizon": 10_000,
        "seed": seed,
        "analyses": [
            {"kind": "log_weight_criterion", "depth": 1},
            {"kind": "commutator", "strategy": "log", "depth": 1, "lambda": 0},
        ],
    }
    return Inputs(
        {"blockrepeat.json": _dump(blockrepeat), "logweight.json": _dump(logweight)},
        [Job("library", "out/blockrepeat", config="blockrepeat.json",
             family="paper-blockrepeat", horizon=10_000),
         Job("library", "out/logweight", config="logweight.json",
             family="paper-logweight", horizon=10_000)],
    )


def _asymptotics(rnd: random.Random, seed: int) -> Inputs:
    family = {"kind": "scaled_periodic", "period": 1,
              "x": {"kind": "power", "exponent": 0.5},
              "y": {"kind": "constant", "value": 0.0},
              "X": [X_OP], "Y": [ZERO_OP]}
    cfg = {
        "family": family,
        "horizon": 100_000,
        "seed": seed,
        "analyses": [
            {"kind": "exact_asymptotics", "z": 0.0, "alphas": {"random": 20}},
            {"kind": "christoffel", "z": 0.0},
            {"kind": "trajectory", "z": 0.5, "alpha": _unit_alpha(rnd)},
        ],
    }
    return Inputs({"sqrt_growth.json": _dump(cfg)},
                  [Job("library", "out/sqrt_growth",
                       config="sqrt_growth.json", fmt="csv-bundle",
                       family="sqrt-growth", horizon=100_000)])


TABULATED_ENTRIES = 10_002
TABULATED_SCALE = 0.1
TABULATED_DECAY = 200.0


def tabulated_family(rnd: random.Random, count: int = TABULATED_ENTRIES) -> dict:
    """a_n = X + eps_n, b_n = Y + sym(delta_n) with complex perturbations whose
    entries are at most 0.1 e^(-n/200) in modulus, so every limit is the
    paper-constant one."""
    def pert(n):
        s = TABULATED_SCALE * math.exp(-n / TABULATED_DECAY) / math.sqrt(2.0)
        return [[complex(rnd.uniform(-s, s), rnd.uniform(-s, s)) for _ in range(2)]
                for _ in range(2)]

    def enc(m):
        return [[[z.real, z.imag] for z in row] for row in m]

    a, b = [], []
    for n in range(count):
        eps, delta = pert(n), pert(n)
        a.append(enc([[X_OP[i][j] + eps[i][j] for j in range(2)] for i in range(2)]))
        herm = [[(delta[i][j] + delta[j][i].conjugate()) / 2 for j in range(2)]
                for i in range(2)]
        b.append(enc([[Y_OP[i][j] + herm[i][j] for j in range(2)] for i in range(2)]))
    return {"kind": "tabulated", "a": a, "b": b}


def _tabulated(rnd: random.Random, seed: int) -> Inputs:
    horizon = TABULATED_ENTRIES - 2
    cfg = {
        "family": tabulated_family(rnd),
        "horizon": horizon,
        "seed": seed,
        "analyses": [
            {"kind": "validate", "upto": horizon},
            {"kind": "carleman"},
            {"kind": "lambda_scan", "range": [-5, 10], "grid": 1001},
            {"kind": "band", "z": 1.0, "alphas": {"random": 20}},
            {"kind": "trajectory", "z": rnd.choice(TRAJECTORY_Z),
             "alpha": _unit_alpha(rnd)},
        ],
    }
    return Inputs({"tabulated.json": _dump(cfg)},
                  [Job("library", "out/tabulated", config="tabulated.json",
                       family="tabulated", horizon=horizon)])


def _short_cli(rnd: random.Random, seed: int) -> Inputs:
    # The seed draws spectral parameters, initial data and analysis seeds; the
    # commands and their order are fixed.  Neither changes the amount of work
    # nor the memory it leaves behind, so runs with different seeds compare.
    files: dict[str, bytes] = {}
    combos = [(cmd, fam, h) for h in CLI_HORIZONS for fam in FIXTURE_NAMES
              for cmd in ("scan", "trajectory", "analyze")] * CLI_REPEATS
    jobs = []
    for i, (cmd, fam, h) in enumerate(combos):
        out = f"out/{i:03d}"
        common = ["--horizon", str(h), "--out-dir", out]
        if cmd == "scan":
            argv = ["scan", "--family", fam, "--range=-5,10"] + common
        elif cmd == "trajectory":
            alpha = ",".join(repr(complex(re, im)) for re, im in _unit_alpha(rnd))
            z = rnd.choice(TRAJECTORY_Z)
            argv = (["trajectory", "--family", fam, "--z", repr(z), "--alpha", alpha]
                    + common + ["--format", "csv-bundle"])
        else:
            name = f"analyze_{i:03d}.json"
            files[name] = _dump({
                "family": fam,
                "analyses": [
                    {"kind": "band", "z": rnd.choice(TRAJECTORY_Z),
                     "alphas": {"random": 8}},
                    {"kind": "carleman"},
                    {"kind": "variation", "sequence": "a_inv_b", "N": 1},
                ],
            })
            argv = ["analyze", name, "--seed", str(rnd.randrange(1 << 30))] + common
        jobs.append(Job("cli", out, argv=argv, family=fam, horizon=h))
    return Inputs(files, jobs)


_GENERATORS = {
    "checkers-1e4": _checkers,
    "asymptotics-1e5": _asymptotics,
    "tabulated-1e4": _tabulated,
    "short-cli": _short_cli,
}


def generate(name: str, seed: int) -> Inputs:
    """Input files and jobs of workload `name` for `seed`."""
    if name not in _GENERATORS:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return _GENERATORS[name](random.Random(f"{name}:{seed}"), seed)
