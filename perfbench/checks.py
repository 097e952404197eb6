"""Seed-independent correctness checks on emitted reports.

Each check comes from a closed form of the source paper or from an
acceptance criterion of the repository, so it holds for every seed the
generators can draw.  `check_report` returns, for every analysis entry of a
report, the list of failed checks (empty when the entry is correct).
"""

from __future__ import annotations

import csv
import io
import json
import math

# Endpoints of the strict-definiteness interval of the paper-constant limit
# form: the roots of lambda^2 + 3 lambda - 1 and lambda^2 - 9 lambda + 11.
CONSTANT_INTERVAL = ((-3.0 + math.sqrt(13.0)) / 2.0, (9.0 - math.sqrt(37.0)) / 2.0)
ENDPOINT_TOL = 1e-6
MAX_RESIDUAL = 1e-10
TRACE_GAP = 0.01          # exact asymptotics, relative to g
CHRISTOFFEL_GAP = 0.02    # Cesaro ratio against g/2, relative
HERMITIAN_TOL = 1e-12


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def load_report(text: str) -> dict:
    """Parse a report, refusing NaN and Infinity as json.dumps(allow_nan=False)
    would."""
    return json.loads(text, parse_constant=_reject_constant)


def _complex(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def _hermitian_defect(matrix: list) -> float:
    m = [[_complex(x) for x in row] for row in matrix]
    return max(abs(m[i][j] - m[j][i].conjugate())
               for i in range(len(m)) for j in range(len(m)))


def _interval(entry: dict) -> list[str]:
    ivs = entry.get("intervals", [])
    if len(ivs) != 1:
        return [f"expected one definiteness interval, got {len(ivs)}"]
    iv = ivs[0]
    errs = [abs(iv["lo"] - CONSTANT_INTERVAL[0]), abs(iv["hi"] - CONSTANT_INTERVAL[1])]
    out = []
    if max(errs) > ENDPOINT_TOL:
        out.append(f"interval endpoints off by {max(errs):.2e}")
    if iv.get("sign") != "strictly_positive":
        out.append(f"interval sign {iv.get('sign')!r}")
    return out


def _trajectory(entry: dict, table: str | None) -> list[str]:
    out = []
    if entry["overflow"]:
        out.append("trajectory overflowed")
    if not entry["max_residual"] <= MAX_RESIDUAL:
        out.append(f"max_residual {entry['max_residual']:.2e} above {MAX_RESIDUAL:g}")
    if table is None:
        return out
    rows = sum(1 for _ in csv.reader(io.StringIO(table))) - 1
    if rows != entry["points"]:
        out.append(f"trajectory CSV has {rows} rows for {entry['points']} points")
    return out


def _commutator(entry: dict) -> list[str]:
    out = []
    if not entry["all_hold"]:
        out.append("summability conditions do not all hold")
    form = entry["limit_form"].get("definiteness")
    if form != "strictly_positive":
        out.append(f"limit form is {form!r}, not strictly_positive")
    return out


def _band(entry: dict) -> list[str]:
    if entry["overflow"]:
        return ["band trajectories overflowed"]
    if not 0.0 < entry["c1"] <= entry["c2"] < math.inf:
        return [f"band constants c1={entry['c1']} c2={entry['c2']} not two-sided"]
    return []


def _exact_asymptotics(entry: dict) -> list[str]:
    out = []
    gap = max(d["gap"] / abs(d["g"]) for d in entry["per_alpha"])
    if not gap < TRACE_GAP:
        out.append(f"weighted-trace gap {gap:.2e} not below {TRACE_GAP}")
    herm = _hermitian_defect(entry["C"])
    if not herm <= HERMITIAN_TOL:
        out.append(f"C Hermitian only to {herm:.1e}")
    return out


def _christoffel(entry: dict) -> list[str]:
    gap = entry["half_g_gap"] / abs(entry["g"] / 2.0)
    return [] if gap < CHRISTOFFEL_GAP else [f"Christoffel gap {gap:.2e}"]


def _criterion(entry: dict) -> list[str]:
    if entry["passed"]:
        return []
    return [f"criterion {entry['name']} failed: "
            + ", ".join(k for k, v in entry["items"].items() if not v["ok"])]


def _entry_checks(kind: str, entry: dict, family: str, table: str | None) -> list[str]:
    if "error" in entry:
        return [f"unexpected error entry {entry['error']}: {entry.get('message', '')}"]
    if kind == "validate":
        return [] if entry["ok"] else [f"{len(entry['violations'])} validation violations"]
    if kind == "lambda_scan":
        if family in ("paper-constant", "tabulated"):
            return _interval(entry)
        return []
    if kind == "trajectory":
        return _trajectory(entry, table)
    if kind == "commutator":
        return _commutator(entry)
    if kind == "band":
        return _band(entry)
    if kind == "exact_asymptotics":
        return _exact_asymptotics(entry)
    if kind == "christoffel":
        return _christoffel(entry)
    if kind in ("growth_criterion", "log_weight_criterion"):
        return _criterion(entry)
    return []


def check_report(report: dict, family: str, tables: dict[str, str]) -> dict[str, list[str]]:
    """Failed checks per analysis entry of a report.  `tables` maps CSV trace
    names (file stem) to their text; trajectory tables are row-counted."""
    out = {}
    for key, entry in report["results"].items():
        kind = key.split("_", 1)[1]
        out[key] = _entry_checks(kind, entry, family, tables.get(f"{key}_trajectory"))
    return out
