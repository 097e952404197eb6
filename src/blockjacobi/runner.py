"""Execute parsed analysis configurations and emit reports.

Reports are deterministic for a fixed configuration and seed: random initial
data is drawn from one seeded generator in analysis order, and JSON output is
key-sorted.  Wall-clock times are recorded under a separate key so byte
comparisons can drop them.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .coeffs import carleman_diagnostic, sequence_stack, total_variation, validate_family
from .commutator import (
    ANWeights,
    IdentityWeights,
    LogWeights,
    c_limit,
    check_growth_criterion,
    check_log_weight_criterion,
    weight_conditions,
)
from .config import AnalysisConfig, AnalysisSpec, encode_matrix
from .opcore import NotConvergentError, HypothesisViolatedError
from .recurrence import propagate, trajectory_table
from .turan import (
    asymptotic_band,
    christoffel_limit,
    exact_asymptotics,
    extract_periodic_limits,
    indeterminacy_probe,
    lambda_scan,
    turan_convergence,
)


@dataclass
class Table:
    columns: list[str]
    rows: list[list]


@dataclass
class AnalysisReport:
    tool: dict
    config: dict
    results: dict = field(default_factory=dict)
    traces: dict = field(default_factory=dict)
    wall_times: dict = field(default_factory=dict)

    def to_json_dict(self, include_times: bool = True) -> dict:
        out = {"tool": self.tool, "config": self.config, "results": self.results}
        if include_times:
            out["wall_times"] = self.wall_times
        return out


def _unit_alphas(rng: np.random.Generator, count: int, dim2: int) -> list[np.ndarray]:
    """Draw unit vectors uniformly from the sphere of H (+) H."""
    out = []
    for _ in range(count):
        v = rng.normal(size=dim2) + 1j * rng.normal(size=dim2)
        out.append(v / np.linalg.norm(v))
    return out


def _resolve_alphas(spec, rng: np.random.Generator, dim: int):
    if spec is None:
        return _unit_alphas(rng, 1, 2 * dim)
    if isinstance(spec, dict):
        return _unit_alphas(rng, spec["random"], 2 * dim)
    return [np.asarray(a, dtype=np.complex128) for a in spec]


def run(config: AnalysisConfig) -> AnalysisReport:
    """Run every analysis in order.  A validation analysis with violations
    poisons nothing else; each analysis failure is recorded under its own key
    and the rest continue."""
    fam = config.family.build()
    rng = np.random.default_rng(config.seed)
    report = AnalysisReport(
        tool={"name": "blockjacobi", "version": __version__},
        config={"family": config.raw.get("family"),
                "analyses": [dict(config.raw["analyses"][i])
                             for i in range(len(config.analyses))],
                "horizon": config.horizon, "seed": config.seed},
    )
    lim_cache: dict[int, object] = {}

    def limits(N: int):
        if N not in lim_cache:
            lim_cache[N] = extract_periodic_limits(fam, N, config.horizon)
        return lim_cache[N]

    for i, spec in enumerate(config.analyses):
        key = f"{i:02d}_{spec.kind}"
        t0 = time.perf_counter()
        try:
            report.results[key] = _run_one(fam, spec, config, rng, limits, report, key)
        except (NotConvergentError, HypothesisViolatedError, ValueError) as exc:
            report.results[key] = {"error": type(exc).__name__, "message": str(exc)}
        report.wall_times[key] = time.perf_counter() - t0
    return report


def _run_one(fam, spec: AnalysisSpec, config: AnalysisConfig, rng, limits,
             report: AnalysisReport, key: str) -> dict:
    p = spec.params
    horizon = config.horizon
    if spec.kind == "validate":
        upto = p.get("upto", min(horizon, 1000))
        violations = validate_family(fam, range(upto))
        return {"checked_upto": upto,
                "violations": [{"index": v.index, "kind": v.kind, "detail": v.detail}
                               for v in violations],
                "ok": not violations}
    if spec.kind == "carleman":
        rep = carleman_diagnostic(fam, horizon)
        return {"partial_sum": rep.partial_sum, "verdict": rep.verdict,
                "evidence": rep.evidence.to_dict()}
    if spec.kind == "variation":
        N = p["N"]
        start, end = p.get("window", [1, horizon])
        values = sequence_stack(fam, p["sequence"], start, end + N - start)
        rep = total_variation(values, N, (start, end))
        return {"sequence": p["sequence"], "N": rep.N, "window": list(rep.window),
                "partial_sum": rep.partial_sum, "tail_estimate": rep.tail_estimate,
                "converged": rep.converged}
    if spec.kind == "lambda_scan":
        N = p.get("N", 1)
        lim = limits(N)
        lset = lambda_scan(lim, p["range"], grid=p.get("grid", 201),
                           eps=p.get("eps", 1e-9))
        report.traces[f"{key}_intervals"] = Table(
            ["lo", "hi", "sign"],
            [[iv.lo, iv.hi, iv.sign.value] for iv in lset.intervals])
        return {"limits_converged": lim.converged, **lset.to_dict()}
    if spec.kind == "band":
        N = p.get("N", 1)
        alphas = _resolve_alphas(p.get("alphas"), rng, fam.dim)
        rep = asymptotic_band(fam, N, p["z"], alphas, horizon,
                              burn_in=p.get("burn_in", 10))
        return {"c1": rep.c1, "c2": rep.c2, "ratio": rep.ratio,
                "alphas": len(alphas), "burn_in": rep.burn_in,
                "overflow": any(s.overflow for s in rep.per_alpha)}
    if spec.kind == "turan_convergence":
        N = p.get("N", 1)
        alphas = _resolve_alphas(p.get("alphas"), rng, fam.dim)
        rep = turan_convergence(fam, N, p["z"], alphas, horizon)
        return {"g": rep.g_values,
                "residuals": [s.residual for s in rep.per_alpha],
                "converged": [s.converged for s in rep.per_alpha],
                "rate_bound_ok": rep.rate_bound_ok,
                "rate_constant": rep.rate_constant}
    if spec.kind == "commutator":
        strategy = _strategy(p)
        cond = weight_conditions(fam, strategy, horizon)
        out = {
            "strategy": strategy.name,
            "conditions": {
                "neg_part": cond.neg_part_sum.to_dict(),
                "drift": cond.drift_sum.to_dict(),
                "commutator": cond.commutator_sum.to_dict(),
                "inverse_weight": cond.inverse_weight_sum.to_dict(),
            },
            "all_hold": cond.all_hold,
        }
        try:
            cl = c_limit(fam, strategy, p["lam"], horizon)
            out["limit_form"] = {
                "matrix": encode_matrix(cl.C_lambda),
                "residual": cl.residual,
                "converged": cl.converged,
                "definiteness": cl.definiteness.value,
            }
        except NotConvergentError as exc:
            out["limit_form"] = {"error": "NotConvergentError", "message": str(exc)}
        return out
    if spec.kind == "growth_criterion":
        rep = check_growth_criterion(fam, horizon)
        return _criterion_dict(rep)
    if spec.kind == "log_weight_criterion":
        rep = check_log_weight_criterion(fam, p["depth"], p.get("n_start", 20), horizon)
        return _criterion_dict(rep)
    if spec.kind == "indeterminacy":
        rep = indeterminacy_probe(fam, p["z_samples"], horizon, N=p.get("N", 1),
                                  scan_range=p.get("range", (-10.0, 10.0)),
                                  scan_grid=p.get("grid", 101))
        return rep.to_dict()
    if spec.kind == "exact_asymptotics":
        N = p.get("N", 1)
        lim = limits(N)
        alphas = _resolve_alphas(p.get("alphas"), rng, fam.dim)
        rep = exact_asymptotics(fam, lim, p["z"].real, alphas, horizon)
        return {"C": encode_matrix(rep.C),
                "per_alpha": [{"g": d["g"],
                               "weighted_trace_limit": d["weighted_trace_limit"],
                               "gap": d["gap"]} for d in rep.per_alpha]}
    if spec.kind == "christoffel":
        lim = limits(1)
        alpha = p.get("alpha")
        if alpha is None:
            alpha = _unit_alphas(rng, 1, 2 * fam.dim)[0]
        rep_ea = exact_asymptotics(fam, lim, p["z"].real, [alpha], horizon)
        rep = christoffel_limit(fam, rep_ea.C, rep_ea.trajectories[0])
        return {"limit_estimate": rep.limit_estimate, "residual": rep.residual,
                "g": rep_ea.per_alpha[0]["g"],
                "half_g_gap": abs(rep.limit_estimate - rep_ea.per_alpha[0]["g"] / 2.0)}
    if spec.kind == "trajectory":
        traj = propagate(fam, p["z"], p["alpha"], horizon)
        report.traces[f"{key}_trajectory"] = Table(*trajectory_table(traj, fam))
        return {"points": traj.u.shape[0], "overflow": traj.overflow,
                "truncated_at": traj.truncated_at,
                "max_residual": float(traj.residuals.max(initial=0.0))}
    raise ValueError(f"unhandled analysis kind {spec.kind!r}")


def _strategy(p: dict):
    name = p["strategy"]
    if name == "identity":
        return IdentityWeights()
    if name == "an":
        return ANWeights()
    if name == "log":
        return LogWeights(p.get("depth", 1), p.get("n_start", 20))
    raise ValueError(f"unknown strategy {name!r}; known: identity, an, log")


def _criterion_dict(rep) -> dict:
    return {
        "name": rep.name,
        "passed": rep.passed,
        "items": {it.name: {"ok": it.ok, **_jsonable(it.evidence)} for it in rep.items},
    }


def _jsonable(obj):
    """Plain JSON data: numpy scalars and arrays become Python numbers and
    lists, complex numbers [re, im] pairs, and non-finite floats the strings
    "inf", "-inf" and "nan"."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, complex):
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    if isinstance(obj, float) and (obj != obj or obj in (float("inf"), float("-inf"))):
        return repr(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def report_json(report: AnalysisReport, include_times: bool = True) -> str:
    """The report as key-sorted, indented JSON text."""
    return json.dumps(_jsonable(report.to_json_dict(include_times)), sort_keys=True,
                      indent=2, allow_nan=False)


def emit(report: AnalysisReport, out_dir: str | Path, fmt: str = "json") -> list[Path]:
    """Write the report; "json" produces report.json, "csv-bundle" adds one
    CSV per trace."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    path = out / "report.json"
    path.write_text(report_json(report) + "\n")
    written.append(path)
    if fmt == "csv-bundle":
        for name, table in report.traces.items():
            p = out / f"{name}.csv"
            with open(p, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(table.columns)
                w.writerows(table.rows)
            written.append(p)
    elif fmt != "json":
        raise ValueError(f"unknown format {fmt!r}; known: json, csv-bundle")
    return written
