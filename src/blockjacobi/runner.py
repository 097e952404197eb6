"""Execute parsed analysis configurations and emit reports.

Reports are deterministic for a fixed configuration and seed: random initial
data is drawn from one seeded generator in analysis order, and JSON output is
key-sorted.  Wall-clock times are recorded under a separate key so byte
comparisons can drop them.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
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
from .opcore import NotConvergentError, HypothesisViolatedError
from .recurrence import propagate, trajectory_table
from .table import Table, write_csv
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


@dataclass
class _Context:
    """What a handler reads besides its own keys: the family, the horizon, the
    seeded generator shared by all analyses, the report's trace tables, the
    current analysis key and the limit data of each period."""

    fam: object
    horizon: int
    rng: np.random.Generator
    traces: dict
    key: str = ""
    lims: dict = field(default_factory=dict)

    def limits(self, N: int):
        if N not in self.lims:
            self.lims[N] = extract_periodic_limits(self.fam, N, self.horizon)
        return self.lims[N]

    def alphas(self, spec=None) -> list[np.ndarray]:
        """Initial data: the explicit vectors, or unit vectors drawn uniformly
        from the sphere of H (+) H, one by default and k for {"random": k}."""
        if isinstance(spec, list):
            return spec
        dim2 = 2 * self.fam.dim
        vs = [self.rng.normal(size=dim2) + 1j * self.rng.normal(size=dim2)
              for _ in range(1 if spec is None else spec["random"])]
        return [v / np.linalg.norm(v) for v in vs]


def run(config) -> AnalysisReport:
    """Run every analysis of a parsed `config.AnalysisConfig` in order.  A
    validation analysis with violations poisons nothing else; each analysis
    failure is recorded under its own key and the rest continue."""
    fam = config.family.build()
    report = AnalysisReport(
        tool={"name": "blockjacobi", "version": __version__},
        config={"family": config.raw.get("family"),
                "analyses": [dict(a) for a in config.raw["analyses"]],
                "horizon": config.horizon, "seed": config.seed},
    )
    ctx = _Context(fam, config.horizon, np.random.default_rng(config.seed), report.traces)
    for i, spec in enumerate(config.analyses):
        ctx.key = key = f"{i:02d}_{spec.kind}"
        t0 = time.perf_counter()
        try:
            report.results[key] = ANALYSES[spec.kind](ctx, **spec.params)
        except (NotConvergentError, HypothesisViolatedError, ValueError, IndexError) as exc:
            # IndexError: a tabulated family shorter than the horizon
            report.results[key] = {"error": type(exc).__name__, "message": str(exc)}
        report.wall_times[key] = time.perf_counter() - t0
    return report


# ---- one handler per analysis kind ----
# Its keyword parameters are the kind's config keys ("lambda" is `lambda_`); a
# default is stated here only, and a parameter without one is a required key.
# config.parse_analysis types every value; one annotated `float` must be real.


def _validate(ctx: _Context, *, upto=None) -> dict:
    if upto is None:
        upto = min(ctx.horizon, 1000)
    violations = validate_family(ctx.fam, range(upto))
    return {"checked_upto": upto,
            "violations": [{"index": v.index, "kind": v.kind, "detail": v.detail}
                           for v in violations],
            "ok": not violations}


def _carleman(ctx: _Context) -> dict:
    rep = carleman_diagnostic(ctx.fam, ctx.horizon)
    return {"partial_sum": rep.partial_sum, "verdict": rep.verdict,
            "evidence": rep.evidence.to_dict()}


def _variation(ctx: _Context, *, sequence, N, window=None) -> dict:
    start, end = window or (1, ctx.horizon)
    values = sequence_stack(ctx.fam, sequence, start, end + N - start)
    rep = total_variation(values, N, (start, end))
    return {"sequence": sequence, "N": rep.N, "window": list(rep.window),
            "partial_sum": rep.partial_sum, "tail_estimate": rep.tail_estimate,
            "converged": rep.converged}


def _lambda_scan(ctx: _Context, *, range, grid=201, eps=1e-9, N=1) -> dict:
    lim = ctx.limits(N)
    lset = lambda_scan(lim, range, grid=grid, eps=eps)
    ctx.traces[f"{ctx.key}_intervals"] = Table(["lo", "hi", "sign"], np.array(
        [[iv.lo, iv.hi, iv.sign.value] for iv in lset.intervals], dtype=object).reshape(-1, 3))
    return {"limits_converged": lim.converged, **lset.to_dict()}


def _band(ctx: _Context, *, z, N=1, alphas=None, burn_in=10) -> dict:
    alphas = ctx.alphas(alphas)
    rep = asymptotic_band(ctx.fam, N, z, alphas, ctx.horizon, burn_in=burn_in)
    return {"c1": rep.c1, "c2": rep.c2, "ratio": rep.ratio,
            "alphas": len(alphas), "burn_in": rep.burn_in,
            "overflow": any(s.overflow for s in rep.per_alpha)}


def _turan_convergence(ctx: _Context, *, z, N=1, alphas=None) -> dict:
    rep = turan_convergence(ctx.fam, N, z, ctx.alphas(alphas), ctx.horizon)
    return {"g": rep.g_values,
            "residuals": [s.residual for s in rep.per_alpha],
            "converged": [s.converged for s in rep.per_alpha],
            "rate_bound_ok": rep.rate_bound_ok,
            "rate_constant": rep.rate_constant}


def _commutator(ctx: _Context, *, strategy, lambda_, depth=1, n_start=20) -> dict:
    weights = {"identity": IdentityWeights, "an": ANWeights,
               "log": lambda: LogWeights(depth, n_start)}[strategy]()
    cond = weight_conditions(ctx.fam, weights, ctx.horizon)
    out = {
        "strategy": weights.name,
        "conditions": {name: getattr(cond, f"{name}_sum").to_dict()
                       for name in ("neg_part", "drift", "commutator", "inverse_weight")},
        "all_hold": cond.all_hold,
    }
    try:
        cl = c_limit(ctx.fam, weights, lambda_, ctx.horizon)
        out["limit_form"] = {
            "matrix": cl.C_lambda,
            "residual": cl.residual,
            "converged": cl.converged,
            "definiteness": cl.definiteness.value,
        }
    except NotConvergentError as exc:
        out["limit_form"] = {"error": "NotConvergentError", "message": str(exc)}
    return out


def _growth_criterion(ctx: _Context) -> dict:
    return _criterion_dict(check_growth_criterion(ctx.fam, ctx.horizon))


def _log_weight_criterion(ctx: _Context, *, depth, n_start=20) -> dict:
    return _criterion_dict(check_log_weight_criterion(ctx.fam, depth, n_start, ctx.horizon))


def _indeterminacy(ctx: _Context, *, z_samples, N=1, range=(-10.0, 10.0), grid=101) -> dict:
    return indeterminacy_probe(ctx.fam, z_samples, ctx.horizon, N=N, scan_range=range,
                               scan_grid=grid).to_dict()


def _exact_asymptotics(ctx: _Context, *, z: float, N=1, alphas=None) -> dict:
    rep = exact_asymptotics(ctx.fam, ctx.limits(N), z, ctx.alphas(alphas), ctx.horizon)
    return {"C": rep.C,
            "per_alpha": [{"g": d["g"],
                           "weighted_trace_limit": d["weighted_trace_limit"],
                           "gap": d["gap"]} for d in rep.per_alpha]}


def _christoffel(ctx: _Context, *, z: float, alpha=None) -> dict:
    if alpha is None:
        alpha = ctx.alphas()[0]
    rep_ea = exact_asymptotics(ctx.fam, ctx.limits(1), z, [alpha], ctx.horizon)
    rep = christoffel_limit(ctx.fam, rep_ea.C, rep_ea.trajectories[0])
    return {"limit_estimate": rep.limit_estimate, "residual": rep.residual,
            "g": rep_ea.per_alpha[0]["g"],
            "half_g_gap": abs(rep.limit_estimate - rep_ea.per_alpha[0]["g"] / 2.0)}


def _trajectory(ctx: _Context, *, z, alpha) -> dict:
    traj = propagate(ctx.fam, z, alpha, ctx.horizon)
    ctx.traces[f"{ctx.key}_trajectory"] = trajectory_table(traj, ctx.fam)
    return {"points": traj.u.shape[0], "overflow": traj.overflow,
            "truncated_at": traj.truncated_at,
            "max_residual": float(traj.residuals.max(initial=0.0))}


ANALYSES = {
    "validate": _validate,
    "carleman": _carleman,
    "variation": _variation,
    "lambda_scan": _lambda_scan,
    "band": _band,
    "turan_convergence": _turan_convergence,
    "commutator": _commutator,
    "growth_criterion": _growth_criterion,
    "log_weight_criterion": _log_weight_criterion,
    "indeterminacy": _indeterminacy,
    "exact_asymptotics": _exact_asymptotics,
    "christoffel": _christoffel,
    "trajectory": _trajectory,
}


def _criterion_dict(rep) -> dict:
    return {
        "name": rep.name,
        "passed": rep.passed,
        "items": {it.name: {"ok": it.ok, **it.evidence} for it in rep.items},
    }


def _jsonable(obj):
    """Plain JSON data, the one encoder of reports: numpy scalars and arrays
    become Python numbers and lists, a complex number its real part when the
    imaginary part is zero and an [re, im] pair otherwise, and non-finite
    floats the strings "inf", "-inf" and "nan"."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, complex):
        if obj.imag == 0.0:
            return _jsonable(obj.real)
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _is_number(v) -> bool:
    """True for a leaf whose JSON text is its `repr`: an int (not a bool) or
    a finite float."""
    return type(v) is int or type(v) is float and math.isfinite(v)


def _number_block(obj: list | tuple, indent: str) -> str | None:
    """The indented text of a rectangular nested block of numbers (see
    `_is_number`), formatted through one "%r" template built from its shape;
    None when numpy finds it ragged or holding any other leaf."""
    try:
        arr = np.array(obj, dtype=object)
    except ValueError:  # ragged
        return None
    flat = arr.ravel().tolist()
    if not all(map(_is_number, flat)):
        return None
    fmt = "%r"
    for d in reversed(range(arr.ndim)):
        inner = indent + "  " * (d + 1)
        fmt = "[" + inner + ("," + inner).join([fmt] * arr.shape[d]) + inner[:-2] + "]"
    return fmt % tuple(flat)


def _text(obj, indent: str, bulk: bool = True) -> str:
    """The JSON text of `obj`, `indent` being the line break and indentation
    of its own level.  Dicts (with str keys), lists, tuples and arrays are
    walked here and every other value is written as `_jsonable` makes it.
    numpy looks at a nested list at most once, at its outermost level: a
    number block there is formatted in bulk, otherwise (`bulk` False) its
    sublists are written one by one."""
    if _is_number(obj):
        return repr(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    inner = indent + "  "
    if isinstance(obj, dict):
        brackets = "{}"
        items = [encode_basestring_ascii(k) + ": " + _text(v, inner)
                 for k, v in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        if bulk:
            first = obj
            while isinstance(first, (list, tuple)) and first:
                first = first[0]
            if _is_number(first):  # the cheap refusal, before numpy looks
                block = _number_block(obj, indent)
                if block is not None:
                    return block
                bulk = False
        brackets = "[]"
        items = [_text(v, inner, bulk) for v in obj]
    else:
        leaf = _jsonable(obj)
        return _text(leaf, indent) if isinstance(leaf, list) else json.dumps(leaf)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def report_json(report: AnalysisReport, include_times: bool = True) -> str:
    """The report as key-sorted, indented JSON text: the bytes of
    json.dumps(_jsonable(d), sort_keys=True, indent=2, allow_nan=False),
    written in one walk."""
    return _text(report.to_json_dict(include_times), "\n")


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
            write_csv(table, p)
            written.append(p)
    elif fmt != "json":
        raise ValueError(f"unknown format {fmt!r}; known: json, csv-bundle")
    return written
