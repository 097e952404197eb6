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
from .opcore import DEFINITENESS_EPS, NotConvergentError, HypothesisViolatedError
from .recurrence import fundamental_matrix, propagate, trajectory_table
from .table import KERNEL_MIN, MARKS, Table, number_text, write_csv
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
    current analysis key, the limit data of each period and the fundamental
    matrix of each z."""

    fam: object
    horizon: int
    rng: np.random.Generator
    traces: dict
    key: str = ""
    lims: dict = field(default_factory=dict)
    phis: dict = field(default_factory=dict)

    def limits(self, N: int):
        if N not in self.lims:
            self.lims[N] = extract_periodic_limits(self.fam, N, self.horizon)
        return self.lims[N]

    def fundamental(self, z):
        """The fundamental matrix at z to the horizon, propagated once per z
        and read by every analysis at that z."""
        key = complex(z)
        if key not in self.phis:
            self.phis[key] = fundamental_matrix(self.fam, z, self.horizon)
        return self.phis[key]

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
    fam = config.family.family
    report = AnalysisReport(
        tool={"name": "blockjacobi", "version": __version__},
        config={"family": config.family.echo, "analyses": [a.echo for a in config.analyses],
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
    ev = carleman_diagnostic(ctx.fam, ctx.horizon)
    return {"partial_sum": ev.partial_sum, "verdict": ev.verdict, "evidence": ev.to_dict()}


def _variation(ctx: _Context, *, sequence, N, window=None) -> dict:
    start, end = window or (1, ctx.horizon)
    values = sequence_stack(ctx.fam, sequence, start, end + N - start)
    rep = total_variation(values, N, (start, end))
    return {"sequence": sequence, "N": rep.N, "window": list(rep.window),
            "partial_sum": rep.partial_sum, "tail_estimate": rep.tail_estimate,
            "converged": rep.converged}


def _lambda_scan(ctx: _Context, *, range, grid=201, eps=DEFINITENESS_EPS, N=1) -> dict:
    lim = ctx.limits(N)
    lset = lambda_scan(lim, range, grid=grid, eps=eps)
    ctx.traces[f"{ctx.key}_intervals"] = Table(["lo", "hi", "sign"], np.array(
        [[iv.lo, iv.hi, iv.sign.value] for iv in lset.intervals], dtype=object).reshape(-1, 3))
    return {"limits_converged": lim.converged, **lset.to_dict()}


def _band(ctx: _Context, *, z, N=1, alphas=None, burn_in=10) -> dict:
    alphas = ctx.alphas(alphas)
    rep = asymptotic_band(ctx.fam, N, z, alphas, ctx.horizon, burn_in=burn_in,
                          phi=ctx.fundamental(z))
    return {"c1": rep.c1, "c2": rep.c2, "ratio": rep.ratio,
            "alphas": len(alphas), "burn_in": rep.burn_in,
            "overflow": any(s.overflow for s in rep.per_alpha)}


def _turan_convergence(ctx: _Context, *, z, N=1, alphas=None) -> dict:
    rep = turan_convergence(ctx.fam, N, z, ctx.alphas(alphas), ctx.horizon,
                            phi=ctx.fundamental(z))
    return {"g": rep.g_values,
            "residuals": [s.residual for s in rep.per_alpha],
            "converged": [s.converged for s in rep.per_alpha],
            "rate_bound_ok": rep.rate_bound_ok,
            "rate_constant": rep.rate_constant}


# The weights of each commutator `strategy` name, built from depth and n_start.
STRATEGIES = {"identity": lambda depth, n_start: IdentityWeights(),
              "an": lambda depth, n_start: ANWeights(), "log": LogWeights}


def _commutator(ctx: _Context, *, strategy, lambda_, depth=1, n_start=20) -> dict:
    weights = STRATEGIES[strategy](depth, n_start)
    cond = weight_conditions(ctx.fam, weights, ctx.horizon)
    out = {
        "strategy": weights.name,
        "conditions": {it.name: it.evidence for it in cond.items},
        "all_hold": cond.passed,
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
    rep = exact_asymptotics(ctx.fam, ctx.limits(N), z, ctx.alphas(alphas), ctx.horizon,
                            phi=ctx.fundamental(z))
    return {"C": rep.C,
            "per_alpha": [{"g": d["g"],
                           "weighted_trace_limit": d["weighted_trace_limit"],
                           "gap": d["gap"]} for d in rep.per_alpha]}


def _christoffel(ctx: _Context, *, z: float, alpha=None) -> dict:
    if alpha is None:
        alpha = ctx.alphas()[0]
    phi = ctx.fundamental(z)
    rep_ea = exact_asymptotics(ctx.fam, ctx.limits(1), z, [alpha], ctx.horizon, phi=phi)
    rep = christoffel_limit(ctx.fam, rep_ea.C, phi.trajectory(alpha))
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


def _array_text(x: np.ndarray, indent: str) -> str:
    """The indented text of a float64 array of finite numbers, written by
    `table.number_text`.  The separator after a number is set by how many
    levels close after it, 0 to x.ndim, so the array needs x.ndim + 1 of
    table.MARKS."""
    r = x.ndim
    line = [indent + "  " * d for d in range(r + 1)]  # the start of a line at depth d
    opens = ["".join("[" + line[d] for d in range(r - k + 1, r + 1)) for k in range(r + 1)]
    closes = ["".join(line[d] + "]" for d in range(r - 1, r - k - 1, -1)) for k in range(r + 1)]
    separators = [(closes[k] + "," + line[r - k] + opens[k]).encode() for k in range(r)]
    k = np.zeros(x.size, dtype=np.intp)  # the levels that close after each number
    size = 1
    for n in reversed(x.shape):
        size *= n
        k.reshape(-1, size)[:, -1] += 1
    return opens[r] + number_text(x.reshape(-1), k, separators + [closes[r].encode()])


def _write(obj, indent: str, out: list[str]) -> None:
    """Append the JSON text of `obj` to out, `indent` being the line break
    and indentation of its own level.  Dicts (with str keys), lists, tuples
    and arrays are walked here entry by entry, an entry that is an int (not
    a bool) or a finite float written as its `repr` in the walk's loop, and
    every other value as `_jsonable` makes it.  A finite float64 array of
    table.KERNEL_MIN numbers or more, of fewer than len(table.MARKS)
    dimensions, is written by `_array_text`, any other array as its list."""
    if isinstance(obj, np.ndarray):
        if (obj.dtype == np.float64 and obj.size >= KERNEL_MIN and obj.ndim < len(MARKS)
                and np.isfinite(obj).all()):
            out.append(_array_text(obj, indent))
            return
        obj = obj.tolist()
    if isinstance(obj, dict):
        brackets = "{}"
        items = [(encode_basestring_ascii(k) + ": ", v) for k, v in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        items = [("", v) for v in obj]
    else:
        leaf = _jsonable(obj)
        if isinstance(leaf, list):
            _write(leaf, indent, out)
        else:
            out.append(json.dumps(leaf))
        return
    if not items:
        out.append(brackets)
        return
    inner = indent + "  "
    sep, comma = brackets[0] + inner, "," + inner
    for key, v in items:
        if type(v) is float and math.isfinite(v) or type(v) is int:
            out.append(sep + key + repr(v))
        else:
            out.append(sep + key)
            _write(v, inner, out)
        sep = comma
    out.append(indent + brackets[1])


def report_json(report: AnalysisReport, include_times: bool = True) -> str:
    """The report as key-sorted, indented JSON text: the bytes of
    json.dumps(_jsonable(d), sort_keys=True, indent=2, allow_nan=False),
    written in one walk and joined once.  Only float64 arrays reach the
    number kernel: a parsed table's echo (see config.FamilySpec) is written
    from its float64 array, and every list entry by entry."""
    out: list[str] = []
    _write(report.to_json_dict(include_times), "\n", out)
    return "".join(out)


def emit(report: AnalysisReport, out_dir: str | Path, fmt: str = "json") -> list[Path]:
    """Write the report; "json" produces report.json, "csv-bundle" adds one
    CSV per trace."""
    if fmt not in ("json", "csv-bundle"):
        raise ValueError(f"unknown format {fmt!r}; known: json, csv-bundle")
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
    return written
