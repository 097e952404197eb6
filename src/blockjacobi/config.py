"""Strict JSON analysis-configuration parsing.

Unknown keys are rejected with the offending path; complex scalars are
encoded as [re, im] pairs and matrices as row-major nested arrays whose
entries are reals or [re, im] pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .coeffs import (
    WEIGHT_KINDS,
    CoefficientFamily,
    ScalarWeight,
    constant_family,
    scaled_periodic_family,
    tabulated_family,
)
from .fixtures import FIXTURES, get_fixture


class ParseError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require_keys(obj: dict, path: str, required: set[str], optional: set[str]) -> None:
    if not isinstance(obj, dict):
        raise ParseError(path, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - required - optional
    if unknown:
        raise ParseError(path, f"unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ParseError(path, f"missing required keys {sorted(missing)}")


def parse_complex(v: Any, path: str) -> complex:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
        return complex(v[0], v[1])
    raise ParseError(path, "expected a real number or an [re, im] pair")


def parse_matrix(v: Any, path: str) -> np.ndarray:
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise ParseError(path, "expected a nested array (row-major matrix)")
    rows = []
    for i, r in enumerate(v):
        rows.append([parse_complex(x, f"{path}[{i}][{j}]") for j, x in enumerate(r)])
    lens = {len(r) for r in rows}
    if len(lens) != 1:
        raise ParseError(path, "rows have differing lengths")
    return np.array(rows, dtype=np.complex128)


def encode_complex(z: complex) -> Any:
    if float(np.imag(z)) == 0.0:
        return float(np.real(z))
    return [float(np.real(z)), float(np.imag(z))]


def encode_matrix(m: np.ndarray) -> list:
    return [[encode_complex(x) for x in row] for row in np.asarray(m)]


def parse_weight(obj: Any, path: str) -> ScalarWeight:
    _require_keys(obj, path, {"kind"}, {"exponent", "offset", "value", "values", "depth"})
    kind = obj["kind"]
    if kind not in WEIGHT_KINDS:
        raise ParseError(f"{path}.kind", f"unknown weight kind {kind!r}; "
                                         f"known: {sorted(WEIGHT_KINDS)}")
    cls = WEIGHT_KINDS[kind]
    params = {k: v for k, v in obj.items() if k != "kind"}
    if kind == "tabulated" and "values" in params:
        params["values"] = tuple(float(x) for x in params["values"])
    try:
        return cls(**params)
    except (TypeError, ValueError) as exc:
        raise ParseError(path, str(exc)) from exc


@dataclass
class FamilySpec:
    fixture: str | None = None
    fixture_params: dict = field(default_factory=dict)
    family: CoefficientFamily | None = None
    raw: dict = field(default_factory=dict)

    def build(self) -> CoefficientFamily:
        if self.family is not None:
            return self.family
        return get_fixture(self.fixture, **self.fixture_params)


def parse_family(obj: Any, path: str) -> FamilySpec:
    if isinstance(obj, str):
        if obj not in FIXTURES:
            raise ParseError(path, f"unknown fixture {obj!r}; known: {sorted(FIXTURES)}")
        return FamilySpec(fixture=obj, raw={"fixture": obj})
    _require_keys(obj, path, {"kind"},
                  {"a", "b", "period", "x", "y", "X", "Y", "params", "name"})
    kind = obj["kind"]
    if kind == "fixture":
        name = obj.get("name")
        if name not in FIXTURES:
            raise ParseError(f"{path}.name", f"unknown fixture {name!r}")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ParseError(f"{path}.params", "expected an object")
        return FamilySpec(fixture=name, fixture_params=params, raw=obj)
    if kind == "constant":
        _require_keys(obj, path, {"kind", "a", "b"}, set())
        fam = constant_family(parse_matrix(obj["a"], f"{path}.a"),
                              parse_matrix(obj["b"], f"{path}.b"))
        return FamilySpec(family=fam, raw=obj)
    if kind == "scaled_periodic":
        _require_keys(obj, path, {"kind", "period", "x", "y", "X", "Y"}, set())
        period = obj["period"]
        if not isinstance(period, int) or period < 1:
            raise ParseError(f"{path}.period", "expected a positive integer")
        X = [parse_matrix(m, f"{path}.X[{i}]") for i, m in enumerate(obj["X"])]
        Y = [parse_matrix(m, f"{path}.Y[{i}]") for i, m in enumerate(obj["Y"])]
        fam = scaled_periodic_family(period, parse_weight(obj["x"], f"{path}.x"),
                                     parse_weight(obj["y"], f"{path}.y"), X, Y)
        return FamilySpec(family=fam, raw=obj)
    if kind == "tabulated":
        _require_keys(obj, path, {"kind", "a", "b"}, set())
        a = [parse_matrix(m, f"{path}.a[{i}]") for i, m in enumerate(obj["a"])]
        b = [parse_matrix(m, f"{path}.b[{i}]") for i, m in enumerate(obj["b"])]
        fam = tabulated_family(a, b)
        return FamilySpec(family=fam, raw=obj)
    raise ParseError(f"{path}.kind", f"unknown family kind {kind!r}")


# analysis kind -> (required params, optional params)
ANALYSIS_SCHEMAS: dict[str, tuple[set[str], set[str]]] = {
    "validate": (set(), {"upto"}),
    "carleman": (set(), set()),
    "variation": ({"sequence", "N"}, {"window"}),
    "lambda_scan": ({"range"}, {"grid", "eps", "N"}),
    "band": ({"z"}, {"N", "alphas", "burn_in"}),
    "turan_convergence": ({"z"}, {"N", "alphas"}),
    "commutator": ({"strategy", "lambda"}, {"depth", "n_start"}),
    "growth_criterion": (set(), set()),
    "log_weight_criterion": ({"depth"}, {"n_start"}),
    "indeterminacy": ({"z_samples"}, {"N", "range", "grid"}),
    "exact_asymptotics": ({"z"}, {"N", "alphas"}),
    "christoffel": ({"z"}, {"alpha"}),
    "trajectory": ({"z", "alpha"}, set()),
}

VARIATION_SEQUENCES = {"a", "b", "a_inv", "a_inv_b", "a_inv_a_prev"}

# analyses whose limit theory holds for a real spectral parameter only
REAL_Z_KINDS = {"exact_asymptotics", "christoffel"}


@dataclass
class AnalysisSpec:
    kind: str
    params: dict


def parse_analysis(obj: Any, path: str) -> AnalysisSpec:
    if not isinstance(obj, dict):
        raise ParseError(path, f"expected an object, got {type(obj).__name__}")
    if "kind" not in obj:
        raise ParseError(path, "missing required keys ['kind']")
    kind = obj["kind"]
    if kind not in ANALYSIS_SCHEMAS:
        raise ParseError(f"{path}.kind",
                         f"unknown analysis {kind!r}; known: {sorted(ANALYSIS_SCHEMAS)}")
    required, optional = ANALYSIS_SCHEMAS[kind]
    _require_keys(obj, path, {"kind"} | required, optional)
    params = {k: v for k, v in obj.items() if k != "kind"}
    if "z" in params:
        params["z"] = parse_complex(params["z"], f"{path}.z")
        if kind in REAL_Z_KINDS and params["z"].imag != 0.0:
            raise ParseError(f"{path}.z", f"{kind} needs a real z")
    if "lambda" in params:
        lam = params.pop("lambda")
        if not isinstance(lam, (int, float)) or isinstance(lam, bool):
            raise ParseError(f"{path}.lambda", "expected a real number")
        params["lam"] = float(lam)
    if "z_samples" in params:
        zs = params["z_samples"]
        if not isinstance(zs, list) or not zs:
            raise ParseError(f"{path}.z_samples", "expected a non-empty array")
        params["z_samples"] = [parse_complex(z, f"{path}.z_samples[{i}]")
                               for i, z in enumerate(zs)]
    if "range" in params:
        rng = params["range"]
        if (not isinstance(rng, list) or len(rng) != 2
                or not all(isinstance(x, (int, float)) for x in rng)):
            raise ParseError(f"{path}.range", "expected [lo, hi]")
        params["range"] = (float(rng[0]), float(rng[1]))
    if "alphas" in params:
        params["alphas"] = _parse_alphas(params["alphas"], f"{path}.alphas")
    if "alpha" in params:
        params["alpha"] = _parse_vector(params["alpha"], f"{path}.alpha")
    if "sequence" in params and params["sequence"] not in VARIATION_SEQUENCES:
        raise ParseError(f"{path}.sequence",
                         f"unknown sequence; known: {sorted(VARIATION_SEQUENCES)}")
    return AnalysisSpec(kind, params)


def _parse_vector(v: Any, path: str) -> np.ndarray:
    if not isinstance(v, list) or not v:
        raise ParseError(path, "expected a non-empty array")
    return np.array([parse_complex(x, f"{path}[{i}]") for i, x in enumerate(v)],
                    dtype=np.complex128)


def _parse_alphas(v: Any, path: str):
    """Either {"random": k} (seeded unit-sphere sample) or an explicit list
    of vectors."""
    if isinstance(v, dict):
        _require_keys(v, path, {"random"}, set())
        k = v["random"]
        if not isinstance(k, int) or k < 1:
            raise ParseError(f"{path}.random", "expected a positive integer")
        return {"random": k}
    if isinstance(v, list):
        return [_parse_vector(x, f"{path}[{i}]") for i, x in enumerate(v)]
    raise ParseError(path, "expected a list of vectors or {\"random\": k}")


@dataclass
class AnalysisConfig:
    family: FamilySpec
    analyses: list[AnalysisSpec]
    horizon: int = 10_000
    seed: int = 0
    out_dir: str | None = None
    raw: dict = field(default_factory=dict)


def parse_config(text: str | bytes | dict) -> AnalysisConfig:
    """Parse and validate a configuration document (JSON text or dict)."""
    if isinstance(text, (str, bytes)):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError("$", f"invalid JSON: {exc}") from exc
    else:
        obj = text
    _require_keys(obj, "$", {"family", "analyses"}, {"horizon", "seed", "out_dir"})
    fam = parse_family(obj["family"], "$.family")
    analyses_obj = obj["analyses"]
    if not isinstance(analyses_obj, list) or not analyses_obj:
        raise ParseError("$.analyses", "expected a non-empty array")
    analyses = [parse_analysis(a, f"$.analyses[{i}]") for i, a in enumerate(analyses_obj)]
    horizon = obj.get("horizon", 10_000)
    if not isinstance(horizon, int) or horizon < 2:
        raise ParseError("$.horizon", "expected an integer >= 2")
    seed = obj.get("seed", 0)
    if not isinstance(seed, int):
        raise ParseError("$.seed", "expected an integer")
    out_dir = obj.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ParseError("$.out_dir", "expected a string")
    return AnalysisConfig(fam, analyses, horizon, seed, out_dir, raw=obj)
