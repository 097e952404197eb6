"""Strict JSON analysis-configuration parsing.

Unknown keys are rejected with the offending path and every value is typed
here, so a malformed document fails before any analysis runs.  The keys of an
analysis kind are the keyword parameters of its handler in `runner.ANALYSES`.
Complex scalars are written as [re, im] pairs and matrices as row-major
nested arrays whose entries are reals or [re, im] pairs.

The report echoes the family and each analysis as parsed (`FamilySpec.echo`,
`AnalysisSpec.echo`), and a parsed config keeps of its document only those
echoes: a table of matrices (tabulated a and b, scaled_periodic X and Y)
written in floats alone is echoed from the float64 array its one-pass typing
built, a view of the family's own table, and any other value as the document
wrote it.
"""

from __future__ import annotations

import cmath
import dataclasses
import inspect
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .coeffs import (
    DEFAULT_HORIZON,
    SEQUENCE_NAMES,
    WEIGHT_KINDS,
    CoefficientFamily,
    ScalarWeight,
    constant_family,
    scaled_periodic_family,
    tabulated_family,
)
from .fixtures import FIXTURES
from .runner import ANALYSES, STRATEGIES
from .table import walk_nested


class ParseError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
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


def _kind(obj: Any, path: str, known, what: str) -> str:
    """The "kind" of an object, one of `known`."""
    if not isinstance(obj, dict):
        raise ParseError(path, f"expected an object, got {type(obj).__name__}")
    if "kind" not in obj:
        raise ParseError(path, "missing required keys ['kind']")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in known:
        raise ParseError(f"{path}.kind", f"unknown {what} {kind!r}; known: {sorted(known)}")
    return kind


def _is_real(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def parse_complex(v: Any, path: str) -> complex:
    parts = v if isinstance(v, list) and len(v) == 2 else [v, 0.0]
    try:  # an integer too large for a float overflows
        z = complex(*parts) if all(_is_real(x) for x in parts) else None
    except OverflowError:
        z = None
    if z is None or not cmath.isfinite(z):
        raise ParseError(path, "expected a finite real number or an [re, im] pair")
    return z


def parse_matrix(v: Any, path: str) -> np.ndarray:
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise ParseError(path, "expected a nested array (row-major matrix)")
    rows = [[parse_complex(x, f"{path}[{i}][{j}]") for j, x in enumerate(r)]
            for i, r in enumerate(v)]
    if len({len(r) for r in rows}) != 1:
        raise ParseError(path, "rows have differing lengths")
    return np.array(rows, dtype=np.complex128)


def parse_weight(obj: Any, path: str) -> ScalarWeight:
    """A scalar weight, each parameter typed by its field in the weight class."""
    kind = _kind(obj, path, WEIGHT_KINDS, "weight kind")
    fields = {f.name: f for f in dataclasses.fields(WEIGHT_KINDS[kind])}
    _require_keys(obj, path, {"kind"} | {k for k, f in fields.items()
                                         if f.default is dataclasses.MISSING}, set(fields))
    params = {}
    for key in [k for k in obj if k != "kind"]:
        v, kpath, t = obj[key], f"{path}.{key}", fields[key].type
        if t == "tuple[float, ...]":
            if not isinstance(v, list):
                raise ParseError(kpath, "expected an array of numbers")
            params[key] = tuple(float(_number(float)(x, f"{kpath}[{i}]"))
                                for i, x in enumerate(v))
        else:
            params[key] = _number(int if t == "int" else float)(v, kpath)
    try:
        return WEIGHT_KINDS[kind](**params)
    except ValueError as exc:
        raise ParseError(path, str(exc)) from exc


@dataclass
class FamilySpec:
    family: CoefficientFamily
    echo: Any  # the family as the report echoes it

    def build(self) -> CoefficientFamily:
        return self.family


def _built(make, path: str, echo, *args, **kwargs) -> FamilySpec:
    """The family make(*args, **kwargs), echoed as `echo`; a refusal is
    reported at path."""
    try:
        return FamilySpec(make(*args, **kwargs), echo)
    except ValueError as exc:
        raise ParseError(path, str(exc)) from exc


def _fixture(name: Any, params: Any, name_path: str, params_path: str, echo) -> FamilySpec:
    """A built-in family, each parameter typed like its factory default."""
    if not isinstance(name, str) or name not in FIXTURES:
        raise ParseError(name_path, f"unknown fixture {name!r}; known: {sorted(FIXTURES)}")
    factory = FIXTURES[name]
    defaults = {k: p.default for k, p in inspect.signature(factory).parameters.items()}
    _require_keys(params, params_path, set(), set(defaults))
    for key, value in params.items():
        _number(type(defaults[key]))(value, f"{params_path}.{key}")
    return _built(factory, params_path, echo, **params)


def _matrices(v: Any, path: str) -> tuple[np.ndarray, Any]:
    """A table of matrices of one shape as one (n, rows, cols) stack, and
    the table as the report echoes it (see `_typed_table`)."""
    if not isinstance(v, list) or not v:
        raise ParseError(path, "expected a non-empty array of matrices")
    return _typed_table(v) or (_typed_entries(v, path), v)


def _typed_table(v: list) -> tuple[np.ndarray, Any] | None:
    """The table typed in one pass when every entry is a matrix of one shape
    and every number is a finite int or float, written all as reals or all
    as [re, im] pairs; None otherwise.  Only lists count as arrays.  With
    the stack comes its echo: when every number is a float, the float64
    array of the numbers, a view of the stack; else the list v."""
    walked = walk_nested(v, {list})
    if walked is None:
        return None
    shape, level, kinds = walked
    if not kinds <= {int, float} or not (len(shape) == 3 or shape[3:] == [2]):
        return None
    try:  # an integer too large for a float overflows
        t = np.array(level, dtype=np.float64).reshape(shape)
    except OverflowError:
        return None
    if not np.isfinite(t).all():
        return None
    # the pair axis read as complex keeps the sign of a zero part
    table = t.view(np.complex128)[..., 0] if len(shape) == 4 else t.astype(np.complex128)
    floats = t if len(shape) == 4 else table.real  # a view of the table either way
    return table, floats if kinds == {float} else v


def _typed_entries(v: list, path: str) -> np.ndarray:
    """The table typed entry by entry: it names the first malformed entry,
    and it types a table that mixes real and [re, im] entries."""
    mats = []
    for i, m in enumerate(v):
        mats.append(parse_matrix(m, f"{path}[{i}]"))
        if mats[i].shape != mats[0].shape:
            rows, cols = mats[0].shape
            raise ParseError(f"{path}[{i}]", f"expected a {rows}x{cols} matrix, as {path}[0]")
    return np.stack(mats)


def parse_family(obj: Any, path: str) -> FamilySpec:
    if isinstance(obj, str):
        return _fixture(obj, {}, path, path, obj)
    kind = _kind(obj, path, ("fixture", "constant", "scaled_periodic", "tabulated"),
                 "family kind")
    if kind == "fixture":
        _require_keys(obj, path, {"kind", "name"}, {"params"})
        return _fixture(obj["name"], obj.get("params", {}), f"{path}.name", f"{path}.params",
                        obj)
    if kind == "scaled_periodic":
        _require_keys(obj, path, {"kind", "period", "x", "y", "X", "Y"}, set())
        period = _number(int, 1)(obj["period"], f"{path}.period")
        x, y = parse_weight(obj["x"], f"{path}.x"), parse_weight(obj["y"], f"{path}.y")
        (X, echo_X), (Y, echo_Y) = (_matrices(obj[k], f"{path}.{k}") for k in "XY")
        return _built(scaled_periodic_family, path, {**obj, "X": echo_X, "Y": echo_Y},
                      period, x, y, X, Y)
    _require_keys(obj, path, {"kind", "a", "b"}, set())
    if kind == "constant":
        return _built(constant_family, path, obj, parse_matrix(obj["a"], f"{path}.a"),
                      parse_matrix(obj["b"], f"{path}.b"))
    (a, echo_a), (b, echo_b) = (_matrices(obj[k], f"{path}.{k}") for k in "ab")
    return _built(tabulated_family, path, {**obj, "a": echo_a, "b": echo_b}, a, b)


# ---- analysis keys ----
# A parser takes a value, its JSON path and the family dimension d, and
# returns what the handler receives.


def _number(kind: type, lo: float = -math.inf, int64: bool = True):
    """Parser of a finite int (kind int) or real number (kind float) >= lo.
    With int64, an integer value must also fit in int64, as numpy reads it."""
    def parse(v: Any, path: str, dim: int = 0):
        if int64 and _is_real(v) and isinstance(v, int) and not -2 ** 63 <= v < 2 ** 63:
            raise ParseError(path, "integer out of the int64 range")
        if not (_is_real(v) and isinstance(v, (int, kind))
                and (isinstance(v, int) or math.isfinite(v)) and v >= lo):
            what = "an integer" if kind is int else "a finite real number"
            raise ParseError(path, f"expected {what}" + (f" >= {lo}" if lo > -math.inf else ""))
        return v
    return parse


def _interval(item):
    """Parser of [lo, hi] with lo < hi and finite hi - lo, each end typed by `item`."""
    def parse(v: Any, path: str, dim: int):
        if not isinstance(v, list) or len(v) != 2:
            raise ParseError(path, "expected [lo, hi]")
        lo, hi = (item(x, f"{path}[{i}]") for i, x in enumerate(v))
        if not lo < hi:
            raise ParseError(path, "expected lo < hi")
        if not math.isfinite(hi - lo):
            raise ParseError(path, "expected a finite width hi - lo")
        return (lo, hi)
    return parse


def _choice(*names: str):
    def parse(v: Any, path: str, dim: int):
        if v not in names:
            raise ParseError(path, f"expected one of {list(names)}")
        return v
    return parse


def _complex_list(v: Any, path: str, dim: int) -> list[complex]:
    if not isinstance(v, list) or not v:
        raise ParseError(path, "expected a non-empty array")
    return [parse_complex(z, f"{path}[{i}]") for i, z in enumerate(v)]


def _vector(v: Any, path: str, dim: int) -> np.ndarray:
    """Initial data in H (+) H: 2d numbers."""
    if not isinstance(v, list) or len(v) != 2 * dim:
        raise ParseError(path, f"expected an array of 2d = {2 * dim} numbers")
    return np.array(_complex_list(v, path, dim), dtype=np.complex128)


def _alphas(v: Any, path: str, dim: int):
    """{"random": k}, a seeded sample of k unit vectors, or a list of vectors."""
    if isinstance(v, dict):
        _require_keys(v, path, {"random"}, set())
        return {"random": _number(int, 1)(v["random"], f"{path}.random")}
    if isinstance(v, list) and v:
        return [_vector(x, f"{path}[{i}]", dim) for i, x in enumerate(v)]
    raise ParseError(path, "expected a non-empty list of vectors or {\"random\": k}")


_PARSERS = {
    "horizon": _number(int, 2),
    "seed": _number(int, 0, int64=False),  # numpy seeds take any size
    "alpha": _vector,
    "alphas": _alphas,
    "burn_in": _number(int, 1),
    "depth": _number(int, 0),
    "eps": _number(float, 0),
    "grid": _number(int, 2),
    "lambda": _number(float),
    "N": _number(int, 1),
    "n_start": _number(int, 0),
    "range": _interval(_number(float)),
    "sequence": _choice(*SEQUENCE_NAMES),
    "strategy": _choice(*STRATEGIES),
    "upto": _number(int, 1),
    "window": _interval(_number(int, 0)),
    "z": lambda v, path, dim: parse_complex(v, path),
    "z_samples": _complex_list,
}


def parse_value(key: str, v: Any, path: str, dim: int = 0):
    """One value of a config key typed as parse_config types it, an error
    reported at `path`; for command line flags."""
    return _PARSERS[key](v, path, dim)


@dataclass
class AnalysisSpec:
    kind: str
    params: dict  # handler keyword arguments
    echo: dict  # the analysis as the report echoes it


def parse_analysis(obj: Any, path: str, dim: int) -> AnalysisSpec:
    """Type the keys of one analysis for a family of dimension `dim`."""
    kind = _kind(obj, path, ANALYSES, "analysis")
    keys = {name.rstrip("_"): p
            for name, p in inspect.signature(ANALYSES[kind]).parameters.items()
            if p.kind is p.KEYWORD_ONLY}
    _require_keys(obj, path, {"kind"} | {k for k, p in keys.items() if p.default is p.empty},
                  set(keys))
    params = {}
    for key in [k for k in obj if k != "kind"]:
        value = _PARSERS[key](obj[key], f"{path}.{key}", dim)
        if keys[key].annotation in (float, "float"):
            if value.imag != 0.0:
                raise ParseError(f"{path}.{key}", f"{kind} needs a real {key}")
            value = value.real
        params[keys[key].name] = value
    return AnalysisSpec(kind, params, dict(obj))


@dataclass
class AnalysisConfig:
    family: FamilySpec
    analyses: list[AnalysisSpec]
    horizon: int = DEFAULT_HORIZON
    seed: int = 0
    out_dir: str | None = None


def load_json(text: str | bytes, path: str = "$"):
    """The value of a JSON document; a ParseError at `path` for any document
    json.loads refuses.  Besides a JSONDecodeError that is a plain ValueError
    (bytes that are not UTF-8, -16 or -32, an integer literal past Python's
    digit limit) or a RecursionError (a document nested too deep)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(path, f"invalid JSON: {exc}") from exc


def parse_config(text: str | bytes | dict) -> AnalysisConfig:
    """Parse and validate a configuration document (JSON text or dict)."""
    obj = load_json(text) if isinstance(text, (str, bytes)) else text
    _require_keys(obj, "$", {"family", "analyses"}, {"horizon", "seed", "out_dir"})
    fam = parse_family(obj["family"], "$.family")
    analyses_obj = obj["analyses"]
    if not isinstance(analyses_obj, list) or not analyses_obj:
        raise ParseError("$.analyses", "expected a non-empty array")
    analyses = [parse_analysis(a, f"$.analyses[{i}]", fam.family.dim)
                for i, a in enumerate(analyses_obj)]
    horizon = parse_value("horizon", obj.get("horizon", DEFAULT_HORIZON), "$.horizon")
    seed = parse_value("seed", obj.get("seed", 0), "$.seed")
    out_dir = obj.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ParseError("$.out_dir", "expected a string")
    return AnalysisConfig(fam, analyses, horizon, seed, out_dir)
