"""Span and count recording around the program's modules, for the traced run.

`Tracer.install()` wraps the public module-level functions of each layer at
every binding site: the defining module, the package namespace and every
module that imported the name (`runner`, `turan` and `commutator` each bind
`propagate`, for example).  A wrapped call records one span (name, start,
end, parent span, operation id) in typed `array` columns, so a call costs a few
appends and no object per span.

Hot per-index entry points get count-only wrappers instead of spans: the
family accessors `a`, `b`, `a_inv`, `norm_a`, every `ScalarWeight.__call__`,
every `AlphaStrategy.alpha`, and the functions of `numpy.linalg` as the
program calls them.  Time spent inside a count-only call lands in the layer
of the span that encloses it.

Nothing here edits the program's files; the wrappers live only in the
process that installs them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

# Layers in the order the report lists them; each is a module of the package.
LAYERS = ("opcore", "coeffs", "recurrence", "turan", "commutator", "config", "runner")

# Spans whose count feeds a per-layer count metric.
TURAN_FORM_FUNCS = ("limit_form",)
COMMUTATOR_FORM_FUNCS = ("commutator_form", "boundary_form", "weight_scale")
STACK_FUNCS = ("coefficient_stacks", "transfer_stack", "norm_stack")
STEP_FUNCS = ("propagate", "propagate_block")
ACCESSORS = ("a", "b", "a_inv", "norm_a")


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _batch(x) -> int:
    """Matrices in one numpy.linalg operand: the product of all axes but the
    last two; 1 for a single matrix or vector."""
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) <= 2:
        return 1
    n = 1
    for s in shape[:-2]:
        n *= s
    return n


def _steps(result) -> int:
    """Index steps times columns of a propagate / propagate_block result."""
    trajs = result if isinstance(result, list) else [result]
    return sum(t.last_index for t in trajs)


def _rows(result) -> int:
    return len(result[0]) if isinstance(result, tuple) else len(result)


class Tracer:
    """In-memory span store plus the counters of the count-only wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.current_op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --

    def _span(self, fn, layer: str, name: str, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        stack, name_ids, parents, ops = self._stack, self.name_id, self.parent, self.op
        starts, ends, clock, counts = self.start, self.end, time.perf_counter, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                counts[on_result[0]] += on_result[1](result)
            return result

        return wrapper

    def _count(self, fn, key: str, batch: bool = False):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if batch and args:
                counts[key + ".matrices"] += _batch(args[0])
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- installation --

    def install(self, package: str = "blockjacobi") -> None:
        """Wrap the layers of an imported package.  Call once per process."""
        import numpy

        mods = {name: sys.modules[f"{package}.{name}"] for name in LAYERS}
        bind_sites = [m for n, m in sys.modules.items()
                      if m is not None and (n == package or n.startswith(package + "."))]
        hooks = {name: ("recurrence.stack_rows", _rows) for name in STACK_FUNCS}
        hooks.update({name: ("recurrence.steps", _steps) for name in STEP_FUNCS})
        wrapped: dict[int, object] = {}
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrapped[id(fn)] = self._span(fn, layer, f"{layer}.{name}", hooks.get(name))
        for site in bind_sites:
            for name, val in list(vars(site).items()):
                if id(val) in wrapped and inspect.isfunction(val):
                    self._set(site, name, wrapped[id(val)])

        coeffs = mods["coeffs"]
        for cls in _subclasses(coeffs.CoefficientFamily):
            for name in ACCESSORS:
                if name in cls.__dict__:
                    self._set(cls, name, self._count(cls.__dict__[name], "coeffs.entry_calls"))
        for cls in _subclasses(coeffs.ScalarWeight):
            if "__call__" in cls.__dict__:
                self._set(cls, "__call__",
                          self._count(cls.__dict__["__call__"], "coeffs.weight_calls"))
        for cls in _subclasses(mods["commutator"].AlphaStrategy):
            if "alpha" in cls.__dict__:
                self._set(cls, "alpha",
                          self._count(cls.__dict__["alpha"], "commutator.alpha_calls"))
        for name in numpy.linalg.__all__:
            fn = getattr(numpy.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                self._set(numpy.linalg, name, self._count(fn, "opcore.linalg_calls", batch=True))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Write every span as a gzipped TSV row; the row number is the span
        id that `parent` refers to."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tparent\tname\tstart_s\tend_s\n")
            for nid, parent, op, t0, t1 in zip(self.name_id, self.parent, self.op,
                                               self.start, self.end):
                fh.write(f"{op}\t{parent}\t{self.names[nid]}\t{t0:.9f}\t{t1:.9f}\n")


def self_times(parent, dur) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one span never overlap (calls are nested on one thread), so
    the covered time is the sum of the children's durations."""
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    return [d - c for d, c in zip(dur, child)]


def summarize(tracer: Tracer, duration=None) -> dict:
    """Per-name calls, inclusive and self seconds, and per-layer self seconds.
    `duration(a, b)` measures a span (default b - a).  Inclusive time sums
    every span of a name; none of the names whose inclusive time is reported
    calls itself."""
    duration = duration or (lambda a, b: b - a)
    dur = [duration(a, b) for a, b in zip(tracer.start, tracer.end)]
    selfs = self_times(tracer.parent, dur)
    per_name: dict[str, dict] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, nid in enumerate(tracer.name_id):
        name = tracer.names[nid]
        rec = per_name.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["incl_s"] += dur[i]
        rec["self_s"] += selfs[i]
        layer_self[tracer.layer_of[nid]] += selfs[i]
    return {"names": per_name, "layer_self_s": layer_self}


def layer_metrics(summary: dict, counts: Counter, bytes_written: int,
                  overhead_s: float) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from a traced pass."""
    names, layer_self = summary["names"], summary["layer_self_s"]

    def calls(*fns):
        return sum(names.get(f, {}).get("calls", 0) for f in fns)

    def incl(fn):
        return names.get(fn, {}).get("incl_s", 0.0)

    opcore_calls = sum(r["calls"] for n, r in names.items() if n.startswith("opcore."))
    linalg = counts["opcore.linalg_calls"]
    return {
        "opcore.calls": opcore_calls,
        "opcore.self_s": layer_self["opcore"],
        "opcore.linalg_calls": linalg,
        "opcore.linalg_matrices_per_call":
            counts["opcore.linalg_calls.matrices"] / linalg if linalg else 0.0,
        "coeffs.self_s": layer_self["coeffs"],
        "coeffs.entry_calls": counts["coeffs.entry_calls"],
        "coeffs.weight_calls": counts["coeffs.weight_calls"],
        "commutator.self_s": layer_self["commutator"],
        "commutator.form_evals": calls(*(f"commutator.{f}" for f in COMMUTATOR_FORM_FUNCS))
                                 + counts["commutator.alpha_calls"],
        "recurrence.self_s": layer_self["recurrence"],
        "recurrence.steps": counts["recurrence.steps"],
        "recurrence.stack_rows": counts["recurrence.stack_rows"],
        "turan.self_s": layer_self["turan"],
        "turan.extract_s": incl("turan.extract_periodic_limits"),
        "turan.form_evals": calls(*(f"turan.{f}" for f in TURAN_FORM_FUNCS)),
        "config.parse_s": incl("config.parse_config"),
        "runner.self_s": layer_self["runner"],
        "runner.emit_s": incl("runner.emit"),
        "runner.bytes_written": bytes_written,
        "trace.overhead_s": overhead_s,
    }
