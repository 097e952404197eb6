"""Byte-oracle tests of the report writer: `runner.report_json` must give the
bytes of `json.dumps(_jsonable(x), sort_keys=True, indent=2, allow_nan=False)`,
the two-walk encoder it replaces, on the reports of every analysis kind and on
tabulated echoes (arbitrary values: test_report_writer_properties.py)."""

import json
import math

import pytest

from blockjacobi.config import parse_config
from blockjacobi.fixtures import FIXTURES
from blockjacobi import runner
from blockjacobi.runner import ANALYSES, AnalysisReport, report_json, run
from conftest import report_oracle as oracle


def assert_report_bytes(report) -> None:
    for include_times in (True, False):
        assert report_json(report, include_times) == oracle(report.to_json_dict(include_times))


# One analysis of each kind, small enough for every fixture at horizon 300.
EVERY_KIND = [
    {"kind": "validate"},
    {"kind": "carleman"},
    {"kind": "variation", "sequence": "a_inv_b", "N": 1},
    {"kind": "lambda_scan", "range": [-5, 10], "grid": 41},
    {"kind": "band", "z": 1.0, "alphas": {"random": 2}},
    {"kind": "turan_convergence", "z": 1.0, "alphas": {"random": 2}},
    {"kind": "commutator", "strategy": "an", "lambda": 1.0},
    {"kind": "growth_criterion"},
    {"kind": "log_weight_criterion", "depth": 1},
    {"kind": "indeterminacy", "z_samples": [0.5, [1.0, 0.5]]},
    {"kind": "exact_asymptotics", "z": 1.0},
    {"kind": "christoffel", "z": 1.0},
    {"kind": "trajectory", "z": [1.0, 0.5], "alpha": [1.0, 0.0, [0.0, 1.0], 0.0]},
]


def test_every_kind_is_covered():
    assert sorted(a["kind"] for a in EVERY_KIND) == sorted(ANALYSES)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_reports_of_every_kind_keep_their_bytes(fixture):
    report = run(parse_config({"family": fixture, "analyses": EVERY_KIND,
                               "horizon": 300, "seed": 7}))
    assert_report_bytes(report)


def _tabulated(entry) -> dict:
    """A tabulated family of 60 entries whose matrices come from entry(n)."""
    return {"kind": "tabulated",
            "a": [entry(n)[0] for n in range(60)],
            "b": [entry(n)[1] for n in range(60)]}


# "float" mixes real entries with [re, im] pairs, so the table is echoed as
# written; "pairs" writes every entry as a pair, so it is echoed from the
# float64 array of its parse.
@pytest.mark.parametrize("entries", ["float", "pairs", "int", "mixed"])
def test_tabulated_echo_keeps_its_bytes_and_its_ints(entries):
    def entry(n):
        e = 0.1 * math.exp(-n / 10)
        if entries == "int":
            return [[1, 1], [1, 2]], [[2, 1], [1, 1]]
        if entries == "pairs":
            return ([[[1.0 + e, 0.0], [1.0, e]], [[1.0, 0.0], [2.0 - e, 0.0]]],
                    [[[2.0, 0.0], [1.0, e]], [[1.0, -e], [1.0 + e, 0.0]]])
        a = [[1.0 + e, [1.0, e]], [1.0, 2.0 - e]]
        b = [[2.0, [1.0, e]], [[1.0, -e], 1.0 + e]]
        if entries == "mixed":
            a[1][0] = 1
        return a, b

    family = _tabulated(entry)
    report = run(parse_config({"family": family, "horizon": 50,
                               "analyses": [{"kind": "validate"}, {"kind": "carleman"}]}))
    assert_report_bytes(report)
    echoed = json.loads(report_json(report))["config"]["family"]
    assert echoed == family
    leaf = echoed["a"][0][1][0]
    assert type(leaf[0] if entries == "pairs" else leaf) is (
        float if entries in ("float", "pairs") else int)


def test_a_ragged_table_is_walked_once(monkeypatch):
    """A table mixing numbers and pairs is written in the one walk: `_write`
    sees each of its matrices, rows and pairs once, and none of its numbers,
    which the walk's loop writes itself."""
    seen = []
    write = runner._write
    monkeypatch.setattr(runner, "_write",
                        lambda obj, indent, out: seen.append(obj) or write(obj, indent, out))
    ragged = [[[1.0 + n, [1.0, 0.5]], [1, 2.0]] for n in range(50)]
    block = [[1.0, 2], [3.0, 4.0]]
    report = AnalysisReport(tool={}, config={}, results={"block": block, "ragged": ragged})
    assert report_json(report) == oracle(report.to_json_dict())

    def lists(obj):
        return [obj] + [x for v in obj if isinstance(v, list) for x in lists(v)]

    walked = [id(obj) for obj in seen if isinstance(obj, list)]
    assert sorted(walked) == sorted(id(obj) for obj in lists(block) + lists(ragged))
    assert not any(isinstance(obj, (int, float)) for obj in seen)


def test_emit_refuses_an_unknown_format_before_writing_anything(tmp_path):
    rep = run(parse_config({"family": "paper-constant", "horizon": 50,
                            "analyses": [{"kind": "validate"}]}))
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        runner.emit(rep, tmp_path / "out", "xml")
    assert not (tmp_path / "out").exists()
