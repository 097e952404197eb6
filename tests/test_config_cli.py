"""Tests for configuration parsing, the analysis runner, and the CLI."""

import csv
import json
import re

import numpy as np
import pytest

from blockjacobi import config
from blockjacobi.cli import _build_parser, main
from blockjacobi.coeffs import ConstantWeight, PowerWeight, scaled_periodic_family
from blockjacobi.config import (
    ParseError,
    parse_complex,
    parse_config,
    parse_matrix,
    parse_weight,
)
from blockjacobi.fixtures import X_OP, Y_OP
from blockjacobi.runner import _jsonable, run
from blockjacobi.table import ROW_BLOCK, Table, write_csv
from blockjacobi.turan import christoffel_limit, exact_asymptotics, extract_periodic_limits

X_JSON = [[1.0, 1.0], [1.0, 2.0]]
Y_JSON = [[2.0, 1.0], [1.0, 1.0]]


def test_parse_minimal_config():
    doc = parse_config(json.dumps({
        "family": "paper-constant",
        "analyses": [{"kind": "carleman"}],
    }))
    assert doc.horizon == 10_000 and doc.seed == 0 and doc.out_dir is None
    fam = doc.family.build()
    assert fam.dim == 2
    assert np.abs(fam.a(3) - X_OP).max() == 0.0


def test_parse_inline_constant_family():
    doc = parse_config({
        "family": {"kind": "constant", "a": X_JSON, "b": Y_JSON},
        "analyses": [{"kind": "lambda_scan", "range": [-5, 10], "grid": 101}],
        "horizon": 500,
        "seed": 7,
        "out_dir": "out",
    })
    assert doc.horizon == 500 and doc.seed == 7 and doc.out_dir == "out"
    fam = doc.family.build()
    assert np.abs(fam.b(0) - Y_OP).max() == 0.0
    spec = doc.analyses[0]
    assert spec.kind == "lambda_scan"
    assert spec.params["range"] == (-5.0, 10.0)


def test_parse_fixture_with_params():
    doc = parse_config({
        "family": {"kind": "fixture", "name": "paper-unbounded",
                   "params": {"q": 0.25}},
        "analyses": [{"kind": "validate"}],
    })
    fam = doc.family.build()
    assert np.abs(fam.b(0) - 0.25 * Y_OP).max() < 1e-15


def test_parse_scaled_periodic_family():
    doc = parse_config({
        "family": {"kind": "scaled_periodic", "period": 1,
                   "x": {"kind": "power", "exponent": 1.0},
                   "y": {"kind": "constant", "value": 0.0},
                   "X": [X_JSON], "Y": [Y_JSON]},
        "analyses": [{"kind": "validate"}],
    })
    fam = doc.family.build()
    assert np.abs(fam.a(4) - 5.0 * X_OP).max() < 1e-12


def test_parse_complex_forms():
    assert parse_complex(3, "$") == 3.0 + 0.0j
    assert parse_complex([1, -2], "$") == 1.0 - 2.0j
    for bad in (True, [True, 1], "x", [1], [1, 2, 3]):
        with pytest.raises(ParseError):
            parse_complex(bad, "$")


def test_matrix_roundtrip():
    rng = np.random.default_rng(41)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = parse_matrix(_jsonable(m), "$")
    assert np.abs(back - m).max() < 1e-15
    assert _jsonable(3.0 + 0.0j) == 3.0  # reals stay scalars
    assert _jsonable(1.0 - 2.0j) == [1.0, -2.0]


def test_parse_weight_kinds():
    w = parse_weight({"kind": "power", "exponent": 2.0, "offset": 1}, "$")
    assert w(3) == 16.0
    with pytest.raises(ParseError, match="unknown weight kind"):
        parse_weight({"kind": "cosine"}, "$")
    with pytest.raises(ParseError):
        parse_weight({"kind": "power", "value": 3.0}, "$")  # wrong parameter


def test_inline_weight_parameters_are_typed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"kind": "scaled_periodic", "period": 1,
                   "x": {"kind": "power", "exponent": "x"},
                   "y": {"kind": "constant", "value": 0.0},
                   "X": [X_JSON], "Y": [Y_JSON]},
        "analyses": [{"kind": "carleman"}], "horizon": 50}))
    assert main(["analyze", str(cfg)]) == 2
    assert "$.family.x.exponent" in capsys.readouterr().err
    for bad, where in [({"kind": "power", "exponent": 1, "offset": 1.5}, "$.offset"),
                       ({"kind": "constant", "value": True}, "$.value"),
                       ({"kind": "tabulated", "values": [1.0, "2"]}, "$.values[1]"),
                       ({"kind": "tabulated", "values": 3.0}, "$.values"),
                       ({"kind": "log_product", "depth": 1}, "missing required keys")]:
        with pytest.raises(ParseError, match=re.escape(where)):
            parse_weight(bad, "$")
    assert parse_weight({"kind": "tabulated", "values": [1, 2]}, "$").values == (1.0, 2.0)


def test_integer_parameters_past_int64_are_config_errors(tmp_path, capsys):
    # numpy reads integer parameters as int64; a larger one is a config
    # error at its path, not an OverflowError.  Seeds take any size.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"kind": "scaled_periodic", "period": 1,
                   "x": {"kind": "power", "exponent": 0.5, "offset": 10 ** 29},
                   "y": {"kind": "constant", "value": 0.0},
                   "X": [X_JSON], "Y": [Y_JSON]},
        "analyses": [{"kind": "carleman"}], "horizon": 50}))
    assert main(["analyze", str(cfg)]) == 2
    assert "$.family.x.offset" in capsys.readouterr().err
    for family, where in [
            ({"kind": "fixture", "name": "paper-logweight", "params": {"offset": 2 ** 63}},
             "$.family.params.offset"),
            ({"kind": "scaled_periodic", "period": 1,
              "x": {"kind": "power", "exponent": 10 ** 400},
              "y": {"kind": "constant", "value": 0.0}, "X": [X_JSON], "Y": [Y_JSON]},
             "$.family.x.exponent")]:
        with pytest.raises(ParseError, match=re.escape(where)):
            parse_config({"family": family, "analyses": [{"kind": "carleman"}]})
    doc = parse_config({"family": "paper-constant", "analyses": [{"kind": "carleman"}],
                        "seed": 10 ** 30})
    assert doc.seed == 10 ** 30


def test_integers_too_large_for_a_float_are_config_errors(tmp_path, capsys):
    # a complex slot holds floats; an integer past their range is a config
    # error at its path, not an OverflowError
    big = 10 ** 400
    cfg = tmp_path / "cfg.json"
    for doc, where in [
            ({"family": {"kind": "constant", "a": [[big, 0], [0, 1]], "b": Y_JSON},
              "analyses": [{"kind": "carleman"}]}, "$.family.a[0][0]"),
            ({"family": "paper-constant", "analyses": [{"kind": "band", "z": big}]},
             "$.analyses[0].z")]:
        cfg.write_text(json.dumps(doc))
        assert main(["analyze", str(cfg)]) == 2
        assert where in capsys.readouterr().err
    for analysis, where in [
            ({"kind": "band", "z": [0.5, -big]}, "$.analyses[0].z"),
            ({"kind": "indeterminacy", "z_samples": [0.5, big]}, "$.analyses[0].z_samples[1]"),
            ({"kind": "trajectory", "z": 0.5, "alpha": [1, 0, big, 0]},
             "$.analyses[0].alpha[2]")]:
        with pytest.raises(ParseError, match=re.escape(where)):
            parse_config({"family": "paper-constant", "analyses": [analysis]})
    assert parse_config({"family": "paper-constant", "analyses": [{"kind": "carleman"}],
                         "seed": big}).seed == big


@pytest.mark.parametrize("family", [
    {"kind": "constant", "a": [[1, 0], [0, 1]], "b": [[1]]},
    {"kind": "scaled_periodic", "period": 1, "x": {"kind": "constant"},
     "y": {"kind": "constant"}, "X": [X_JSON], "Y": [[[1]]]},
    {"kind": "tabulated", "a": [X_JSON, X_JSON],
     "b": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]] * 2},
], ids=["constant", "scaled_periodic", "tabulated"])
def test_a_and_b_of_different_sizes_are_config_errors(tmp_path, capsys, family):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": family, "analyses": [{"kind": "validate"}]}))
    assert main(["analyze", str(cfg)]) == 2
    assert "error: $.family: " in capsys.readouterr().err


@pytest.mark.parametrize("family,message", [
    ({"kind": "tabulated", "a": [[[1, 0], [0, 1]], [[1]]], "b": [[[1]]] * 2},
     "$.family.a[1]: expected a 2x2 matrix, as $.family.a[0]"),
    ({"kind": "tabulated", "a": [X_JSON] * 3, "b": [Y_JSON, Y_JSON, [[1, 0, 0]] * 3]},
     "$.family.b[2]: expected a 2x2 matrix, as $.family.b[0]"),
    ({"kind": "scaled_periodic", "period": 2, "x": {"kind": "constant"},
      "y": {"kind": "constant"}, "X": [X_JSON, [[[1, 0], [0, 0]]]], "Y": [Y_JSON] * 2},
     "$.family.X[1]: expected a 2x2 matrix, as $.family.X[0]"),
], ids=["tabulated-a", "tabulated-b", "scaled_periodic-X"])
def test_a_table_of_differing_sizes_names_its_entry(tmp_path, capsys, family, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": family, "analyses": [{"kind": "validate"}]}))
    assert main(["analyze", str(cfg)]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err


def test_well_formed_tables_are_typed_in_one_pass(monkeypatch):
    def per_entry(v, path):
        raise AssertionError(f"{path} was typed entry by entry")

    pairs = [[[[1.0, 0.1 * (n % 7)], [1, -0.0]], [[1, 0.0], [2.0, 0]]] for n in range(1000)]
    family = {"kind": "tabulated", "a": pairs, "b": [Y_JSON] * 1000}
    monkeypatch.setattr(config, "parse_complex", per_entry)
    fam = parse_config({"family": family, "analyses": [{"kind": "validate"}]}).family.build()
    assert fam.a(999).tobytes() == np.array([[1 + 0.5j, complex(1, -0.0)], [1, 2]]).tobytes()
    assert fam.b(999).tobytes() == Y_OP.astype(complex).tobytes()

    # a table that mixes real and [re, im] entries is typed entry by entry
    calls = []
    monkeypatch.setattr(config, "parse_complex",
                        lambda v, path: calls.append(path) or parse_complex(v, path))
    mixed = {"kind": "tabulated", "a": [pairs[0], X_JSON], "b": [Y_JSON] * 2}
    fam = parse_config({"family": mixed, "analyses": [{"kind": "validate"}]}).family.build()
    assert len(calls) == 8 and fam.a(1).tobytes() == X_OP.astype(complex).tobytes()


@pytest.mark.parametrize("doc,fragment", [
    ("{ not json", "$: invalid JSON"),
    ({"family": "paper-constant"}, "missing required keys ['analyses']"),
    ({"family": "paper-constant", "analyses": [{"kind": "carleman"}],
      "extra": 1}, "unknown keys ['extra']"),
    ({"family": "paper-constant", "analyses": [{"kind": "carleman"}],
      "horizon": 1}, "$.horizon"),
    ({"family": "paper-constant", "analyses": [{"kind": "carleman"}],
      "seed": "x"}, "$.seed"),
    ({"family": "paper-constant", "analyses": [{"kind": "carleman"}],
      "out_dir": 3}, "$.out_dir"),
    ({"family": "no-such-fixture", "analyses": [{"kind": "carleman"}]},
     "$.family"),
    ({"family": {"kind": "mystery"}, "analyses": [{"kind": "carleman"}]},
     "$.family.kind"),
    ({"family": {"kind": "constant", "a": [[1, 2], [3]], "b": Y_JSON},
      "analyses": [{"kind": "carleman"}]}, "differing lengths"),
    ({"family": {"kind": "constant", "a": [[True, 0], [0, 1]], "b": Y_JSON},
      "analyses": [{"kind": "carleman"}]}, "$.family.a[0][0]"),
    ({"family": "paper-constant", "analyses": []}, "$.analyses"),
    ({"family": "paper-constant", "analyses": [{"kind": "astrology"}]},
     "$.analyses[0].kind"),
    ({"family": "paper-constant",
      "analyses": [{"kind": "carleman", "extra": 1}]}, "$.analyses[0]"),
    ({"family": "paper-constant",
      "analyses": [{"kind": "commutator", "strategy": "an", "lambda": "x"}]},
     "$.analyses[0].lambda"),
    ({"family": "paper-constant",
      "analyses": [{"kind": "lambda_scan", "range": [1]}]},
     "$.analyses[0].range"),
    ({"family": "paper-constant",
      "analyses": [{"kind": "indeterminacy", "z_samples": []}]},
     "$.analyses[0].z_samples"),
    ({"family": "paper-constant",
      "analyses": [{"kind": "band", "z": 1.0, "alphas": {"random": 0}}]},
     "$.analyses[0].alphas.random"),
    ({"family": "paper-constant",
      "analyses": [{"kind": "band", "z": 1.0, "alphas": 3}]},
     "$.analyses[0].alphas"),
    ({"family": "paper-constant",
      "analyses": [{"kind": "variation", "sequence": "c", "N": 1}]},
     "$.analyses[0].sequence"),
    ({"family": {"kind": "scaled_periodic", "period": 1,
                 "x": {"kind": "cosine"}, "y": {"kind": "constant"},
                 "X": [X_JSON], "Y": [Y_JSON]},
      "analyses": [{"kind": "carleman"}]}, "$.family.x.kind"),
    # every value is typed before an analysis runs
    ({"family": "paper-constant", "analyses": [{"kind": "validate", "upto": "x"}]},
     "$.analyses[0].upto"),
    ({"family": "paper-constant", "analyses": [{"kind": "validate", "upto": -3}]},
     "$.analyses[0].upto"),
    ({"family": "paper-constant",
      "analyses": [{"kind": "variation", "sequence": "a", "N": 1.5}]},
     "$.analyses[0].N"),
    ({"family": "paper-constant",
      "analyses": [{"kind": "lambda_scan", "range": [-5, 5], "grid": "x"}]},
     "$.analyses[0].grid"),
    ({"family": "paper-constant",
      "analyses": [{"kind": "lambda_scan", "range": [-5, 5], "eps": "x"}]},
     "$.analyses[0].eps"),
    ({"family": "paper-constant", "analyses": [{"kind": "band", "z": 1.0, "burn_in": "x"}]},
     "$.analyses[0].burn_in"),
    ({"family": "paper-constant", "analyses": [{"kind": "lambda_scan", "range": [True, 1]}]},
     "$.analyses[0].range[0]"),
    ({"family": "paper-constant",
      "analyses": [{"kind": "band", "z": 1.0, "alphas": {"random": True}}]},
     "$.analyses[0].alphas.random"),
    ({"family": "paper-constant",
      "analyses": [{"kind": "variation", "sequence": "a", "N": 1, "window": "x"}]},
     "$.analyses[0].window"),
    ({"family": "paper-constant", "analyses": [{"kind": "log_weight_criterion", "depth": "x"}]},
     "$.analyses[0].depth"),
    # fixture parameters are checked against the factory
    ({"family": {"kind": "fixture", "name": "paper-constant", "params": {"bogus": 1}},
      "analyses": [{"kind": "carleman"}]}, "$.family.params"),
    ({"family": {"kind": "fixture", "name": "paper-unbounded", "params": {"q": "x"}},
      "analyses": [{"kind": "carleman"}]}, "$.family.params"),
    ({"family": {"kind": "fixture", "name": "paper-logweight", "params": {"offset": 1}},
      "analyses": [{"kind": "carleman"}]}, "$.family.params"),
    # checks that need more than a type: 2d-vectors, lo < hi
    ({"family": "paper-constant",
      "analyses": [{"kind": "band", "z": 1.0, "alphas": [[1, 0]]}]},
     "$.analyses[0].alphas[0]"),
    ({"family": "paper-constant",
      "analyses": [{"kind": "trajectory", "z": 0.5, "alpha": [1, 0, 0]}]},
     "$.analyses[0].alpha"),
    ({"family": "paper-constant", "analyses": [{"kind": "lambda_scan", "range": [5, -5]}]},
     "$.analyses[0].range"),
    ({"family": "paper-constant",
      "analyses": [{"kind": "variation", "sequence": "a", "N": 1, "window": [10, 5]}]},
     "$.analyses[0].window"),
])
def test_parse_errors_carry_paths(doc, fragment):
    with pytest.raises(ParseError) as err:
        parse_config(doc)
    assert fragment in str(err.value)


# ---- runner ----


def test_run_is_deterministic_for_fixed_seed():
    cfg = {"family": "paper-constant",
           "analyses": [{"kind": "band", "z": 1.0, "alphas": {"random": 2}},
                        {"kind": "carleman"}],
           "horizon": 600, "seed": 5}
    r1 = run(parse_config(dict(cfg)))
    r2 = run(parse_config(dict(cfg)))
    s1 = json.dumps(_jsonable(r1.to_json_dict(include_times=False)), sort_keys=True)
    s2 = json.dumps(_jsonable(r2.to_json_dict(include_times=False)), sort_keys=True)
    assert s1 == s2
    assert "wall_times" not in json.loads(s1)


def test_run_records_analysis_errors_and_continues():
    # The constant family violates the exact-asymptotics hypotheses (T does
    # not vanish); the failure lands under its own key and the next analysis
    # still runs.
    doc = parse_config({"family": "paper-constant",
                        "analyses": [{"kind": "christoffel", "z": 0.0},
                                     {"kind": "carleman"}],
                        "horizon": 600})
    rep = run(doc)
    assert rep.results["00_christoffel"]["error"] == "HypothesisViolatedError"
    assert "partial_sum" in rep.results["01_carleman"]


def test_run_records_a_table_shorter_than_the_horizon():
    doc = parse_config({"family": {"kind": "tabulated", "a": [X_JSON] * 3, "b": [Y_JSON] * 3},
                        "analyses": [{"kind": "carleman"}, {"kind": "validate", "upto": 3}],
                        "horizon": 50})
    rep = run(doc)
    assert rep.results["00_carleman"] == {"error": "IndexError",
                                          "message": "index 3 is past the table of 3 entries"}
    assert rep.results["01_validate"]["ok"]


def _weighted(x: dict) -> dict:
    return {"kind": "scaled_periodic", "period": 1, "x": x,
            "y": {"kind": "constant", "value": 1.0}, "X": [X_JSON], "Y": [Y_JSON]}


def test_run_records_a_weight_table_shorter_than_the_horizon():
    doc = parse_config({"family": _weighted({"kind": "tabulated", "values": [1, 2, 3]}),
                        "analyses": [{"kind": "carleman"}, {"kind": "validate", "upto": 3}],
                        "horizon": 50})
    rep = run(doc)
    assert rep.results["00_carleman"] == {"error": "IndexError",
                                          "message": "index 3 is past the table of 3 entries"}
    assert rep.results["01_validate"]["ok"]


def test_an_empty_weight_table_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": _weighted({"kind": "tabulated", "values": []}),
                               "analyses": [{"kind": "carleman"}], "horizon": 50}))
    assert main(["analyze", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: $.family.x: ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family", [
    {"kind": "constant", "a": [[0, 0], [0, 0]], "b": Y_JSON},
    _weighted({"kind": "constant", "value": 0.0}),
    _weighted({"kind": "power", "exponent": -400}),  # x_n underflows to 0 from n = 6
], ids=["zero-a", "zero-x", "underflowing-x"])
def test_vanishing_a_satisfies_carleman(family):
    doc = parse_config({"family": family,
                        "analyses": [{"kind": "carleman"},
                                     {"kind": "indeterminacy", "z_samples": [0.0]}],
                        "horizon": 200})
    rep = _jsonable(run(doc).results)
    assert rep["00_carleman"]["verdict"] == "diverges"
    assert rep["00_carleman"]["partial_sum"] == "inf"
    assert rep["01_indeterminacy"]["verdict"] == "self_adjoint_regime"


def test_run_names_the_domain_of_a_inv_a_prev():
    # a_n^{-1} a_{n-1}^* starts at n = 1; a window from 0 is refused by name
    doc = parse_config({"family": "paper-constant",
                        "analyses": [{"kind": "variation", "sequence": "a_inv_a_prev",
                                      "N": 1, "window": [0, 10]},
                                     {"kind": "variation", "sequence": "a_inv_a_prev",
                                      "N": 1, "window": [1, 10]}],
                        "horizon": 50})
    rep = run(doc)
    assert rep.results["00_variation"] == {
        "error": "ValueError",
        "message": "sequence 'a_inv_a_prev' (a_n^-1 a_(n-1)^*) starts at n = 1, not 0"}
    assert rep.results["01_variation"]["window"] == [1, 10]


def test_run_names_a_horizon_without_a_mid_trace_window():
    doc = parse_config({"family": "paper-constant",
                        "analyses": [{"kind": "commutator", "strategy": "an", "lambda": 1.0}],
                        "horizon": 5})
    rep = run(doc)
    assert rep.results["00_commutator"] == {
        "error": "ValueError",
        "message": "horizon 5 leaves the mid-trace window [2, 2) empty"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_records_a_limit_form_that_does_not_settle_beside_the_conditions():
    # a period-2 family whose normalized identity-weight forms do not settle:
    # c_limit raises, and the four weight conditions are still reported
    family = {"kind": "scaled_periodic", "period": 2,
              "x": {"kind": "constant"}, "y": {"kind": "constant"},
              "X": [[[1, 1], [1, 2]], [[2, 0], [0, 3]]],
              "Y": [[[2, 1], [1, 1]], [[0, 0], [0, 0]]]}
    doc = parse_config({"family": family, "horizon": 2000, "analyses": [
        {"kind": "commutator", "strategy": "identity", "lambda": 0.5}]})
    out = run(doc).results["00_commutator"]
    assert out["limit_form"]["error"] == "NotConvergentError"
    assert out["limit_form"]["message"].startswith("normalized forms do not settle")
    assert set(out["limit_form"]) == {"error", "message"}
    assert list(out["conditions"]) == ["neg_part", "drift", "commutator", "inverse_weight"]
    assert all("verdict" in cond for cond in out["conditions"].values())
    assert out["strategy"] == "identity" and out["all_hold"] is False


def test_run_records_a_log_weight_horizon_without_envelope_terms():
    doc = parse_config({"family": "paper-logweight",
                        "analyses": [{"kind": "log_weight_criterion", "depth": 1},
                                     {"kind": "carleman"}],
                        "horizon": 21})
    rep = run(doc)
    assert rep.results["00_log_weight_criterion"] == {
        "error": "ValueError",
        "message": "horizon 21 leaves no envelope term past n_start = 20"}
    assert "partial_sum" in rep.results["01_carleman"]


def test_run_trajectory_produces_trace_table():
    doc = parse_config({"family": "paper-constant",
                        "analyses": [{"kind": "trajectory", "z": [0, 1],
                                      "alpha": [1, 0, 0, 0]}],
                        "horizon": 50})
    rep = run(doc)
    table = rep.traces["00_trajectory_trajectory"]
    assert table.columns[:3] == ["n", "re_u0", "im_u0"]
    assert table.columns[-3:] == ["norm", "s_n", "residual"]
    assert len(table.rows) == 51


def test_run_reports_exact_asymptotics_and_christoffel_as_computed():
    alphas = [[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]]
    doc = parse_config({"family": {"kind": "scaled_periodic", "period": 1,
                                   "x": {"kind": "power", "exponent": 0.5},
                                   "y": {"kind": "constant", "value": 0.0},
                                   "X": [X_JSON], "Y": [[[0.0, 0.0], [0.0, 0.0]]]},
                        "analyses": [{"kind": "exact_asymptotics", "z": 0.0, "alphas": alphas},
                                     {"kind": "christoffel", "z": 0.0, "alpha": alphas[0]}],
                        "horizon": 2000})
    rep = run(doc)
    fam = scaled_periodic_family(1, PowerWeight(0.5), ConstantWeight(0.0),
                                 [X_OP], [np.zeros((2, 2))])
    lim = extract_periodic_limits(fam, 1, 2000)
    want = exact_asymptotics(fam, lim, 0.0, [np.array(a, dtype=complex) for a in alphas], 2000)
    got = rep.results["00_exact_asymptotics"]
    np.testing.assert_array_equal(got["C"], want.C)
    assert got["per_alpha"] == [{k: d[k] for k in ("g", "weighted_trace_limit", "gap")}
                                for d in want.per_alpha]
    chris = christoffel_limit(fam, want.C, want.phi.trajectory(want.per_alpha[0]["alpha"]))
    g = want.per_alpha[0]["g"]
    assert rep.results["01_christoffel"] == {
        "limit_estimate": chris.limit_estimate, "residual": chris.residual, "g": g,
        "half_g_gap": abs(chris.limit_estimate - g / 2.0)}


def _csv_writer_bytes(tmp_path, columns, rows) -> bytes:
    path = tmp_path / "want.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows(rows)
    return path.read_bytes()


@pytest.mark.parametrize("numbered", [False, True])
def test_table_writer_gives_csv_writer_bytes(tmp_path, numbered):
    cells = [0.0, -0.0, 5e-324, 1e-5, 1e16, 1e150, -1e150, np.inf, -np.inf, np.nan,
             0.1, 1 / 3, 2.0 ** 70, 123456789.0]
    n = 3 * ROW_BLOCK + 5  # blocks, and a last one that is partly filled
    vals = np.array([cells[(i + j) % len(cells)] for i in range(n) for j in range(5)])
    vals = vals.reshape(n, 5)
    mask = np.zeros(vals.shape, dtype=bool)
    for i in (0, 7, ROW_BLOCK - 1, ROW_BLOCK, n - 1):
        mask[i, i % 5] = True
    mask[9] = True  # a row with no defined cell
    columns = ["n"] * numbered + [f"c{j}" for j in range(5)]
    table = Table(columns, vals, mask, numbered=numbered)
    rows = [[i] * numbered + [None if m else v for v, m in zip(r, mr)]
            for i, (r, mr) in enumerate(zip(vals.tolist(), mask.tolist()))]
    assert repr(table.rows) == repr(rows)  # nan != nan
    write_csv(table, tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_bytes() == _csv_writer_bytes(tmp_path, columns, rows)

    ints = np.arange(-3, 9).reshape(4, 3) * 10 ** 15
    write_csv(Table(["a", "b", "c"], ints), tmp_path / "ints.csv")
    assert (tmp_path / "ints.csv").read_bytes() == _csv_writer_bytes(
        tmp_path, ["a", "b", "c"], ints.tolist())


def test_table_writer_refuses_cells_whose_bytes_would_differ(tmp_path):
    mixed = [[0.5, 2, "strictly_positive"], [-1.0, 3, ""]]
    table = Table(["lo", "n", "sign"], np.array(mixed, dtype=object))
    write_csv(table, tmp_path / "ok.csv")
    assert (tmp_path / "ok.csv").read_bytes() == _csv_writer_bytes(
        tmp_path, table.columns, mixed)
    write_csv(Table(["lo", "hi", "sign"], np.empty((0, 3), dtype=object)), tmp_path / "e.csv")
    assert (tmp_path / "e.csv").read_bytes() == b"lo,hi,sign\r\n"
    for cell in ("a,b", 'say "x"', "line\nbreak", "cr\r"):
        with pytest.raises(ValueError, match="quoting"):
            write_csv(Table(["a", "b"], np.array([[1.0, cell]], dtype=object)),
                      tmp_path / "bad.csv")
    with pytest.raises(ValueError, match="quoting"):
        write_csv(Table(["a", "b,c"], np.zeros((1, 2))), tmp_path / "bad.csv")
    with pytest.raises(TypeError, match="not a Python"):
        write_csv(Table(["a", "b"], np.array([[np.float64(0.5), 1.0]], dtype=object)),
                  tmp_path / "bad.csv")
    with pytest.raises(ValueError, match="two columns"):
        write_csv(Table(["a"], np.zeros((1, 1))), tmp_path / "bad.csv")


# ---- CLI ----


def test_cli_lists_fixtures(capsys):
    assert main(["fixtures", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("paper-constant", "paper-unbounded", "paper-blockrepeat",
                 "paper-logweight"):
        assert name in out


def test_cli_calls_in_one_process_write_what_a_fresh_parser_writes(tmp_path, capsys):
    # the parser is built once per process, so parsing must leave it as it was,
    # also after argparse exits on a bad command line or on --help
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "paper-constant",
                               "analyses": [{"kind": "carleman"}], "horizon": 300}))
    calls = [
        ["scan", "--family", "paper-constant", "--range=-5,10", "--grid", "11",
         "--horizon", "300"],
        ["scan", "--range=0,1"],
        ["trajectory", "--family", "paper-unbounded", "--z", "0.5", "--alpha", "1,0,0,1j",
         "--horizon", "300", "--seed", "4"],
        ["fixtures", "list"],
        ["analyze", str(cfg), "--format", "xml"],
        ["analyze", str(cfg)],
        ["trajectory", "--help"],
        ["analyze", str(cfg), "--horizon", "200"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(call(argv))
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 2, 0, 0, 0]
    for order in (calls, calls[::-1], calls):
        assert [call(argv) for argv in order] == [fresh[calls.index(a)] for a in order]


def test_cli_analyze_missing_file_is_io_error(capsys):
    assert main(["analyze", "/nonexistent/nope.json"]) == 3
    assert "error" in capsys.readouterr().err


def test_cli_analyze_invalid_json_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["analyze", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


# Files that json.loads refuses with a plain ValueError (an integer literal
# past Python's 4300-digit conversion limit, bytes that are not UTF-8) or a
# RecursionError
UNDECODABLE = {
    "long-integer": b'{"family": "paper-constant", "analyses": [{"kind": "carleman"}], '
                    b'"seed": ' + b"9" * 5000 + b"}",
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
    "not-utf8": b'{"family": "paper-constant", "analyses": [{"kind": "carleman"}], '
                b'"note": "\xff"}',
}


@pytest.mark.parametrize("doc", sorted(UNDECODABLE))
@pytest.mark.parametrize("command", ["analyze", "scan"])
def test_cli_undecodable_json_is_config_error(tmp_path, capsys, command, doc):
    path = tmp_path / "doc.json"
    path.write_bytes(UNDECODABLE[doc])
    argv = ([command, str(path)] if command == "analyze"
            else [command, "--family", str(path), "--range=0,1"])
    assert main(argv) == 2
    where = "$" if command == "analyze" else str(path)
    assert f"error: {where}: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
@pytest.mark.parametrize("command", ["analyze", "scan"])
def test_cli_reads_json_files_in_every_json_encoding(tmp_path, capsys, command, encoding):
    """Config and family files are read as bytes, and json.loads detects
    UTF-8 (a BOM included), UTF-16 and UTF-32."""
    doc = ({"family": "paper-constant", "analyses": [{"kind": "carleman"}], "horizon": 50}
           if command == "analyze" else "paper-constant")
    reports = []
    for enc in ("utf-8", encoding):
        path = tmp_path / f"{enc}.json"
        path.write_text(json.dumps(doc), encoding=enc)
        argv = ([command, str(path)] if command == "analyze"
                else [command, "--family", str(path), "--range=0,1", "--horizon", "50"])
        assert main(argv) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_cli_scan_writes_report(tmp_path, capsys):
    out = tmp_path / "scanout"
    rc = main(["scan", "--family", "paper-constant", "--range=-5,10",
               "--horizon", "2000", "--out-dir", str(out)])
    assert rc == 0
    rep = json.loads((out / "report.json").read_text())
    ivs = rep["results"]["00_lambda_scan"]["intervals"]
    assert len(ivs) == 1
    assert ivs[0]["sign"] == "strictly_positive"
    assert abs(ivs[0]["lo"] - (-3.0 + np.sqrt(13.0)) / 2.0) < 1e-6
    assert abs(ivs[0]["hi"] - (9.0 - np.sqrt(37.0)) / 2.0) < 1e-6


def test_cli_scan_bad_arguments(capsys):
    assert main(["scan", "--family", "paper-constant", "--range", "1"]) == 2
    assert main(["scan", "--family", "nope.json", "--range=0,1"]) == 3


def test_cli_trajectory_csv_bundle(tmp_path, capsys):
    out = tmp_path / "trajout"
    rc = main(["trajectory", "--family", "paper-constant", "--z", "0,1",
               "--alpha", "1,0,0,0", "--horizon", "40", "--out-dir", str(out),
               "--format", "csv-bundle"])
    assert rc == 0
    assert (out / "report.json").exists()
    lines = (out / "00_trajectory_trajectory.csv").read_text().splitlines()
    assert lines[0] == "n,re_u0,im_u0,re_u1,im_u1,norm,s_n,residual"
    assert len(lines) == 42  # header + u_0 .. u_40


@pytest.mark.parametrize("argv,flag", [
    (["trajectory", "--family", "paper-constant", "--z", "x", "--alpha", "1,0,0,0"], "--z"),
    (["scan", "--family", "paper-constant", "--range=a,b"], "--range"),
    (["trajectory", "--family", "paper-constant", "--z", "0.5", "--alpha", "1,q,0,0"],
     "--alpha"),
    (["scan", "--family", "paper-constant", "--range=0,1", "--seed", "-1"], "--seed"),
    (["trajectory", "--family", "paper-constant", "--z", "0.5", "--alpha", "1,0,0,0",
      "--horizon", "1"], "--horizon"),
    (["trajectory", "--family", "paper-constant", "--z", "0.5", "--alpha", "1,0,0"],
     "--alpha"),
    (["scan", "--family", "paper-constant", "--range=0,1", "--grid", "1"], "--grid"),
    (["scan", "--family", "paper-constant", "--range=0,1", "--period", "0"], "--period"),
])
def test_cli_flags_are_typed_like_config_keys(argv, flag, capsys):
    assert main(argv) == 2
    assert f"error: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,err", [
    (["trajectory", "--z", "0.5", "--alpha", "1,inf,0,0"],
     "--alpha[1]: expected a finite real number or an [re, im] pair"),
    (["trajectory", "--z", "1,2,3", "--alpha", "1,0,0,0"], "--z: expected re or re,im"),
    (["trajectory", "--z", "1e400", "--alpha", "1,0,0,0"],
     "--z: expected a finite real number or an [re, im] pair"),
    (["scan", "--range=5,1"], "--range: expected lo < hi"),
    (["scan", "--range=inf,1"], "--range[0]: expected a finite real number"),
])
def test_cli_flag_errors_read_exactly(argv, err, capsys):
    assert main([argv[0], "--family", "paper-constant", *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n" and captured.out == ""


def test_ranges_whose_width_overflows_are_refused(capsys):
    # hi - lo = inf would overflow the scan grid
    assert main(["scan", "--family", "paper-constant", "--range=-1e308,1e308"]) == 2
    assert capsys.readouterr().err == "error: --range: expected a finite width hi - lo\n"
    for analysis in ({"kind": "lambda_scan", "range": [-1e308, 1e308]},
                     {"kind": "indeterminacy", "z_samples": [1], "range": [-1e308, 1e308]}):
        with pytest.raises(ParseError) as err:
            parse_config({"family": "paper-constant", "analyses": [{"kind": "carleman"}, analysis]})
        assert str(err.value) == "$.analyses[1].range: expected a finite width hi - lo"
    doc = parse_config({"family": "paper-constant",
                        "analyses": [{"kind": "lambda_scan", "range": [-1e307, 1e307]}]})
    assert doc.analyses[0].params["range"] == (-1e307, 1e307)


def test_cli_prints_json_without_out_dir(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "paper-constant",
                               "analyses": [{"kind": "carleman"}],
                               "horizon": 400}))
    assert main(["analyze", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool"]["name"] == "blockjacobi"
    assert "00_carleman" in doc["results"]
    assert "wall_times" not in doc


def test_cli_seeded_runs_agree(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "paper-constant",
                               "analyses": [{"kind": "band", "z": 1.0,
                                             "alphas": {"random": 2}}],
                               "horizon": 400}))
    outs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert main(["analyze", str(cfg), "--seed", "3",
                     "--out-dir", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        doc.pop("wall_times")
        outs.append(doc)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("kind", ["exact_asymptotics", "christoffel"])
def test_cli_rejects_non_real_z_where_the_theory_is_real(tmp_path, capsys, kind):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "paper-constant",
                               "analyses": [{"kind": "carleman"},
                                            {"kind": kind, "z": [0.5, 0.25]}],
                               "horizon": 400}))
    assert main(["analyze", str(cfg)]) == 2
    assert "$.analyses[1].z" in capsys.readouterr().err
    # a real z written as an [re, im] pair is accepted
    doc = parse_config({"family": "paper-constant", "analyses": [{"kind": kind, "z": [0.5, 0]}]})
    assert doc.analyses[0].params["z"] == 0.5


@pytest.mark.parametrize("out_dir", [False, True])
def test_cli_turan_convergence_report_serialises(tmp_path, capsys, out_dir):
    # rate_bound_ok comes out of numpy comparisons; the report must still be
    # plain JSON with a real boolean there, printed or written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "paper-constant",
                               "analyses": [{"kind": "turan_convergence", "z": 1.0,
                                             "alphas": {"random": 2}}],
                               "horizon": 400}))
    argv = ["analyze", str(cfg)]
    if out_dir:
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    if out_dir:
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
    else:
        doc = json.loads(capsys.readouterr().out)
    result = doc["results"]["00_turan_convergence"]
    assert "error" not in result
    assert isinstance(result["rate_bound_ok"], bool)
    assert len(result["g"]) == 2


def test_cli_trajectory_past_an_overflow_cut_has_a_finite_norm(tmp_path):
    """The sample stored past the overflow cut is (-1e300, 1e300): its norm
    is finite although its squared entries overflow, and no step warns;
    nor do the band and the l2 diagnostic on the same trajectory."""
    import math
    import warnings

    from blockjacobi.fixtures import paper_constant
    from blockjacobi.recurrence import l2_tail_diagnostic, propagate
    from blockjacobi.turan import asymptotic_band

    out = tmp_path / "o"
    alpha = np.array([1, 0, 0, 1], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["trajectory", "--family", "paper-constant", "--z", "1e300",
                   "--alpha", "1,0,0,1", "--horizon", "50", "--out-dir", str(out),
                   "--format", "csv-bundle"])
        band = asymptotic_band(paper_constant(), 1, 1e300, [alpha], 50, burn_in=1)
        l2 = l2_tail_diagnostic(propagate(paper_constant(), 1e300, alpha, 50))
    assert rc == 0
    rows = list(csv.reader((out / "00_trajectory_trajectory.csv").read_text().splitlines()))
    assert len(rows) == 4
    assert rows[3][:5] == ["2", "-1e+300", "0.0", "1e+300", "0.0"]
    assert float(rows[3][5]) == pytest.approx(math.sqrt(2) * 1e300, rel=1e-15)
    assert rows[3][6:] == ["", ""]
    assert band.per_alpha[0].overflow and math.isfinite(band.c1)
    assert l2.evidence["overflow"] and l2.partial_sum == math.inf


def test_cli_trajectory_past_an_overflow_cut_with_no_representable_norm(tmp_path):
    """The sample stored past the overflow cut at z = 1e308 + 1e308i has
    entries of magnitude 1e308 in all four cells: its norm is not a float,
    so the cell reads inf, and the rescale that finds so does not warn."""
    import warnings

    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["trajectory", "--family", "paper-constant", "--z", "1e308,1e308",
                   "--alpha", "1,0,0,1", "--horizon", "10", "--out-dir", str(out),
                   "--format", "csv-bundle"])
    assert rc == 0
    rows = list(csv.reader((out / "00_trajectory_trajectory.csv").read_text().splitlines()))
    assert rows[0][5] == "norm" and len(rows) == 4
    assert rows[3][:5] == ["2", "-1e+308", "-1e+308", "1e+308", "1e+308"]
    assert rows[3][5] == "inf"
