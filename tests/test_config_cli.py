"""Tests for configuration parsing, the analysis runner, and the CLI."""

import csv
import json
import re

import numpy as np
import pytest

from blockjacobi.cli import main
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
