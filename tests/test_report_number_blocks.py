"""Byte-oracle tests of report number blocks around table.KERNEL_MIN: from
that many numbers on, a finite float64 array is written by the CSV float
kernel (`table.number_text`), each separator put in from a marker byte, and
below it, or with any other leaf, it is written as its list.  A nested list
is never written by the kernel: the report writer's walk writes it entry by
entry, a table whose entries mix numbers with [re, im] pairs included.
Every block must keep the bytes of the two-walk encoder
(`conftest.report_oracle`) either way."""

import gc
import importlib.util
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from blockjacobi import runner
from blockjacobi.config import parse_config
from blockjacobi.runner import AnalysisReport, report_json, run
from blockjacobi.table import KERNEL_MIN, float_fields
from conftest import report_oracle

_SPEC = importlib.util.spec_from_file_location(
    "reprsweep", Path(__file__).resolve().parent.parent / "tools" / "reprsweep.py")
reprsweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reprsweep)


def written(obj) -> str:
    """`obj` through report_json, as the "results" of a report."""
    return report_json(AnalysisReport(tool={}, config={}, results=obj), include_times=False)


def assert_bytes(obj) -> None:
    assert written(obj) == report_oracle({"config": {}, "results": obj, "tool": {}})


@pytest.fixture
def kernel_sizes(monkeypatch) -> list[int]:
    """The number of numbers of each block that table.number_text writes
    from here on, in the order written."""
    sizes = []
    monkeypatch.setattr(runner, "number_text",
                        lambda x, *marks, text_of=runner.number_text:
                        sizes.append(len(x)) or text_of(x, *marks))
    return sizes


def tuples(obj):
    """obj with every list a tuple."""
    return tuple(map(tuples, obj)) if isinstance(obj, list) else obj


def every_exponent(n: int, seed: int = 0) -> list[float]:
    """n finite floats from random bit patterns, the exponent field uniform
    over the finite ones (subnormals included)."""
    x = reprsweep.random_bits(4 * n, seed)
    return x[np.isfinite(x)][:n].tolist()


@pytest.mark.parametrize("n", [KERNEL_MIN - 1, KERNEL_MIN, KERNEL_MIN + 1, 10_007])
def test_blocks_around_the_crossover_keep_their_bytes(n):
    values = every_exponent(n, seed=n)
    assert_bytes(values)
    assert_bytes({"pairs": [values[i:i + 2] for i in range(0, n - 1, 2)]})
    assert_bytes(np.array(values))
    assert_bytes({"pairs": np.array(values[:n // 2 * 2]).reshape(-1, 2)})


@pytest.mark.parametrize("shape", [(KERNEL_MIN,), (KERNEL_MIN // 2, 2), (43, 3, 4),
                                   (KERNEL_MIN // 8, 2, 2, 2), (1, 1, 1, 600)])
def test_blocks_of_every_rank_keep_their_bytes(shape):
    array = np.array(every_exponent(math.prod(shape), seed=len(shape))).reshape(shape)
    block = array.tolist()
    assert_bytes(block)
    assert_bytes(array)
    if len(shape) > 1:
        assert_bytes([tuple(row) for row in block])  # tuples are lists in JSON


def test_edge_floats_keep_their_bytes_where_the_kernel_leaves_them_to_repr():
    x = reprsweep.edge_values(0)
    x = x[np.isfinite(x)]
    buf = np.empty((len(x), 64), dtype=np.uint8)
    other = float_fields(x, buf, np.zeros(buf.shape, dtype=bool))
    ties = x[other].tolist()
    assert len(ties) > KERNEL_MIN  # the 17-digit ties and the values past 1e+-280
    assert_bytes(ties)
    assert_bytes(np.array(ties))
    special = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1e281, 1e-281]
    assert_bytes((special * KERNEL_MIN)[:KERNEL_MIN + 3])
    assert_bytes(np.array((special * KERNEL_MIN)[:KERNEL_MIN + 3]))
    assert_bytes(x.tolist())
    assert_bytes(x)


@pytest.mark.parametrize("ints", [
    [-2 ** 63, 2 ** 63 - 1, 0, -1, 10 ** 18, -10 ** 19 + 1],
    [-2 ** 63, 10 ** 30, 7],  # past int64: repr
    [2 ** 63, -1],
])
def test_int_blocks_keep_their_bytes(ints):
    block = (ints * KERNEL_MIN)[:KERNEL_MIN + 1]
    assert_bytes(block)
    assert_bytes([block[i:i + 3] for i in range(0, len(block) - 2, 3)])


def test_ints_mixed_with_floats_keep_their_bytes_and_their_types():
    floats = every_exponent(KERNEL_MIN)
    mixed = [v if i % 7 else i for i, v in enumerate(floats)]
    assert_bytes(mixed)
    text = written(mixed)
    assert "\n    7,\n" in text and "\n    7.0,\n" not in text


@pytest.mark.parametrize("bad", [True, math.nan, math.inf, -math.inf, None, "1.0"])
def test_a_block_with_another_leaf_keeps_its_bytes(bad):
    rows = np.array(every_exponent(2 * KERNEL_MIN)).reshape(-1, 2).tolist()
    rows[-1][1] = bad
    assert_bytes(rows)


def test_a_ragged_block_keeps_its_bytes():
    rows = np.array(every_exponent(2 * KERNEL_MIN)).reshape(-1, 2).tolist()
    for last in ([0.5], [0.5, 1.5, 2.5], [[0.5, 1.5], 2.5], []):
        assert_bytes(rows[:-1] + [last])
    ragged = [[[1.0 + n, [1.0, 0.5]], [1, 2.0]] for n in range(50)]
    assert_bytes({"block": [[1.0, 2], [3.0, 4.0]], "ragged": ragged})


def test_the_kernel_serves_large_rectangular_number_blocks_only(kernel_sizes):
    floats = every_exponent(2 * KERNEL_MIN)
    pairs = np.array(floats).reshape(-1, 2).tolist()
    blocks = {"below": floats[:KERNEL_MIN - 1], "at": floats[:KERNEL_MIN],
              "ints": list(range(KERNEL_MIN)), "pairs": pairs,
              "mixed": [1] + floats[1:], "small": [[1.5, 2.5]] * 3,
              "ragged": pairs[:-1] + [[0.5]], "nan": pairs[:-1] + [[0.5, math.nan]],
              "bool": pairs[:-1] + [[0.5, True]], "big int": [2 ** 63] + list(range(KERNEL_MIN))}
    assert_bytes(blocks)
    assert kernel_sizes == []  # lists, whatever their size, are walked entry by entry
    arrays = {"below": np.array(floats[:KERNEL_MIN - 1]), "at": np.array(floats[:KERNEL_MIN]),
              "pairs": np.array(pairs), "ints": np.arange(KERNEL_MIN),
              "float32": np.linspace(-1.0, 1.0, KERNEL_MIN, dtype=np.float32),
              "nan": np.array(floats[:KERNEL_MIN - 1] + [math.nan])}
    assert_bytes(arrays)
    assert sorted(kernel_sizes) == [KERNEL_MIN, 2 * KERNEL_MIN]


def hermitian_tables(n: int, seed: int = 0) -> list:
    """n Hermitian 2x2 tables as a config writes b_n with a real diagonal:
    real numbers on the diagonal, [re, im] pairs off it (6 numbers each)."""
    x = every_exponent(4 * n, seed)
    return [[[x[i], [x[i + 1], x[i + 2]]], [[x[i + 1], -x[i + 2]], x[i + 3]]]
            for i in range(0, 4 * n, 4)]


@pytest.mark.parametrize("n", [KERNEL_MIN // 6 - 1, KERNEL_MIN // 6 + 1, 2000])
def test_tables_mixing_numbers_and_pairs_keep_their_bytes(n, kernel_sizes):
    tables = hermitian_tables(n, seed=n)
    assert_bytes({"b": tables, "ints": [[1, [2, 3]], [[2, -3], 4]] * n})
    assert kernel_sizes == []


@pytest.mark.parametrize("n", [KERNEL_MIN // 6 - 1, KERNEL_MIN // 6 + 1])
def test_mixed_tables_with_a_non_finite_or_ragged_entry_keep_their_bytes(n):
    for bad in (math.nan, math.inf, [0.5, 1.5, 2.5], [0.5], [0.5, True]):
        tables = hermitian_tables(n, seed=n)
        tables[-1][1][0] = bad
        assert_bytes(tables)
    tables = hermitian_tables(n, seed=n)
    tables[-1][1] = tables[-1][1][:1]  # a row one entry short
    assert_bytes(tables)


def general_table(seed: int) -> list:
    """A 2x2 table of [re, im] pairs only, as a config writes a complex a_n."""
    x = every_exponent(8, seed)
    return [[x[0:2], x[2:4]], [x[4:6], x[6:8]]]


@pytest.mark.parametrize("ends", ["first", "last", "first and last"])
@pytest.mark.parametrize("n", [KERNEL_MIN // 6 + 1, 2000])
def test_mixed_blocks_that_start_or_end_with_a_pair_keep_their_bytes(n, ends, kernel_sizes):
    """Hermitian tables with a real diagonal, after or before a table of
    pairs, so that the block's first or last entry is a pair."""
    head = [general_table(1)] if "first" in ends else []
    tail = [general_table(2)] if "last" in ends else []
    tables = head + hermitian_tables(n, seed=n) + tail
    assert_bytes(tables)
    assert_bytes({"b": tables, "n": n})
    assert kernel_sizes == []


def random_mixed(shape: tuple, seed: int) -> list:
    """A block of that shape whose entries are numbers or, at random,
    [re, im] pairs."""
    pairs = (np.random.default_rng(seed).random(math.prod(shape)) < 0.5).tolist()
    x = iter(every_exponent(2 * len(pairs), seed))
    entries = np.empty(len(pairs), dtype=object)
    entries[:] = [[next(x), next(x)] if p else next(x) for p in pairs]
    return entries.reshape(shape).tolist()


@pytest.mark.parametrize("shape", [(KERNEL_MIN,), (43, 3, 4), (5, 1, 7, 2, 9)])
def test_mixed_blocks_with_pairs_anywhere_keep_their_bytes(shape, kernel_sizes):
    """Pairs at random entries, so that every kind of number meets every
    count of closing levels, with and without a pair next."""
    block = random_mixed(shape, seed=len(shape))
    assert_bytes(block)
    assert_bytes(tuples(block))
    assert kernel_sizes == []


@pytest.mark.parametrize("shape", [(KERNEL_MIN,), (KERNEL_MIN // 2, 2), (43, 3, 4),
                                   (KERNEL_MIN // 8, 2, 2, 2), (2, 3, 1, 5, 18)])
def test_float64_arrays_of_ranks_one_to_five_are_written_by_the_kernel(shape, kernel_sizes):
    floats = np.array(every_exponent(math.prod(shape), seed=len(shape))).reshape(shape)
    assert_bytes(floats)
    assert_bytes({"block": [floats]})  # one level deeper
    assert_bytes(np.asfortranarray(floats))
    assert kernel_sizes == [math.prod(shape)] * 3


@pytest.mark.parametrize("shape", [(KERNEL_MIN,), (KERNEL_MIN // 2, 2), (43, 3, 4),
                                   (KERNEL_MIN // 8, 2, 2, 2), (2, 3, 1, 5, 18)])
def test_int64_and_float_lists_of_ranks_one_to_five_are_written_as_lists(shape, kernel_sizes):
    rng = np.random.default_rng(len(shape))
    ints = rng.integers(-2 ** 63, 2 ** 63 - 1, size=shape, endpoint=True)
    ints //= 10 ** rng.integers(0, 19, size=shape)  # every digit count
    floats = np.array(every_exponent(math.prod(shape), seed=len(shape))).reshape(shape)
    for block in (ints.tolist(), floats.tolist()):
        assert_bytes(block)
        assert_bytes(tuples(block))
        assert_bytes({"block": [block]})  # one level deeper
    assert_bytes(ints)  # an int64 array is written as its list
    assert kernel_sizes == []


@pytest.mark.parametrize("ones, sizes", [(21, [KERNEL_MIN]), (22, [])])
def test_float64_arrays_of_rank_30_and_31_keep_their_bytes(ones, sizes, kernel_sizes):
    """A rank-r array needs r + 1 separators: rank 30 takes all 31 of
    table.MARKS and the kernel, rank 31 one more and the list path."""
    shape = (KERNEL_MIN // 2 ** 8,) + (2,) * 8 + (1,) * ones
    floats = np.array(every_exponent(KERNEL_MIN, seed=ones)).reshape(shape)
    assert_bytes(floats)
    assert kernel_sizes == sizes


def test_a_tabulated_echo_has_no_control_byte_but_the_line_feed(kernel_sizes):
    """A tabulated family with complex a_n written as pairs and Hermitian
    b_n with a real diagonal: a's echo, an array, is written by the kernel
    and b's, a mixed list, entry by entry, and no mark is left in the report."""
    def entry(n):
        e = 0.1 * math.exp(-n / 10)
        return ([[[2.0 + e, e], [0.5, -e]], [[0.25, e / 3], [1.5 - e, 0.0]]],
                [[2.0 + e, [0.5, e]], [[0.5, -e], 1.0 - e / 7]])

    n = KERNEL_MIN // 6 + 10
    family = {"kind": "tabulated", "a": [entry(k)[0] for k in range(n)],
              "b": [entry(k)[1] for k in range(n)]}
    report = run(parse_config({"family": family, "horizon": 50,
                               "analyses": [{"kind": "validate"}, {"kind": "carleman"}]}))
    text = report_json(report, include_times=False)
    assert text == report_oracle(report.to_json_dict(include_times=False))
    assert kernel_sizes == [8 * n]
    assert set(text.encode()) & set(range(0x20)) == {ord("\n")}


EDGES = [-0.0, 5e-324, 1e300]


def echo_tables(count: int, form: str, seed: int) -> tuple[list, list]:
    """Two tables of 2x2 entries, about `count` numbers each: "real"
    numbers, [re, im] "pairs" everywhere, "mixed" (a real diagonal, pairs
    off it) or "int" (reals, one of them the int 1).  Random numbers of
    modulus below 1 on a dominant diagonal, with -0.0, 5e-324 and 1e300 in
    the last entry."""
    per = {"real": 4, "int": 4, "pairs": 8, "mixed": 6}[form]
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(2):
        table = []
        for k in range(count // per):
            x = rng.uniform(-1.0, 1.0, 8).tolist()
            if k == count // per - 1:
                x[1:4] = EDGES
            m = [[[3.0 + x[0], x[4]], [x[1], x[5]]], [[x[2], x[6]], [3.0 + x[3], x[7]]]]
            if form in ("real", "int"):
                m = [[z[0] for z in row] for row in m]
            elif form == "mixed":
                m[0][0], m[1][1] = m[0][0][0], m[1][1][0]
            table.append(m)
        tables.append(table)
    if form == "int":
        tables[0][0][0][1] = 1
    return tables[0], tables[1]


def echo_family(kind: str, a: list, b: list) -> dict:
    if kind == "tabulated":
        return {"kind": "tabulated", "a": a, "b": b}
    return {"kind": "scaled_periodic", "period": len(a),
            "x": {"kind": "constant", "value": 1.0}, "y": {"kind": "constant", "value": 0.5},
            "X": a, "Y": b}


@pytest.mark.parametrize("kind", ["tabulated", "scaled_periodic"])
@pytest.mark.parametrize("form", ["real", "pairs", "int", "mixed"])
@pytest.mark.parametrize("step", [-1, 0, 1])
def test_an_echoed_table_keeps_the_bytes_of_the_raw_family(kind, form, step):
    """Tables of KERNEL_MIN numbers, one entry fewer or one more: the report
    of the parsed family is the oracle's of the report that holds the raw
    family, and parsing leaves the caller's document as it was."""
    per = {"real": 4, "int": 4, "pairs": 8, "mixed": 6}[form]
    a, b = echo_tables(KERNEL_MIN + step * per, form, seed=per + step)
    family = echo_family(kind, a, b)
    doc = {"family": family, "horizon": 2, "analyses": [{"kind": "validate", "upto": 1}]}
    before = json.dumps(doc)
    report = run(parse_config(doc))
    assert json.dumps(doc) == before
    assert doc["family"] is family and family["a" if kind == "tabulated" else "X"] is a
    raw = report.to_json_dict(include_times=False)
    raw["config"] = {**raw["config"], "family": family}
    text = report_json(report, include_times=False)
    assert text == report_oracle(raw)
    leaf = json.loads(text)["config"]["family"]["a" if kind == "tabulated" else "X"][0][0][1]
    assert type(leaf) is {"real": float, "int": int}.get(form, list)


def test_a_tabulated_echo_is_written_from_the_family_tables(kernel_sizes):
    """Real entries in a and pairs in b, each table above KERNEL_MIN numbers:
    number_text gets each once, and each echoed array is a view of the
    family's own table."""
    a, _ = echo_tables(KERNEL_MIN + 4, "real", seed=1)
    _, b = echo_tables(2 * len(a) * 4, "pairs", seed=2)
    family = {"kind": "tabulated", "a": a, "b": b}
    config = parse_config({"family": family, "horizon": 2,
                           "analyses": [{"kind": "validate", "upto": 1}]})
    report = run(config)
    raw = report.to_json_dict(include_times=False)
    raw["config"] = {**raw["config"], "family": family}
    assert report_json(report, include_times=False) == report_oracle(raw)
    assert kernel_sizes == [4 * len(a), 8 * len(b)]
    fam, echo = config.family.family, report.config["family"]
    assert np.shares_memory(echo["a"], fam._table_A)
    assert np.shares_memory(echo["b"], fam._table_B)


def test_a_parsed_config_keeps_no_list_of_its_document():
    """An all-float tabulated table is echoed from its parse's arrays, so
    once parsed the document's family and its a and b lists are held by
    the caller alone."""
    family = {"kind": "tabulated",
              **dict(zip("ab", echo_tables(KERNEL_MIN, "real", seed=3)))}
    config = parse_config({"family": family, "horizon": 2,
                           "analyses": [{"kind": "validate", "upto": 1}]})
    gc.collect()
    for key in "ab":
        assert gc.get_referrers(family[key]) == [family]
        assert isinstance(config.family.echo[key], np.ndarray)
    assert all(inspect.isframe(r) for r in gc.get_referrers(family))
