"""Property test of table typing: `config._matrices` types a well-formed table
in one pass (`_typed_table`) with the bits of the per-entry path
(`_typed_entries`), a table of floats is echoed as a float view of the typed
stack, and every malformed table gets the per-entry error."""

import copy
import math

import numpy as np
import pytest

from blockjacobi import config
from blockjacobi.config import ParseError

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# The largest int that still rounds to a finite float; one more overflows.
FLOAT_EDGE = 2 ** 1024 - 2 ** 970 - 1

# Numbers a table may hold: signed zeros, subnormals, ints past 2**53 (which
# round) and up to the edge of the float range.
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2 ** 53 + 1, -(2 ** 63) - 1, FLOAT_EDGE]),
    st.integers(-2 ** 64, 2 ** 64),
    st.integers(2 ** 53, FLOAT_EDGE),
)
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2)


def entries(form: str, rows: int, cols: int):
    leaf = NUMBERS if form == "real" else PAIRS
    return st.lists(st.lists(leaf, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def tables(draw, max_len: int = 300):
    """A table of up to max_len matrices of one size: all real, all pairs or
    mixed, cycling through a few drawn entries so that long tables are cheap."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    form = draw(st.sampled_from(["real", "pair", "mixed"]))
    entry = (st.sampled_from(["real", "pair"]).flatmap(lambda f: entries(f, rows, cols))
             if form == "mixed" else entries(form, rows, cols))
    pattern = draw(st.lists(entry, min_size=1, max_size=6))
    n = draw(st.integers(len(pattern), max_len))
    return [pattern[k % len(pattern)] for k in range(n)]


def _is_pair(leaf) -> bool:
    return isinstance(leaf, list)


def _numbers(obj) -> list:
    """The numbers of a nested list, in order."""
    return [w for v in obj for w in _numbers(v)] if isinstance(obj, list) else [obj]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(tables())
def test_bulk_and_per_entry_typing_give_the_same_bits(table):
    per_entry = config._typed_entries(table, "$.t")
    typed = config._typed_table(table)
    if len({_is_pair(m[0][0]) for m in table}) == 1:
        bulk, echo = typed
        assert bulk.shape == per_entry.shape and bulk.dtype == per_entry.dtype
        assert bulk.tobytes() == per_entry.tobytes()
        # the echo of a table of floats is a float view of the typed table
        if all(type(v) is float for v in _numbers(table)):
            assert echo.dtype == np.float64 and np.shares_memory(echo, bulk)
            assert echo.tolist() == table
            assert np.array(table).tobytes() == np.ascontiguousarray(echo).tobytes()
        else:
            assert echo is table
    else:  # a mixed table is left to the per-entry path
        assert typed is None
    stack, echo = config._matrices(table, "$.t")
    assert stack.tobytes() == per_entry.tobytes()
    assert echo is table or typed is not None


# Replacements for one number (or one pair) of a table.
BAD_LEAVES = [True, False, None, "1", {"re": 1}, 10 ** 400, -(2 ** 1024), FLOAT_EDGE + 1,
              math.nan, math.inf, -math.inf, [1.0, 2.0, 3.0], [1.0], [], [[1.0, 0.0], 0.0],
              (1.0, 0.0)]


# One number is the defect most often: the other kinds rarely reach the
# conversion and finiteness checks.
DEFECTS = ["part"] * 4 + ["leaf", "empty_row", "long_row", "short_row", "tuple_row",
                          "extra_row", "empty_entry", "scalar_entry"]


def _break(entry, how: str, bad, r: int, c: int, part: int):
    """A copy of entry with one defect at row r, column c."""
    entry = copy.deepcopy(entry)
    if how == "leaf":
        entry[r][c] = bad
    elif how == "part":  # one part of a pair, or the whole real number
        if _is_pair(entry[r][c]):
            entry[r][c][part] = bad
        else:
            entry[r][c] = bad
    elif how == "empty_row":
        entry[r] = []
    elif how == "long_row":
        entry[r].append(entry[r][c])
    elif how == "short_row":
        del entry[r][c]
    elif how == "tuple_row":
        entry[r] = tuple(entry[r])
    elif how == "extra_row":
        entry.append(entry[r])
    elif how == "empty_entry":
        entry = []
    elif how == "scalar_entry":
        entry = bad
    return entry


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(tables(), st.data())
def test_malformed_tables_get_the_per_entry_error(table, data):
    n = len(table)
    if n < 2:
        table, n = table * 2, 2 * n
    i = data.draw(st.integers(1, n - 1), label="entry")
    r = data.draw(st.integers(0, len(table[0]) - 1), label="row")
    c = data.draw(st.integers(0, len(table[0][0]) - 1), label="column")
    how = data.draw(st.sampled_from(DEFECTS), label="defect")
    bad = data.draw(st.sampled_from(BAD_LEAVES), label="bad")
    table = table[:i] + [_break(table[i], how, bad, r, c, data.draw(st.integers(0, 1)))] \
        + table[i + 1:]
    assert config._typed_table(table) is None
    with pytest.raises(ParseError) as per_entry:
        config._typed_entries(table, "$.t")
    with pytest.raises(ParseError) as typed:
        config._matrices(table, "$.t")
    assert (typed.value.path, typed.value.message) == (per_entry.value.path,
                                                       per_entry.value.message)
    assert typed.value.path == f"$.t[{i}]" or typed.value.path.startswith(f"$.t[{i}][")
