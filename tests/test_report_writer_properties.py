"""Property test of the report writer: on arbitrary nested values,
`runner.report_json` gives the bytes of the two-walk encoder it replaces."""

import math

import numpy as np
import pytest

from blockjacobi.runner import AnalysisReport, report_json
from conftest import report_oracle as oracle

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402


def written(obj) -> str:
    """`obj` through report_json, as the "results" of a report."""
    return report_json(AnalysisReport(tool={}, config={}, results=obj), include_times=False)


# Leaves of every kind the writer meets: Python and numpy numbers (ints past
# the float range included), strings (non-ASCII included), and arrays of
# every dtype the program emits, 0-size ones included.  Rectangular number
# lists, now and then holding a bool or non-finite float, are walked entry
# by entry like any other list.
REALS = st.one_of(
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 2.5e-310, 1e308]))
INTS = st.one_of(st.integers(), st.just(-10 ** 400))
SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
LEAVES = st.one_of(
    REALS, INTS, st.booleans(), st.none(), st.text(),
    st.builds(complex, REALS, REALS), st.builds(complex, REALS, st.just(0.0)),
    REALS.map(np.float64), st.booleans().map(np.bool_),
    hnp.arrays(st.sampled_from([np.float64, np.complex128, np.int64, np.bool_]), SHAPES),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=4, max_side=3),
               elements=REALS).map(np.ndarray.tolist),
    st.lists(st.one_of(REALS, INTS, st.booleans()), min_size=1, max_size=5),
    st.lists(st.lists(st.one_of(REALS, INTS), min_size=2, max_size=2), min_size=1, max_size=3),
)
VALUES = st.recursive(LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.lists(st.lists(kids, min_size=2, max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=4), kids, max_size=4),
), max_leaves=24)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(VALUES)
@example([[1.0, 2.0], np.zeros((2, 2))])  # ragged in a way numpy refuses to hold
def test_arbitrary_values_keep_their_bytes(value):
    assert written(value) == oracle({"config": {}, "results": value, "tool": {}})
