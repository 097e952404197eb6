"""Property test of report number blocks whose sizes straddle
table.KERNEL_MIN: floats, ints and both mixed, of rank 1 to 4, with now and
then a leaf that sends the block entry by entry, keep the bytes of the
two-walk encoder; a block of numbers also as a float64 array, the form the
float kernel writes (its ints made floats)."""

import math

import numpy as np
import pytest

from blockjacobi.runner import AnalysisReport, report_json
from blockjacobi.table import KERNEL_MIN
from conftest import report_oracle

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

LEAVES = {
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "int": st.integers(-2 ** 63, 2 ** 63 - 1),
    "mixed": st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers()),
}
OTHERS = st.sampled_from([True, math.nan, math.inf, None, 2 ** 63, "x"])


@st.composite
def blocks(draw):
    """A nested list of n numbers, n within 16 of KERNEL_MIN, and its rank."""
    inner = draw(st.lists(st.integers(1, 4), max_size=3))
    size = math.prod(inner)
    rows = draw(st.integers(max(1, (KERNEL_MIN - 16) // size), (KERNEL_MIN + 16) // size))
    leaves = draw(st.lists(LEAVES[draw(st.sampled_from(sorted(LEAVES)))],
                           min_size=rows * size, max_size=rows * size))
    if draw(st.integers(0, 4)) == 0:
        leaves[draw(st.integers(0, len(leaves) - 1))] = draw(OTHERS)
    for dim in reversed(inner):
        leaves = [leaves[i:i + dim] for i in range(0, len(leaves), dim)]
    return leaves


# a block near the crossover is large by construction
@settings(derandomize=True, database=None, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(blocks())
def test_blocks_across_the_crossover_keep_their_bytes(block):
    forms = [block]
    leaves = np.array(block, dtype=object)
    if all(type(v) is float or type(v) is int and abs(v) < 2 ** 64 for v in leaves.flat):
        forms.append(leaves.astype(np.float64))
    for form in forms:
        report = AnalysisReport(tool={}, config={}, results={"block": form})
        assert report_json(report, include_times=False) == report_oracle(
            {"config": {}, "results": {"block": form}, "tool": {}})
