"""Property test of the CSV writer's float kernel: on arbitrary floats,
`float_fields` lays out the bytes of Python's repr."""

import pytest

from conftest import repr_mismatches

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_kernel_is_repr_on_hypothesis_floats(values):
    assert repr_mismatches(values) == []
