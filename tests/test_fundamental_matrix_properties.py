"""Property: for random starts alpha, the trajectory phi alpha read from the
fundamental matrix is the trajectory that `propagate` computes from alpha,
to TOL relative to its largest entry (inside the band, where solutions stay
bounded, as in test_fundamental_matrix)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from blockjacobi.fixtures import paper_constant, sqrt_growth  # noqa: E402
from blockjacobi.recurrence import fundamental_matrix, propagate  # noqa: E402

TOL = 1e-12
PROPERTY_H = 300
PROPERTY_CASES = {"paper-constant": (paper_constant(), 0.75), "sqrt-growth": (sqrt_growth(), 0.0)}
PROPERTY_PHI = {name: fundamental_matrix(fam, z, PROPERTY_H)
                for name, (fam, z) in PROPERTY_CASES.items()}


@settings(derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(PROPERTY_CASES)),
       st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
def test_phi_alpha_is_the_direct_trajectory(name, parts):
    v = np.array(parts[:4]) + 1j * np.array(parts[4:])
    assume(np.linalg.norm(v) > 1e-6)
    fam, z = PROPERTY_CASES[name]
    got = PROPERTY_PHI[name].trajectory(v).u
    want = propagate(fam, z, v, PROPERTY_H).u
    assert np.abs(got - want).max() <= TOL * np.abs(want).max()
