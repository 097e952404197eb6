"""Property: the hermiticity outcomes equal a direct np.linalg.svd formula.

On stacks of d x d matrices (d = 2, 3, 4) of norm 1e-3 .. 1e6, some
exactly Hermitian and the others with a defect ||x - x^*|| placed just below
or just above HERMITICITY_RTOL * max(1, ||x||): `validate_family` reports
as non-Hermitian b_n exactly the matrices the formula says offend,
`require_hermitian` raises for the first of them with the formula's
message bytes (and passes a stack with none), and `herm_defect` of the
stack equals that of each single matrix bit for bit (and, for d > 2, where
both take LAPACK's values, the formula's)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from blockjacobi.coeffs import tabulated_family, validate_family  # noqa: E402
from blockjacobi.opcore import (  # noqa: E402
    HERMITICITY_RTOL,
    NotHermitianError,
    adj,
    herm_defect,
    require_hermitian,
)

# The defect's distance from the allowance, relative: far above the rounding
# of x = H + c A at ||H|| = 1e6 (about 1e-6 of the defect).
SIDE = 1e-3


def _largest(x):
    return np.linalg.svd(x, compute_uv=False)[..., 0]


def _stack(d: int, norms: list[float], kinds: list[int], seed: int) -> np.ndarray:
    """x_k = H_k + c_k A_k: H_k Hermitian of norm norms[k], A_k
    anti-Hermitian with ||A_k - A_k^*|| = 1, and c_k 0 (kind 0) or the
    allowance times 1 - SIDE (kind 1) or 1 + SIDE (kind 2)."""
    rng = np.random.default_rng(seed)
    out = []
    for s, kind in zip(norms, kinds):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (m + adj(m)) / 2
        h = h * (s / _largest(h))
        x = h
        if kind:
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            a = (m - adj(m)) / 2
            a = a / _largest(a - adj(a))
            c = HERMITICITY_RTOL * max(1.0, s) * (1 - SIDE if kind == 1 else 1 + SIDE)
            x = h + c * a
        out.append(x)
    return np.array(out)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 4]),
       st.lists(st.tuples(st.floats(-3.0, 6.0), st.integers(0, 2)), min_size=1, max_size=12),
       st.integers(0, 2 ** 32 - 1))
def test_hermiticity_outcomes_are_the_svd_formula(d, cells, seed):
    norms, kinds = [10.0 ** e for e, _ in cells], [k for _, k in cells]
    x = _stack(d, norms, kinds, seed)
    defect = _largest(x - adj(x))
    allowance = HERMITICITY_RTOL * np.maximum(1.0, _largest(x))
    offends = defect > allowance
    assert offends.tolist() == [k == 2 for k in kinds]  # the placement holds

    fam = tabulated_family(np.broadcast_to(2.0 * np.eye(d), x.shape), x)
    assert [v.index for v in validate_family(fam, range(len(x)))
            if v.kind == "non_hermitian_b"] == np.flatnonzero(offends).tolist()

    if offends.any():
        k = int(np.argmax(offends))
        with pytest.raises(NotHermitianError) as err:
            require_hermitian(x)
        assert str(err.value) == ("matrix deviates from self-adjointness by %.3e (allowed %.3e)"
                                  % (defect[k], allowance[k]))
    else:
        require_hermitian(x)

    got = herm_defect(x)
    singles = np.array([herm_defect(m) for m in x])
    assert got.tobytes() == singles.tobytes()
    assert got[np.array(kinds) == 0].tolist() == [0.0] * kinds.count(0)
    if d > 2:
        assert got.tobytes() == defect.tobytes()
    else:  # the 2x2 closed form, within a few ulps of LAPACK
        assert np.allclose(got, defect, rtol=1e-13, atol=0.0)
