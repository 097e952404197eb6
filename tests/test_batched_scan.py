"""The batched limit forms and the lockstep definiteness scan against
one-point oracles.

limit_block and limit_form of an array of parameters are compared bit for bit
with the stack of their scalar calls, and lambda_scan with a sequential scan
written here: one classification per grid point, then each run boundary
bisected on its own, midpoint by midpoint.  The scan's edge cases (runs at
the ends of the grid, a positive run next to a negative one, edges already
narrower than ENDPOINT_TOL, a non-Hermitian midpoint) are pinned on
piecewise constant callables.
"""

import numpy as np
import pytest

from blockjacobi import fixtures
from blockjacobi.opcore import (
    DEFINITENESS_EPS,
    Definiteness,
    NotHermitianError,
    classify_definiteness,
)
from blockjacobi.turan import (
    ENDPOINT_TOL,
    definiteness_scan,
    extract_periodic_limits,
    lambda_scan,
    limit_block,
    limit_form,
)

FIXTURES = {
    "paper-constant": fixtures.paper_constant,
    "paper-unbounded": fixtures.paper_unbounded,
    "paper-blockrepeat": fixtures.paper_blockrepeat,
    "paper-logweight": fixtures.paper_logweight,
}

STRICT = (Definiteness.STRICTLY_POSITIVE, Definiteness.STRICTLY_NEGATIVE)


@pytest.fixture(scope="module", params=[(name, N) for name in sorted(FIXTURES)
                                        for N in (1, 2, 3)],
                ids=lambda p: f"{p[0]}-N{p[1]}")
def lim(request):
    name, N = request.param
    return extract_periodic_limits(FIXTURES[name](), N, 1000)


def _sequential_scan(fn, lo, hi, grid, eps=DEFINITENESS_EPS):
    """(lo, hi, sign) of every run, each boundary bisected alone."""
    xs = np.linspace(lo, hi, grid)
    cls = [classify_definiteness(fn(float(x)), eps) for x in xs]

    def bisect(outside, inside, sign):
        while abs(inside - outside) > ENDPOINT_TOL:
            m = 0.5 * (inside + outside)
            if classify_definiteness(fn(float(m)), eps) == sign:
                inside = m
            else:
                outside = m
        return 0.5 * (inside + outside)

    out = []
    i = 0
    while i < grid:
        if cls[i] not in STRICT:
            i += 1
            continue
        j = i
        while j + 1 < grid and cls[j + 1] == cls[i]:
            j += 1
        left = xs[i] if i == 0 else bisect(xs[i - 1], xs[i], cls[i])
        right = xs[j] if j == grid - 1 else bisect(xs[j + 1], xs[j], cls[i])
        out.append((float(left), float(right), cls[i]))
        i = j + 1
    return out


def _intervals(lset):
    return [(iv.lo, iv.hi, iv.sign) for iv in lset.intervals]


# ---- batched limit forms ----


def test_limit_forms_of_an_array_are_the_stack_of_scalar_forms(lim):
    xs = np.concatenate([np.linspace(-5.0, 10.0, 31), [-0.0, 1e-300, -7.5e5]])
    for start in range(lim.N):
        got = limit_form(lim, xs, start=start)
        want = np.stack([limit_form(lim, float(x), start=start) for x in xs])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        grid = limit_form(lim, xs[:30].reshape(5, 6), start=start)
        assert grid.tobytes() == want[:30].tobytes()
        assert grid.shape == (5, 6) + want.shape[1:]


def test_limit_blocks_of_an_array_are_the_stack_of_scalar_blocks(lim):
    zs = np.concatenate([np.linspace(-5.0, 10.0, 31), np.linspace(-1, 1, 5) + 0.5j])
    for i in range(-1, lim.N + 1):
        got = limit_block(lim, zs, i)
        want = np.stack([limit_block(lim, complex(z), i) for z in zs])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_scalar_limit_form_is_one_matrix(lim):
    d = lim.dim
    assert limit_form(lim, 0.5).shape == (2 * d, 2 * d)
    assert limit_block(lim, 0.5, 0).shape == (2 * d, 2 * d)
    assert limit_form(lim, np.array([0.5])).shape == (1, 2 * d, 2 * d)


@pytest.mark.parametrize("grid", [101, 201])
def test_lambda_scan_matches_sequential_bisection(lim, grid):
    lset = lambda_scan(lim, (-5.0, 10.0), grid=grid)
    assert _intervals(lset) == _sequential_scan(lambda lam: limit_form(lim, lam),
                                                -5.0, 10.0, grid)


# ---- scan edge cases ----


def _piecewise(breaks, calls):
    """Strictly positive below breaks[0], indefinite up to breaks[1],
    strictly positive up to breaks[2], strictly negative past it; records
    the type of every argument."""
    b0, b1, b2 = breaks

    def fn(x):
        calls.append(type(x))
        if x < b0:
            return np.diag([1.0, 2.0])
        if x < b1:
            return np.diag([1.0, -1.0])
        if x < b2:
            return np.diag([x, 1.0])
        return -np.eye(2)
    return fn


def test_scan_runs_at_both_ends_and_adjacent_signs():
    calls = []
    fn = _piecewise((2.3, 3.7, 6.6), calls)
    lset = definiteness_scan(fn, 0.0, 10.0, grid=11)
    got = _intervals(lset)
    assert [s for _, _, s in got] == [Definiteness.STRICTLY_POSITIVE,
                                      Definiteness.STRICTLY_POSITIVE,
                                      Definiteness.STRICTLY_NEGATIVE]
    assert got[0][0] == 0.0 and got[2][1] == 10.0
    inner = [got[0][1], got[1][0], got[1][1], got[2][0]]
    assert np.allclose(inner, [2.3, 3.7, 6.6, 6.6], rtol=0, atol=ENDPOINT_TOL)
    assert set(calls) == {float}
    assert got == _sequential_scan(_piecewise((2.3, 3.7, 6.6), []), 0.0, 10.0, 11)
    assert not lset.contains(3.0) and lset.contains(6.0) and lset.contains(9.0)


def test_scan_edges_narrower_than_the_tolerance_are_not_bisected():
    calls = []
    fn = _piecewise((1.2e-8, 1.8e-8, 3.1e-8), calls)
    lset = definiteness_scan(fn, 0.0, 4e-8, grid=9)
    xs = np.linspace(0.0, 4e-8, 9)
    mid = [float(0.5 * (xs[k] + xs[k + 1])) for k in (2, 3, 6, 6)]
    got = _intervals(lset)
    assert got == [(0.0, mid[0], Definiteness.STRICTLY_POSITIVE),
                   (mid[1], mid[2], Definiteness.STRICTLY_POSITIVE),
                   (mid[3], 4e-8, Definiteness.STRICTLY_NEGATIVE)]
    assert len(calls) == 9 and set(calls) == {float}


def test_non_hermitian_midpoint_raises_as_one_matrix_classification():
    def fn(x):
        if x.is_integer():
            return np.diag([x - 1.5, 1.0])
        return np.array([[x - 1.5, 1.0], [0.0, 1.0]])

    with pytest.raises(NotHermitianError) as one:
        classify_definiteness(fn(1.5))
    with pytest.raises(NotHermitianError) as scan:
        definiteness_scan(fn, 0.0, 4.0, grid=5)
    assert str(scan.value) == str(one.value)
