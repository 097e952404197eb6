"""The 2x2 Hermitian eigenvalue kernel behind negative parts and
hermitian_extremes, against LAPACK's eigvalsh.

On real entries the kernel is eigvalsh's own arithmetic (dsyevd's scaling,
dsterf's splitting tests and scaling, dlae2), so its values have the same
bits at every magnitude and on the checkers' own inputs.  That bit equality
holds against reference LAPACK compiled without fused multiply-adds, as
numpy's x86-64 wheels ship it in OpenBLAS (the CI configuration); a LAPACK
that fuses dlae2's (acmx/rt1) acmn - (b/rt1) b, or another vendor's, may
differ from the kernel by a few ulps with both correct.  On complex entries
LAPACK's reduction to real form rounds differently, and the kernel is held to
a few ulps of the largest eigenvalue modulus of the exact eigenvalues.
Matrices with a non-finite entry give NaN, and the checkers that sum negative
parts make no numpy.linalg call.
"""

import warnings

import numpy as np
import pytest

from blockjacobi import commutator, fixtures
from blockjacobi.commutator import (
    ANWeights,
    IdentityWeights,
    LogWeights,
    check_growth_criterion,
    weight_conditions,
)
from blockjacobi.opcore import (
    _hermitian_2x2_extremes,
    hermitian_extremes,
    stack_neg_part_norms,
    sym,
)

EPS = np.finfo(np.float64).eps


def _lapack_neg_parts(x):
    return np.maximum(0.0, -np.linalg.eigvalsh(sym(x))[..., 0])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _real_stack(seed: int, n: int) -> np.ndarray:
    """Real 2x2 matrices, symmetric and not, each scaled by 2^k for k in
    -900 .. 900 (every third one entry by entry), with diagonal, nearly
    diagonal, rank-one, zero and equal-diagonal rows among them."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2, 2))
    x[::2, 0, 1] = x[::2, 1, 0]
    x[1::7, 0, 1] = x[1::7, 1, 0] = 0.0
    x[2::7, 0, 1] = x[2::7, 1, 0] = 1e-17 * x[2::7, 1, 0]
    x[3::7] = x[3::7, :, :1] * x[3::7, :1, :]
    x[4::7, 1, 1] = -x[4::7, 0, 0]
    x[5::7, 1, 1] = x[5::7, 0, 0]
    x[6::49] = 0.0
    k = np.repeat(np.repeat(rng.integers(-900, 901, size=(n, 1, 1)), 2, axis=1), 2, axis=2)
    k[::3] = rng.integers(-900, 901, size=(len(k[::3]), 2, 2))
    return x * np.exp2(k.astype(float))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_real_stacks_keep_eigvalsh_bits_at_every_magnitude(seed):
    x = _real_stack(seed, 20000)
    want = np.linalg.eigvalsh(sym(x))
    for stack in (x, x.astype(np.complex128)):
        assert _same_bits(stack_neg_part_norms(stack), np.maximum(0.0, -want[:, 0]))
        lo, hi = hermitian_extremes(sym(stack))
        assert _same_bits(lo, want[:, 0]) and _same_bits(hi, want[:, 1])


def _checker_neg_part_inputs(monkeypatch, run) -> list:
    seen, kernel = [], commutator.stack_neg_part_norms

    def spy(x):
        seen.append(np.array(x))
        return kernel(x)

    monkeypatch.setattr(commutator, "stack_neg_part_norms", spy)
    run()
    monkeypatch.undo()
    return seen


def test_checkers_inputs_keep_eigvalsh_bits(monkeypatch):
    # the two families of the checkers workload at its horizon: the growth
    # criterion and the a_n-weight conditions of paper-blockrepeat, the
    # log-weight conditions of paper-logweight at offsets of its range
    H = 10_000
    fam = fixtures.paper_blockrepeat()
    stacks = _checker_neg_part_inputs(monkeypatch, lambda: (
        check_growth_criterion(fam, H), weight_conditions(fam, ANWeights(), H)))
    for offset in (10, 15, 20):
        fam = fixtures.paper_logweight(1, offset)
        stacks += _checker_neg_part_inputs(
            monkeypatch, lambda: weight_conditions(fam, LogWeights(1), H))
    assert len(stacks) == 5 and all(s.shape == (H - 1, 2, 2) for s in stacks)
    for x in stacks:
        assert _same_bits(stack_neg_part_norms(x), _lapack_neg_parts(x))


def test_complex_hermitian_stacks_stay_within_a_few_ulps():
    # against the exact eigenvalues m -+ sqrt(g^2 + |q|^2) of each sym(X), not
    # against eigvalsh: LAPACK's own error on complex entries reaches 7 eps
    # max|lambda|, so kernel and eigvalsh can differ by more than 6 eps
    hypothesis = pytest.importorskip("hypothesis")
    mpmath = pytest.importorskip("mpmath")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @hypothesis.given(st.integers(0, 2**32 - 1), st.integers(-300, 300), st.integers(1, 20))
    def check(seed, exponent, n):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))) * 2.0 ** exponent
        h = sym(x)
        lo, hi = hermitian_extremes(h)
        neg = stack_neg_part_norms(x)
        with mpmath.workdps(40):
            for k, m in enumerate(h.tolist()):
                p, r, q = mpmath.mpf(m[0][0].real), mpmath.mpf(m[1][1].real), mpmath.mpc(m[1][0])
                rt = mpmath.sqrt(((p - r) / 2) ** 2 + abs(q) ** 2)
                want_lo, want_hi = (p + r) / 2 - rt, (p + r) / 2 + rt
                tol = 6 * EPS * max(abs(want_lo), abs(want_hi))
                assert abs(lo[k] - want_lo) <= tol and abs(hi[k] - want_hi) <= tol
                assert abs(neg[k] - max(0, -want_lo)) <= tol

    check()


def test_small_cases():
    assert stack_neg_part_norms(np.diag([1.0, -1e-20])[None])[0] == 1e-20
    assert stack_neg_part_norms(np.zeros((1, 2, 2)))[0] == 0.0
    assert stack_neg_part_norms(np.zeros((0, 2, 2))).shape == (0,)
    assert hermitian_extremes(np.diag([3.0, -1.0])) == (-1.0, 3.0)


@pytest.mark.parametrize("d", [1, 3])
def test_other_sizes_keep_eigvalsh(d):
    rng = np.random.default_rng(d)
    x = rng.normal(size=(50, d, d)) + 1j * rng.normal(size=(50, d, d))
    assert _same_bits(stack_neg_part_norms(x), _lapack_neg_parts(x))
    w = np.linalg.eigvalsh(sym(x))
    lo, hi = hermitian_extremes(sym(x))
    assert _same_bits(lo, w[:, 0]) and _same_bits(hi, w[:, -1])


def test_hermitian_extremes_of_a_2x2_stack_is_the_kernel():
    rng = np.random.default_rng(4)
    h = sym(rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2)))
    lo, hi = hermitian_extremes(h)
    k_lo, k_hi = _hermitian_2x2_extremes(h)
    assert _same_bits(lo, k_lo) and _same_bits(hi, k_hi)
    assert _same_bits(stack_neg_part_norms(h), np.maximum(0.0, -k_lo))
    # one matrix is its row of the stack
    assert all(hermitian_extremes(h[k]) == (lo[k], hi[k]) for k in range(0, 500, 50))


def test_non_finite_matrices_give_nan_without_a_warning():
    x2 = np.array([[[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]],
                   [[1.0, 0.0], [0.0, -2.0]], [[1.0, 1j * np.inf], [0.0, 1.0]],
                   [[1.0 + 1j * np.nan, 0.0], [0.0, 1.0]]])
    x3 = np.array([np.diag([np.nan, 1.0, -1.0]), np.diag([2.0, 1.0, -1.0]),
                   np.diag([-np.inf, 1.0, 1.0])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got2, got3 = stack_neg_part_norms(x2), stack_neg_part_norms(x3)
    assert _same_bits(got2, [np.nan, np.nan, 2.0, np.nan, np.nan])
    assert _same_bits(got3, [np.nan, 1.0, np.nan])


def _linalg_calls(monkeypatch) -> list:
    """Spy on every function of numpy.linalg: the names called."""
    calls = []
    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            def spy(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
    return calls


@pytest.mark.parametrize("make", [fixtures.paper_constant, fixtures.paper_unbounded,
                                  fixtures.paper_blockrepeat, fixtures.paper_logweight])
def test_checkers_summing_negative_parts_make_no_linalg_call(monkeypatch, make):
    H = 2000
    fam = make()
    fam.stacks(0, H + 1)  # the rows the checkers read, with their inverses
    calls = _linalg_calls(monkeypatch)
    for strategy in (IdentityWeights(), ANWeights(), LogWeights(1)):
        weight_conditions(fam, strategy, H)
    check_growth_criterion(fam, H)
    assert calls == []
