"""Coefficient families, scalar weights, and the sequence diagnostics
(variation windows, series verdicts, numerical limits, Carleman sums)."""

import math
import warnings

import numpy as np
import pytest

from blockjacobi.coeffs import (
    CONVERGES,
    DIVERGES,
    UNDECIDED,
    BlockRecipLogWeight,
    BlockSqrtLogWeight,
    ConstantWeight,
    LogProductWeight,
    PowerWeight,
    RecipIterLogWeight,
    ScaledPeriodicFamily,
    TabulatedWeight,
    block_index,
    bounded_verdict,
    carleman_diagnostic,
    constant_family,
    custom_family,
    g_product,
    iter_log,
    scaled_periodic_family,
    sequence_limit,
    series_verdict,
    tabulated_family,
    total_variation,
    validate_family,
    vanishing_verdict,
)
from blockjacobi import fixtures
from blockjacobi.opcore import DomainError, op_norm

from conftest import rand_hermitian, rand_invertible

X = np.array([[1.0, 1.0], [1.0, 2.0]])
Y = np.array([[2.0, 1.0], [1.0, 1.0]])


# ---- iterated logs and weights ----


def test_iter_log_values():
    assert iter_log(0, 5.0) == 5.0
    assert iter_log(1, math.e) == pytest.approx(1.0)
    assert iter_log(2, math.exp(math.e)) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        iter_log(2, 1.0)  # log log 1 = log 0


def test_g_product_values():
    assert g_product(0, 100.0) == 1.0
    assert g_product(1, 100.0) == pytest.approx(math.log(100.0))
    assert g_product(2, 100.0) == pytest.approx(math.log(100.0) * math.log(math.log(100.0)))


def test_power_weight():
    w = PowerWeight(2.0, offset=3)
    assert w(0) == 9.0
    assert w(7) == 100.0
    with pytest.raises(ValueError):
        PowerWeight(1.0, offset=0)


def test_log_product_weight_requires_valid_offset():
    w = LogProductWeight(1, 10)
    assert w(0) == pytest.approx(10 * math.log(10))
    with pytest.raises(DomainError):
        LogProductWeight(2, 2)  # loglog(2) < 0


def test_recip_iter_log_weight():
    w = RecipIterLogWeight(1, 10)
    assert w(5) == pytest.approx(1.0 / math.log(15.0))


def test_block_index_tiling():
    # blocks [0], [1,2], [3,4,5], ...: block k starts at k(k-1)/2
    assert [block_index(n) for n in range(7)] == [1, 2, 2, 3, 3, 3, 4]
    for k in range(1, 60):
        start = k * (k - 1) // 2
        assert block_index(start) == k
        assert block_index(start + k - 1) == k
    with pytest.raises(ValueError):
        block_index(-1)


def test_block_weights_follow_the_tiling():
    x = BlockSqrtLogWeight()
    y = BlockRecipLogWeight()
    for n in (0, 1, 2, 3, 10, 100):
        k = block_index(n)
        assert x(n) == pytest.approx(k * math.sqrt(math.log(k + 1)))
        assert y(n) == pytest.approx(1.0 / (k * math.log(k + 1)))


def test_block_sqrt_log_reciprocal_square_sums():
    """Summing 1/x_n^2 over complete blocks equals summing k/x~_k^2 per
    block, which is 1/(k log(k+1))."""
    x = BlockSqrtLogWeight()
    K = 40
    upto = K * (K + 1) // 2  # end of block K
    direct = sum(1.0 / x(n) ** 2 for n in range(upto))
    per_block = sum(1.0 / (k * math.log(k + 1)) for k in range(1, K + 1))
    assert direct == pytest.approx(per_block, rel=1e-12)


# ---- families ----


def test_constant_family_entries_and_inverse():
    fam = constant_family(X, Y)
    assert fam.dim == 2
    assert np.abs(fam.a(17) - X).max() == 0.0
    assert np.abs(fam.b(3) - Y).max() == 0.0
    assert np.abs(fam.a_inv(5) @ fam.a(5) - np.eye(2)).max() < 1e-12
    assert fam.norm_a(0) == pytest.approx((3 + np.sqrt(5)) / 2)


def test_constant_family_with_singular_a_still_builds():
    fam = constant_family(np.array([[1.0, 2.0], [2.0, 4.0]]), Y)
    viols = validate_family(fam, range(3))
    assert {(v.index, v.kind) for v in viols} == {(n, "singular_a") for n in range(3)}


def test_scaled_periodic_family_scalars_factor_through():
    fam = scaled_periodic_family(2, PowerWeight(1.0), ConstantWeight(0.5),
                                 [X, X + np.eye(2)], [Y, np.eye(2)])
    assert isinstance(fam, ScaledPeriodicFamily)
    n = 7
    assert np.abs(fam.a(n) - (n + 1) * (X + np.eye(2))).max() < 1e-12
    assert np.abs(fam.b(n) - 0.5 * np.eye(2)).max() == 0.0
    assert fam.norm_a(n) == pytest.approx((n + 1) * op_norm(X + np.eye(2)))
    assert np.abs(fam.a_inv(n) @ fam.a(n) - np.eye(2)).max() < 1e-12
    xs, ys = fam.scalar_arrays(3, 4)
    assert np.allclose(xs, [4.0, 5.0, 6.0, 7.0])
    assert np.allclose(ys, 0.5)


def test_scaled_periodic_family_rejects_length_mismatch():
    with pytest.raises(ValueError):
        scaled_periodic_family(2, ConstantWeight(), ConstantWeight(), [X], [Y, Y])


def test_tabulated_family():
    fam = tabulated_family([X, 2 * X], [Y, np.zeros((2, 2))])
    assert np.abs(fam.a(1) - 2 * X).max() == 0.0
    with pytest.raises(IndexError):
        fam.a(2)
    with pytest.raises(ValueError):
        tabulated_family([X], [Y, Y])


def test_validate_family_reports_violations():
    a_list = [X] * 8
    b_list = [Y] * 8
    a_list[3] = np.array([[1.0, 2.0], [2.0, 4.0]])      # singular
    b_list[5] = np.array([[1.0, 2.0], [0.0, 1.0]])      # not self-adjoint
    fam = tabulated_family(a_list, b_list)
    viols = validate_family(fam, range(8))
    assert {(v.index, v.kind) for v in viols} == {(3, "singular_a"), (5, "non_hermitian_b")}


def test_validate_family_clean_window_is_empty():
    assert validate_family(constant_family(X, Y), range(100)) == []


def test_validate_family_reports_overflowing_entries_as_non_finite():
    # a_n = 2^n X leaves the floating range at n = 1023, where 2 * 2^1023 = inf
    viols = validate_family(fixtures.indeterminate_doubling(), range(1030))
    assert [(v.index, v.kind) for v in viols] == [(n, "non_finite") for n in range(1023, 1030)]
    assert all("non-finite" in v.detail for v in viols)


def test_validate_family_reports_a_failing_b_from_its_index_on():
    calls = {"a": [], "b": []}

    def a_fn(n):
        calls["a"].append(n)
        return (n + 1.0) * X

    def b_fn(n):
        calls["b"].append(n)
        if n >= 7:
            raise ValueError(f"no b at {n}")
        return Y

    viols = validate_family(custom_family(2, a_fn, b_fn), range(12))
    assert [(v.index, v.kind, v.detail) for v in viols] == [
        (n, "non_finite", "no b at 7") for n in range(7, 12)]
    for seen in calls.values():
        assert len(seen) == len(set(seen)) and max(seen) == 7


def test_family_evaluation_is_memoized_and_immutable_by_contract():
    calls = []

    def a_fn(n):
        calls.append(n)
        return X * (n + 1)

    fam = custom_family(2, a_fn, lambda n: Y)
    fam.a(4)
    fam.a(4)
    assert calls.count(4) == 1


# ---- total variation ----


def test_total_variation_constant_sequence_is_zero():
    rep = total_variation(lambda n: X, 3, (0, 100))
    assert rep.partial_sum == 0.0
    assert rep.converged
    assert rep.tail_estimate == 0.0


def test_total_variation_telescopes_for_reciprocal():
    # ||seq(n+1) - seq(n)|| telescopes: sum over [0, M) is 1 - 1/(M+1)
    seq = lambda n: np.eye(1) / (n + 1)
    M = 10_000
    rep = total_variation(seq, 1, (0, M))
    assert rep.partial_sum == pytest.approx(1.0 - 1.0 / (M + 1), rel=1e-12)
    assert not rep.converged  # the last tenth still contributes ~1e-5 of the sum
    assert np.isfinite(rep.tail_estimate)


def test_total_variation_period_matching_window_vanishes():
    fam = scaled_periodic_family(2, ConstantWeight(1.0), ConstantWeight(1.0),
                                 [X, X + np.eye(2)], [Y, np.eye(2)])
    rep = total_variation(fam.a, 2, (0, 50))
    assert rep.partial_sum == 0.0
    assert rep.converged


def test_total_variation_rejects_bad_windows():
    with pytest.raises(ValueError):
        total_variation(lambda n: X, 0, (0, 10))
    with pytest.raises(ValueError):
        total_variation(lambda n: X, 1, (5, 5))


# ---- series verdicts ----


def test_series_verdict_frozen_classes():
    n = np.arange(2, 20001, dtype=float)
    cases = [
        (np.ones(1000), 0, DIVERGES),
        (0.5 ** np.arange(200), 0, CONVERGES),
        (n ** -0.5, 2, DIVERGES),
        (1.0 / n, 2, DIVERGES),
        (1.0 / (n * np.log(n)), 2, DIVERGES),
        (1.0 / ((n + 10) * np.log(n + 10)), 2, DIVERGES),
        (1.0 / (n * np.log(n) ** 1.5), 2, CONVERGES),
        (1.0 / (n * np.log(n) ** 2), 2, CONVERGES),
        (1.0 / n ** 2, 2, CONVERGES),
        (np.zeros(100), 0, CONVERGES),
    ]
    for terms, first, want in cases:
        ev = series_verdict(terms, first_index=first)
        assert ev.verdict == want, (want, ev.to_dict())
        assert ev.partial_sum == pytest.approx(float(terms.sum()))
        assert ev.count == len(terms)


def test_series_verdict_boundary_exponents_are_reported():
    n = np.arange(2, 20001, dtype=float)
    ev = series_verdict(1.0 / (n * np.log(n) ** 1.5), first_index=2)
    assert ev.log_exponent == pytest.approx(1.5, abs=0.1)
    assert ev.log_exponent_shifted == pytest.approx(1.5, abs=0.1)


def test_series_verdict_noise_floor_counts_as_zero():
    ev = series_verdict(np.full(1000, 1e-15))
    assert ev.verdict == CONVERGES
    assert ev.tail_estimate == 0.0


def test_series_verdict_short_input_undecided():
    assert series_verdict(np.ones(5)).verdict == UNDECIDED
    assert series_verdict(np.zeros(5)).verdict == CONVERGES


def test_series_verdict_rejects_negative_terms():
    with pytest.raises(ValueError):
        series_verdict(np.array([1.0, -1.0]))


def test_vanishing_and_bounded_verdicts():
    n = np.arange(1000, dtype=float)
    ok, _ = vanishing_verdict(1.0 / (n + 1))
    assert ok
    ok, _ = vanishing_verdict(np.ones(1000))
    assert not ok
    ok, _ = bounded_verdict(np.ones(1000) + np.sin(n))
    assert ok
    ok, _ = bounded_verdict(np.exp(n / 100))
    assert not ok


# ---- sequence limits ----


def test_sequence_limit_cauchy_path():
    lim = sequence_limit(lambda n: (1.0 + 2.0 ** (-n)) * np.eye(2), list(range(200)))
    assert lim.converged
    assert lim.method == "cauchy"
    assert np.abs(lim.value - np.eye(2)).max() < 1e-10


def test_sequence_limit_extrapolates_slow_power_tails():
    # 1/n drift across the last decade is ~4e-6, far beyond the plain Cauchy
    # tolerance, so the extrapolation stages must engage
    lim = sequence_limit(lambda n: (1.0 + 1.0 / (n + 1)) * np.eye(2),
                         list(range(1, 20001)))
    assert lim.converged
    assert lim.method == "extrapolated"
    assert np.abs(lim.value - np.eye(2)).max() < 1e-8


def test_sequence_limit_refuses_oscillation():
    lim = sequence_limit(lambda n: np.sin(float(n)) * np.eye(2), list(range(500)))
    assert not lim.converged
    assert lim.method == "none"


def test_sequence_limit_short_input():
    lim = sequence_limit(lambda n: float(n) * np.eye(2), list(range(10)))
    assert not lim.converged
    assert lim.method == "none"


def test_sequence_limit_matrix_valued_random_tail():
    rng = np.random.default_rng(9)
    target = rand_hermitian(rng, 3)
    pert = rand_invertible(rng, 3)
    lim = sequence_limit(lambda n: target + pert * 3.0 ** (-n), list(range(100)))
    assert lim.converged
    assert np.abs(lim.value - target).max() < 1e-8


def test_sequence_limit_keeps_raw_values_where_aitken_overflows():
    # squaring the second differences of 8^n samples leaves the float range;
    # the extrapolant is not finite there, so the raw term stays unconverged
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lim = sequence_limit(lambda n: 8.0 ** n * np.diag([1.0, 0.0]), list(range(300)))
    assert not lim.converged
    assert np.isfinite(lim.value).all()
    assert lim.value[0, 0] == 8.0 ** 299 and lim.value[1, 1] == 0.0


# ---- Carleman sums ----


def test_carleman_constant_family_diverges():
    fam = constant_family(X, Y)
    rep = carleman_diagnostic(fam, horizon=2000)
    assert rep.verdict == DIVERGES
    assert rep.partial_sum == pytest.approx(2000 / op_norm(X), rel=1e-12)


def test_carleman_geometric_growth_converges():
    fam = custom_family(2, lambda n: (2.0 ** n) * X, lambda n: np.zeros((2, 2)))
    rep = carleman_diagnostic(fam, horizon=300)
    assert rep.verdict == CONVERGES
    assert rep.partial_sum == pytest.approx(2.0 / op_norm(X), rel=1e-12)
    assert rep.evidence.tail_estimate < 1e-10
