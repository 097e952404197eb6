"""Period-N ground truth for the limit form's definiteness region Λ.

The truths come from outside the repo's own code: the monodromy
M(λ) = B_N(λ) ... B_1(λ) of one period of transfer matrices
B_i = [[0, Id], [-a_i^{-1} a_{i-1}^*, a_i^{-1}(λ - b_i)]], formed here.

- Bounded periodic, d = 1: Λ is the band set {λ : |tr M(λ)| < 2}, the
  discriminant of a periodic Jacobi matrix (G. Teschl, *Jacobi Operators and
  Completely Integrable Nonlinear Lattices*, 2000, ch. 7).  tr M is a
  polynomial of degree N, so the band edges are the real roots of
  tr M(λ) = ±2.
- Bounded periodic, d = 2: strict definiteness of the form is a sufficient
  condition, so Λ lies inside the set where every eigenvalue of M(λ) has
  modulus 1.
- Unbounded, periodically modulated, d = 1: a_n = α_{n mod N} (n+1) and
  b_n = β_{n mod N} (n+1).  Λ is all of ℝ when |tr X_0(0)| < 2 and empty
  when it is above 2, with X_0(0) the product of the limits
  [[0, 1], [-α_{i-1}/α_i, β_i/α_i]] (J. Janas and S. Naboko, J. Funct.
  Anal. 191, 2002; G. Świderski, J. Approx. Theory 216, 2017).
"""

import numpy as np
import pytest

from blockjacobi import fixtures
from blockjacobi.coeffs import ConstantWeight, PowerWeight, scaled_periodic_family
from blockjacobi.turan import extract_periodic_limits, lambda_scan

X, Y = fixtures.X_OP, fixtures.Y_OP


def _ops(values):
    return [np.atleast_2d(np.asarray(v, dtype=np.complex128)) for v in values]


def _periodic(a, b, weight=ConstantWeight(1.0)):
    """a_n = weight(n) a_(n mod N), b_n = weight(n) b_(n mod N)."""
    a, b = _ops(a), _ops(b)
    return scaled_periodic_family(len(a), weight, weight, a, b)


def _monodromy(a, b, lams):
    """M(λ) over one period, for every λ of an array."""
    a, b = _ops(a), _ops(b)
    d = a[0].shape[0]
    M = np.broadcast_to(np.eye(2 * d, dtype=np.complex128), lams.shape + (2 * d, 2 * d))
    for i in range(len(a)):
        ai = np.linalg.inv(a[i])
        B = np.zeros(lams.shape + (2 * d, 2 * d), dtype=np.complex128)
        B[..., :d, d:] = np.eye(d)
        B[..., d:, :d] = -ai @ a[i - 1].conj().T
        B[..., d:, d:] = ai @ (lams[:, None, None] * np.eye(d) - b[i])
        M = B @ M
    return M


def _band_edges(a, b):
    """Sorted real roots of tr M(λ) = ±2, from the degree-N polynomial
    tr M interpolated at N + 1 Chebyshev nodes."""
    N = len(a)
    nodes = np.cos(np.pi * (np.arange(N + 1) + 0.5) / (N + 1)) * 4
    tr = np.trace(_monodromy(a, b, nodes), axis1=1, axis2=2).real
    coef = np.polynomial.polynomial.polyfit(nodes, tr, N)
    real = np.concatenate([np.polynomial.polynomial.polyroots(coef - np.eye(N + 1)[0] * s)
                           for s in (2, -2)])
    return np.sort(real[np.abs(real.imag) < 1e-9].real)


def _intervals(lset):
    return [(iv.lo, iv.hi) for iv in lset.intervals]


# ---- bounded periodic, d = 1 ----


@pytest.mark.parametrize("a, b, bands", [
    ((1, 0.5), (0, 1), 2),
    ((1, 0.7, 1.3), (0.2, -0.5, 1.0), 3),
], ids=["N2", "N3"])
def test_bands_are_the_discriminant_set(a, b, bands):
    lset = lambda_scan(extract_periodic_limits(_periodic(a, b), len(a), 1000), (-5.0, 5.0))
    edges = _band_edges(a, b)
    assert len(edges) == 2 * bands
    got = np.ravel(_intervals(lset))
    assert got.shape == edges.shape and np.abs(got - edges).max() < 1e-6
    # and pointwise: inside Λ exactly where |tr M| < 2, away from the edges
    lams = np.linspace(-5.0, 5.0, 2001)
    tr = np.trace(_monodromy(a, b, lams), axis1=1, axis2=2).real
    far = np.abs(lams[:, None] - edges).min(axis=1) > 1e-6
    inside = np.array([lset.contains(x) for x in lams])
    assert np.array_equal(inside[far], (np.abs(tr) < 2)[far])


def test_period_two_bands_in_closed_form():
    # (λ - b_0)(λ - b_1) - a_0^2 - a_1^2 = ±2 a_0 a_1: λ^2 - λ - 1.25 = ±1
    lset = lambda_scan(extract_periodic_limits(_periodic((1, 0.5), (0, 1)), 2, 1000),
                       (-5.0, 5.0))
    want = [((1 - 10 ** 0.5) / 2, (1 - 2 ** 0.5) / 2), ((1 + 2 ** 0.5) / 2, (1 + 10 ** 0.5) / 2)]
    assert np.allclose(_intervals(lset), want, rtol=0, atol=1e-6)
    assert np.allclose(_intervals(lset), [(-1.0811, -0.2071), (1.2071, 2.0811)], atol=1e-4)


# ---- bounded periodic, d = 2 ----


def _unimodular(a, b, lams):
    w = np.linalg.eigvals(_monodromy(a, b, lams))
    return np.all(np.abs(np.abs(w) - 1) < 1e-6, axis=-1)


@pytest.mark.parametrize("a, b, want, whole", [
    ([X], [Y], [(0.3028, 1.4586)], True),
    ([X, X], [Y, Y / 2], [(-0.0640, 0.1910)], False),
    ([X, 1.5 * X], [Y, Y], [], False),
], ids=["paper-constant", "b-halved", "a-scaled"])
def test_matrix_bands_lie_where_the_monodromy_is_unimodular(a, b, want, whole):
    # b-halved is unimodular on three intervals and Λ is the first; a-scaled
    # is unimodular on (0.7295, 1.651), yet its form is definite nowhere.
    # For paper-constant the two sets are one.
    lset = lambda_scan(extract_periodic_limits(_periodic(a, b), len(a), 1000), (-5.0, 5.0))
    assert np.allclose(_intervals(lset), want, rtol=0, atol=1e-4) if want else lset.empty
    lams = np.linspace(-5.0, 5.0, 10001)
    ok = _unimodular(a, b, lams)
    inside = np.array([lset.contains(x) for x in lams])
    far = np.abs(lams[:, None] - np.ravel(want)).min(axis=1, initial=np.inf) > 1e-3
    assert ok.any() and inside[far].any() == bool(want)
    assert ok[inside & far].all()
    assert np.array_equal(ok[far], inside[far]) == whole


# ---- unbounded, periodically modulated, d = 1 ----


def _trace_at_zero(alpha, beta):
    M = np.eye(2)
    for i in range(len(alpha)):
        M = np.array([[0.0, 1.0], [-alpha[i - 1] / alpha[i], beta[i] / alpha[i]]]) @ M
    return float(np.trace(M))


@pytest.mark.parametrize("alpha, beta, trace", [
    ((1, 1), (1, 1.57), -0.43),
    ((1, 2), (2, 2.75), 0.25),
    ((1, 1), (0.1, -0.1), -2.01),
    ((1, 1), (0.5, -0.5), -2.25),
    ((1, 2), (0, 1), -2.5),
    ((1, 2), (0.4, -0.4), -2.58),
])
def test_modulated_dichotomy(alpha, beta, trace):
    assert abs(_trace_at_zero(alpha, beta) - trace) < 1e-12
    fam = _periodic(alpha, beta, PowerWeight(1.0))
    lset = lambda_scan(extract_periodic_limits(fam, len(alpha), 4000), (-10.0, 10.0))
    if abs(trace) < 2:
        assert _intervals(lset) == [(-10.0, 10.0)]
    else:
        assert lset.empty
