"""Classical ground truth: scalar Jacobi families whose spectral density is
known in closed form.  Along the orthonormal polynomials, started at
(p_0, p_1) = (1, (x - b_0) / a_0), the Turan limit g of `turan_convergence`
gives the density of the orthogonality measure at x.

- Hermite, a_n = sqrt((n + 1) / 2) and b_n = 0, as an inline
  `scaled_periodic` config: 1 / (pi g) tends to e^{-x^2} / sqrt(pi), so its
  error must fall with the horizon.
- Chebyshev, a_n = 1/2 and b_n = 0: S_n is 1/2 at every n, so g = 1/2 at
  every horizon, and sqrt(-discr(x)) / (2 pi g) is the density
  (2 / pi) sqrt(1 - x^2) exactly; discr(x) = 4 x^2 - 4 is the discriminant
  of the transfer matrix [[0, 1], [-1, 2x]].
"""

import math

import numpy as np
import pytest

from blockjacobi.coeffs import constant_family
from blockjacobi.config import parse_family
from blockjacobi.turan import turan_convergence

HORIZONS = [1000, 4000, 16000]


def _g(fam, x, horizon):
    """The Turan limit g at x along the orthonormal polynomials (b_0 = 0)."""
    start = np.array([1.0, x / fam.a(0)[0, 0].real])
    return turan_convergence(fam, 1, x, [start], horizon).per_alpha[0].g


def _hermite():
    spec = {"kind": "scaled_periodic", "period": 1,
            "x": {"kind": "power", "exponent": 0.5},
            "y": {"kind": "constant", "value": 0.0},
            "X": [[[1 / math.sqrt(2)]]], "Y": [[[0.0]]]}
    return parse_family(spec, "$.family").family


@pytest.mark.parametrize("x", [0.0, 0.5, 1.5])
def test_hermite_density_error_falls_with_the_horizon(x):
    fam = _hermite()
    density = math.exp(-x * x) / math.sqrt(math.pi)
    errors = [abs(1 / (math.pi * _g(fam, x, h)) / density - 1) for h in HORIZONS]
    # measured: 2.6e-4, 6.6e-5, 1.6e-5 at x = 0; the error goes as 1 / H
    for coarse, fine in zip(errors, errors[1:]):
        assert fine * 3 <= coarse
    assert errors[-1] < 3e-5


@pytest.mark.parametrize("x", [0.0, 0.5, 0.9])
def test_chebyshev_density_is_exact_at_every_horizon(x):
    fam = constant_family([[0.5]], [[0.0]])
    density = 2 / math.pi * math.sqrt(1 - x * x)
    for h in HORIZONS:
        g = _g(fam, x, h)
        assert abs(g - 0.5) <= 5e-14
        assert abs(math.sqrt(4 - 4 * x * x) / (2 * math.pi * g) / density - 1) <= 1e-13
