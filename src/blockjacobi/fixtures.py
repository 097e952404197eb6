"""Built-in coefficient families used across the test corpus and the CLI.

All four use the non-commuting pair X = [[1,1],[1,2]], Y = [[2,1],[1,1]]
(both self-adjoint, X invertible with det 1) wherever an operator direction
is needed.
"""

from __future__ import annotations

import numpy as np

from .coeffs import (
    BlockRecipLogWeight,
    BlockSqrtLogWeight,
    CoefficientFamily,
    ConstantWeight,
    LogProductWeight,
    PowerWeight,
    RecipIterLogWeight,
    ScalarWeight,
    constant_family,
    scaled_periodic_family,
)

X_OP = np.array([[1.0, 1.0], [1.0, 2.0]], dtype=np.complex128)
Y_OP = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=np.complex128)


def paper_constant() -> CoefficientFamily:
    """Constant entries a = [[1,1],[1,2]], b = [[2,1],[1,1]]."""
    return constant_family(X_OP, Y_OP, "paper-constant")


def paper_unbounded(exponent: float = 1.0, q: float = 0.5) -> CoefficientFamily:
    """a_n = (n+1)^exponent X, b_n = q (n+1)^exponent Y: linear-direction
    growth with b proportional to a."""
    x = PowerWeight(exponent)
    y = _ScaledPower(exponent, q)
    return scaled_periodic_family(1, x, y, [X_OP], [Y_OP],
                                  f"paper-unbounded(exponent={exponent},q={q})")


class _ScaledPower(ScalarWeight):
    def __init__(self, exponent: float, scale: float):
        self._w = PowerWeight(exponent)
        self.scale = scale

    def __call__(self, n: int) -> float:
        return self.scale * self._w(n)

    def array(self, ns) -> np.ndarray:
        return self.scale * self._w.array(ns)


def paper_blockrepeat() -> CoefficientFamily:
    """a_n = x_n X, b_n = y_n Y with x the block-repeated k sqrt(log(k+1)) and
    y the block-repeated 1/(k log(k+1)), both on the same block tiling."""
    return scaled_periodic_family(1, BlockSqrtLogWeight(), BlockRecipLogWeight(),
                                  [X_OP], [Y_OP], "paper-blockrepeat")


def paper_logweight(depth: int = 1, offset: int = 10) -> CoefficientFamily:
    """a_n = (n+M) log(n+M) ... X, b_n = Y / log^(depth)(n+M)."""
    x = LogProductWeight(depth, offset)
    y = RecipIterLogWeight(depth, offset)
    return scaled_periodic_family(1, x, y, [X_OP], [Y_OP],
                                  f"paper-logweight(depth={depth},offset={offset})")


def indeterminate_doubling() -> CoefficientFamily:
    """a_n = 2^n [[1,1],[1,2]], b = 0: geometric growth past the Carleman
    condition; every trajectory is square-summable at every z."""
    return scaled_periodic_family(1, _Doubling(), ConstantWeight(0.0),
                                  [X_OP], [np.zeros((2, 2))], "doubling")


class _Doubling(ScalarWeight):
    def __call__(self, n: int) -> float:
        return float(2.0 ** n)

    def array(self, ns) -> np.ndarray:
        return 2.0 ** np.asarray(ns, dtype=float)


def sqrt_growth() -> CoefficientFamily:
    """a_n = sqrt(n+1) [[1,1],[1,2]], b = 0."""
    return scaled_periodic_family(1, PowerWeight(0.5), ConstantWeight(0.0),
                                  [X_OP], [np.zeros((2, 2))], "sqrt-growth")


FIXTURES = {
    "paper-constant": paper_constant,
    "paper-unbounded": paper_unbounded,
    "paper-blockrepeat": paper_blockrepeat,
    "paper-logweight": paper_logweight,
}

FIXTURE_NOTES = {
    "paper-constant": "constant 2x2 entries; bounded, self-adjoint regime",
    "paper-unbounded": "a_n ~ (n+1)^exponent X with b_n = q a_n direction Y",
    "paper-blockrepeat": "block-repeated sqrt-log growth, decaying b",
    "paper-logweight": "iterated-log growth envelope, slowly decaying b",
}

