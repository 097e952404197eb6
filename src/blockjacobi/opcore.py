"""Finite dimensional operator calculus on H = C^d and on H (+) H.

Operators are plain complex numpy arrays of shape (d, d).  Block operators
acting on H (+) H are (2d, 2d) arrays assembled from four d x d blocks; the
helpers at the bottom of this module do the assembly and splitting.  All
decompositions go through numpy.linalg (eigh for Hermitian spectral calculus,
svd for polar data and conditioning).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

# Hermiticity is accepted up to this deviation, relative to the operator norm.
HERMITICITY_RTOL = 1e-10

# Inverses past this condition number estimate are treated as singular.
CONDITION_LIMIT = 1e12

# Default margin separating "strictly" definite from degenerate eigenvalues.
DEFINITENESS_EPS = 1e-9


class NotHermitianError(ValueError):
    """Input had to be self-adjoint and is not, beyond tolerance."""


class SingularError(ValueError):
    """Matrix inversion requested beyond the conditioning limit."""


class DomainError(ValueError):
    """Argument left the domain of an elementary function (iterated log)."""


class NotConvergentError(RuntimeError):
    """A numerical limit showed no contraction where one was required."""


class HypothesisViolatedError(RuntimeError):
    """Structural hypothesis of an asymptotic statement failed; the message
    names the offending quantity."""


class Definiteness(Enum):
    STRICTLY_POSITIVE = "strictly_positive"
    STRICTLY_NEGATIVE = "strictly_negative"
    INDEFINITE = "indefinite"
    DEGENERATE = "degenerate"


def as_operator(x) -> np.ndarray:
    """Coerce to a square complex128 matrix, rejecting non-finite entries."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def adj(x: np.ndarray) -> np.ndarray:
    """Adjoint (conjugate transpose)."""
    return x.conj().T


def sym(x) -> np.ndarray:
    """Self-adjoint part (X + X^*) / 2."""
    a = as_operator(x)
    return (a + a.conj().T) / 2.0


def herm_defect(x: np.ndarray) -> float:
    """Operator-norm distance from x to its adjoint."""
    return float(np.linalg.norm(x - x.conj().T, 2))


def require_hermitian(x, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    a = as_operator(x)
    defect = herm_defect(a)
    scale = max(1.0, float(np.linalg.norm(a, 2)))
    if defect > rtol * scale:
        raise NotHermitianError(
            f"matrix deviates from self-adjointness by {defect:.3e} "
            f"(allowed {rtol * scale:.3e})"
        )
    return (a + a.conj().T) / 2.0


def op_norm(x) -> float:
    """Operator norm (largest singular value)."""
    return float(np.linalg.norm(as_operator(x), 2))


def neg_part(x, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Negative part X^- of a self-adjoint X, so that X = X^+ - X^- with
    X^+, X^- >= 0 commuting.  Spectral mapping t -> max(0, -t)."""
    h = require_hermitian(x, rtol)
    w, v = np.linalg.eigh(h)
    return (v * np.maximum(0.0, -w)) @ v.conj().T


def abs_val(x) -> np.ndarray:
    """Operator absolute value |X| = (X^* X)^(1/2), via singular values."""
    a = as_operator(x)
    _, s, vh = np.linalg.svd(a)
    return (vh.conj().T * s) @ vh


def hermitian_extremes(x, rtol: float = HERMITICITY_RTOL) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of a self-adjoint matrix."""
    h = require_hermitian(x, rtol)
    w = np.linalg.eigvalsh(h)
    return float(w[0]), float(w[-1])


def classify_definiteness(x, eps: float = DEFINITENESS_EPS) -> Definiteness:
    """Classify a self-adjoint matrix by its spectrum against the margin eps.

    Strictly positive: all eigenvalues > eps.  Strictly negative: all < -eps.
    Degenerate: some eigenvalue within eps of zero.  Indefinite otherwise.
    """
    w = np.linalg.eigvalsh(require_hermitian(x))
    if w[0] > eps:
        return Definiteness.STRICTLY_POSITIVE
    if w[-1] < -eps:
        return Definiteness.STRICTLY_NEGATIVE
    if np.any(np.abs(w) <= eps):
        return Definiteness.DEGENERATE
    return Definiteness.INDEFINITE


def condition_estimate(x) -> float:
    """2-norm condition number from singular values (inf if rank deficient)."""
    s = np.linalg.svd(as_operator(x), compute_uv=False)
    if s[-1] == 0.0:
        return float("inf")
    return float(s[0] / s[-1])


def condition_limit_mask(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Condition estimates from rows of descending singular values, and the
    mask of rows past CONDITION_LIMIT (rank deficient rows count as inf)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(s[..., -1] == 0.0, np.inf, s[..., 0] / s[..., -1])
    return cond, ~(cond <= CONDITION_LIMIT)


def invert(x) -> np.ndarray:
    """Inverse of a well-conditioned matrix.

    Raises SingularError when the condition estimate exceeds CONDITION_LIMIT;
    the estimate is reported in the message.
    """
    a = as_operator(x)
    cond = condition_estimate(a)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularError(f"condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.1e}")
    return np.linalg.inv(a)


# ---- stacks of operators ----
#
# Batched counterparts of the helpers above for arrays of shape (k, d, d):
# one numpy.linalg call per stack instead of one per matrix.


def stack_adj(x: np.ndarray) -> np.ndarray:
    """Adjoint of every matrix in a stack."""
    return np.swapaxes(np.conj(x), -1, -2)


def stack_sym(x: np.ndarray) -> np.ndarray:
    """Self-adjoint part of every matrix in a stack."""
    return (x + stack_adj(x)) / 2.0


def stack_norms(x: np.ndarray) -> np.ndarray:
    """Operator norm of every matrix in a stack."""
    return np.linalg.svd(x, compute_uv=False)[..., 0]


def stack_neg_part_norms(x: np.ndarray) -> np.ndarray:
    """||sym(X)^-|| for every X in a stack: the negative part's norm is
    max(0, -smallest eigenvalue of sym(X))."""
    return np.maximum(0.0, -np.linalg.eigvalsh(stack_sym(x))[..., 0])


# ---- block operators on H (+) H ----


def block2x2(tl, tr, bl, br) -> np.ndarray:
    """Assemble [[TL, TR], [BL, BR]].  Scalars broadcast to scaled identities."""
    mats = []
    dim = None
    for x in (tl, tr, bl, br):
        if np.isscalar(x):
            mats.append(x)
            continue
        m = as_operator(x)
        if dim is None:
            dim = m.shape[0]
        elif m.shape[0] != dim:
            raise ValueError("blocks must share one dimension")
        mats.append(m)
    if dim is None:
        raise ValueError("at least one block must be a matrix")
    eye = np.eye(dim)
    mats = [m * eye if np.isscalar(m) else m for m in mats]
    return np.block([[mats[0], mats[1]], [mats[2], mats[3]]])


def quad_form(m: np.ndarray, v: np.ndarray) -> float:
    """Re <M v, v>.  Equals <sym(M) v, v>, which is real."""
    return float(np.vdot(v, m @ v).real)
