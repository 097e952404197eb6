"""Finite dimensional operator calculus on H = C^d and on H (+) H.

Every helper acts on the last two axes, so one (d, d) matrix and a stack
(..., d, d) take the same code; a float for one matrix is an array for a
stack.  One matrix is checked by as_operator.  A stack is taken as computed
(an overflowed product keeps a non-finite norm), except by require_hermitian,
its readers and conditioning, which refuse non-finite entries.  Block
operators on H (+) H are (2d, 2d) (np.block); decompositions use numpy.linalg.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

# Hermiticity is accepted up to this deviation, relative to the operator norm.
HERMITICITY_RTOL = 1e-10

# Inverses past this condition number estimate are treated as singular.
CONDITION_LIMIT = 1e12

# Default margin separating "strictly" definite from degenerate eigenvalues.
DEFINITENESS_EPS = 1e-9

_TINY = np.finfo(np.float64).tiny

# LAPACK's constants for a symmetric eigenproblem in binary64: the rounding
# unit dlamch('E'); dsyevd scales a matrix whose largest entry lies outside
# [2^-485, 2^485] to that bound, and dsterf a tridiagonal matrix whose
# largest entry lies below 2^-405 up to it.
_EPS = 2.0 ** -53
_EIG_RMIN, _EIG_RMAX, _EIG_SSFMIN = 2.0 ** -485, 2.0 ** 485, 2.0 ** -405


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


# The classes as classify_definiteness indexes them.
_CLASSES = np.array([Definiteness.STRICTLY_POSITIVE, Definiteness.STRICTLY_NEGATIVE,
                     Definiteness.INDEFINITE, Definiteness.DEGENERATE], dtype=object)


def _as_operators(x) -> np.ndarray:
    """Coerce to complex128 square matrices on the last two axes (one matrix
    or a stack), rejecting non-finite entries."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def as_operator(x) -> np.ndarray:
    """Coerce to a square complex128 matrix, rejecting non-finite entries."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return _as_operators(a)


def _operand(x) -> np.ndarray:
    """A stack as it is; anything else through as_operator."""
    a = np.asarray(x)
    return a if a.ndim > 2 else as_operator(a)


def _per_matrix(v: np.ndarray):
    """A Python float for one matrix's value, the array for a stack's."""
    return float(v) if v.ndim == 0 else v


def singular_extremes(x):
    """(largest, smallest) singular value of every matrix of a stack.

    A 2x2 stack with finite entries takes a closed form.  Each matrix M is
    scaled by 2^-e, e the exponent of its largest entry component, so no
    product overflows or underflows.  With p, r the squared column norms and
    q the off-diagonal entry of M^*M,

        s_max = 2^e sqrt((p + r)/2 + sqrt(((p - r)/2)^2 + |q|^2)),
        s_min = 2^e |det M| / s_max  (0 for the zero matrix),

    sums of non-negative terms that do not cancel near s_max = s_min.  Only
    real products and sums in a fixed order are taken, so one matrix and its
    row of a stack give the same bits.  Other sizes, and a stack with a
    non-finite entry, take LAPACK's values and outcomes."""
    a = np.asarray(x)
    if a.shape[-2:] == (2, 2):
        # u[i, j, c, k]: component c (re, im) of entry (i, j) of matrix k, one
        # copy that reads a stack holding the index innermost plane by plane
        m = a.reshape(-1, 4).T
        u = np.empty((4, 2, m.shape[1]))
        u[:, 0], u[:, 1] = m.real, m.imag
        u = u.reshape(8, -1)
        big = np.abs(u).max(axis=0)
        if np.isfinite(big).all():
            e = np.frexp(big)[1]
            u = np.ldexp(u, -e).reshape(2, 2, 2, -1)
            sq = u * u
            sq = sq[0] + sq[1]
            p, r = sq[:, 0] + sq[:, 1]
            # t[c, c']: sum over rows i of component c of m_i1 times c' of m_i2
            t = u[:, 0, :, None] * u[:, 1, None, :]
            t = t[0] + t[1]
            q_re, q_im = t[0, 0] + t[1, 1], t[0, 1] - t[1, 0]
            # t[c, c']: component c of m_11 times c' of m_22, less that of m_12 and m_21
            t = u[0, :, :, None] * u[1, ::-1, None, :]
            t = t[0] - t[1]
            det_re, det_im = t[0, 0] - t[1, 1], t[0, 1] + t[1, 0]
            half_gap = (p - r) * 0.5
            s_max = np.sqrt((p + r) * 0.5
                            + np.sqrt(half_gap * half_gap + (q_re * q_re + q_im * q_im)))
            # after scaling, s_max >= 1/2 unless M = 0, where det M = 0 too
            s_min = (np.sqrt(det_re * det_re + det_im * det_im)
                     / np.maximum(s_max, _TINY))
            shape = a.shape[:-2]
            return np.ldexp(s_max, e).reshape(shape), np.ldexp(s_min, e).reshape(shape)
    s = np.linalg.svd(a, compute_uv=False)
    return s[..., 0], s[..., -1]


def _dlae2_extremes(p, b, r, split):
    """(smallest, largest) eigenvalue of [[p, b], [b, r]] (b >= 0) as dsterf
    takes a 2x2 matrix it does not scale: p and r where split (its first
    test for a negligible b, made by the caller) or its second test holds,
    else dlae2's

        rt = m sqrt(1 + (m'/m)^2),  m, m' = max, min of |p - r| and 2b,
        rt1 = (p + r + rt)/2, or (p + r - rt)/2 where p + r < 0,
        rt2 = (acmx/rt1) acmn - (b/rt1) b,

    acmx and acmn the diagonal entries of larger and smaller modulus (for
    p + r = 0, rt1, rt2 = rt/2, -rt/2)."""
    e2 = b * b
    b = np.sqrt(e2)
    split = split | (e2 <= (_EPS * _EPS) * np.abs(p * r))
    # the split rows (the zero matrix among them) may reach 0/0
    with np.errstate(invalid="ignore", divide="ignore"):
        sm = p + r
        adf = np.abs(p - r)
        ab = b + b
        m = np.maximum(adf, ab)
        rt = m * np.sqrt(1.0 + (np.minimum(adf, ab) / m) ** 2)
        rt1 = 0.5 * (sm + np.where(sm < 0, -rt, rt))
        wide = np.abs(p) > np.abs(r)
        rt2 = np.where(sm == 0, -0.5 * rt,
                       (np.where(wide, p, r) / rt1) * np.where(wide, r, p) - (b / rt1) * b)
        return (np.where(split, np.minimum(p, r), np.minimum(rt1, rt2)),
                np.where(split, np.maximum(p, r), np.maximum(rt1, rt2)))


def _hermitian_2x2_extremes(a):
    """(smallest, largest) eigenvalue of sym(M) for every M of a finite 2x2
    stack, by LAPACK's own rules for a 2x2 symmetric matrix.

    With p, r the diagonal of sym(M) and b = |q| its off-diagonal modulus,
    [[p, b], [b, r]] takes dsyevd's scaling, dsterf's first test for a
    negligible b and its scaling of a tiny matrix, then _dlae2_extremes;
    every factor is exactly 1 for a matrix whose largest entry lies in
    [2^-405, 2^485].  On real entries this is eigvalsh's own arithmetic, so
    the results have its bits; for a complex q LAPACK's unitary reduction to
    real form also rounds r, and the two differ by a few ulps of the largest
    eigenvalue modulus."""
    p = a[..., 0, 0].real
    r = a[..., 1, 1].real
    b = np.abs(a[..., 1, 0] + np.conj(a[..., 0, 1])) * 0.5
    big = np.maximum(np.maximum(np.abs(p), np.abs(r)), b)
    sigma = np.divide(np.clip(big, _EIG_RMIN, _EIG_RMAX), big,
                      out=np.ones_like(big), where=big > 0)
    p, b, r, big = p * sigma, b * sigma, r * sigma, big * sigma
    split = b <= np.sqrt(np.abs(p)) * np.sqrt(np.abs(r)) * _EPS
    tau = np.divide(np.maximum(big, _EIG_SSFMIN), big, out=np.ones_like(big), where=big > 0)
    lo, hi = _dlae2_extremes(p * tau, b * tau, r * tau, split)
    undo = big / np.maximum(big, _EIG_SSFMIN)
    back = 1.0 / sigma
    return (np.where(split, np.minimum(p, r), lo * undo) * back,
            np.where(split, np.maximum(p, r), hi * undo) * back)


def adj(x) -> np.ndarray:
    """Adjoint (conjugate transpose)."""
    return np.swapaxes(np.conj(x), -1, -2)


def stack_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[n] @ b[n] over stacks (n, d, d) and (n, d, k) of small matrices, as
    d broadcast multiply-adds over the contracted axis, in index order, in
    the operands' layout: on stacks that hold the index innermost, as a
    family's stores do, they run along the rows, about 2x faster than on
    C-order stacks.  A batched matmul pays a fixed cost per matrix, so this
    is faster for d <= 3 (about 5x at d = 2) and about even at d = 4.  Each
    entry keeps the dot-product error bound |fl(AB) - AB| <= gamma_d |A||B|,
    and each row of the result depends on that row of a and b alone."""
    out = a[:, :, :1] * b[:, None, 0]
    for j in range(1, a.shape[2]):
        out += a[:, :, j:j + 1] * b[:, None, j]
    return out


def sym(x) -> np.ndarray:
    """Self-adjoint part (X + X^*) / 2."""
    a = _operand(x)
    return (a + adj(a)) / 2.0


def op_norm(x):
    """Operator norm (largest singular value)."""
    return _per_matrix(singular_extremes(_operand(x))[0])


def _finite_rows(f, x) -> np.ndarray:
    """f of the stack of x's finite matrices, one call, and NaN for each
    matrix with a non-finite entry."""
    a = np.asarray(x)
    finite = np.isfinite(a).all(axis=(-2, -1))
    if finite.all():
        return f(a)
    out = np.full(finite.shape, np.nan)
    out[finite] = f(a[finite])
    return out


def op_norms(x) -> np.ndarray:
    """op_norm of every finite matrix of a stack, from one singular_extremes
    call, and NaN for the others, on each of which op_norm raises; a row
    has the bits op_norm gives its matrix alone."""
    return _finite_rows(lambda a: singular_extremes(a)[0], x)


def op_norm_from(norm, m) -> float:
    """op_norm(m) from its op_norms value: that float, or op_norm's
    ValueError where m is not finite."""
    return op_norm(m) if math.isnan(norm) else float(norm)


def herm_defect(x):
    """Operator-norm distance from x to its adjoint; 0.0, with no singular
    value taken, where x equals its adjoint entry for entry (as both
    singular value kernels give for the zero matrix)."""
    g = x - adj(x)
    nonzero = np.any(g != 0, axis=(-2, -1))
    defect = np.zeros(nonzero.shape)
    if nonzero.any():
        defect[nonzero] = singular_extremes(g[nonzero])[0]
    return _per_matrix(defect)


def hermiticity(x):
    """(defect, offends): herm_defect, and whether it goes past
    HERMITICITY_RTOL * max(1, ||x||).  A defect within HERMITICITY_RTOL never
    does, so only the matrices past it have their norm taken."""
    a = np.asarray(x)
    defect = np.asarray(herm_defect(a))
    offends = np.asarray(defect > HERMITICITY_RTOL)
    if offends.any():
        norm = singular_extremes(a[offends])[0]
        offends[offends] = defect[offends] > HERMITICITY_RTOL * np.maximum(1.0, norm)
    return _per_matrix(defect), offends


def require_hermitian(x) -> np.ndarray:
    """sym(x) for self-adjoint x; NotHermitianError names the defect of the
    first matrix that fails hermiticity, and the allowance it went past."""
    a = _as_operators(x)
    defect, offends = hermiticity(a)
    if np.any(offends):
        k = np.argmax(offends)
        allowance = HERMITICITY_RTOL * max(1.0, op_norm(a.reshape(-1, *a.shape[-2:])[k]))
        raise NotHermitianError("matrix deviates from self-adjointness by %.3e (allowed %.3e)"
                                % (np.ravel(defect)[k], allowance))
    return sym(a)


def neg_part(x) -> np.ndarray:
    """Negative part X^- of a self-adjoint X, so that X = X^+ - X^- with
    X^+, X^- >= 0 commuting.  Spectral mapping t -> max(0, -t)."""
    w, v = np.linalg.eigh(require_hermitian(x))
    return (v * np.maximum(0.0, -w)[..., None, :]) @ adj(v)


def _self_adjoint_extremes(h: np.ndarray):
    """(smallest, largest) eigenvalue of every matrix of a finite
    self-adjoint stack: the 2x2 kernel, LAPACK's eigvalsh for other sizes.
    The kernel reads sym(H) off H's entries, so a 2x2 H need not be
    self-adjoint: it gives the eigenvalues of sym(H)."""
    if h.shape[-2:] == (2, 2):
        return _hermitian_2x2_extremes(h)
    w = np.linalg.eigvalsh(h)
    return w[..., 0], w[..., -1]


def stack_neg_part_norms(x: np.ndarray) -> np.ndarray:
    """||sym(X)^-|| for every X in a stack: the negative part's norm is
    max(0, -smallest eigenvalue of sym(X)).  NaN for a matrix with a
    non-finite entry; the others are one stack, formed as sym(X) only for
    eigvalsh, at sizes other than 2x2."""
    return _finite_rows(lambda a: np.maximum(0.0, -_self_adjoint_extremes(
        a if a.shape[-2:] == (2, 2) else sym(a))[0]), x)


def abs_val(x) -> np.ndarray:
    """Operator absolute value |X| = (X^* X)^(1/2), via singular values."""
    _, s, vh = np.linalg.svd(_operand(x))
    return (adj(vh) * s[..., None, :]) @ vh


def hermitian_extremes(x):
    """(smallest, largest) eigenvalue of a self-adjoint matrix, from the
    2x2 kernel or eigvalsh as stack_neg_part_norms takes them."""
    lo, hi = _self_adjoint_extremes(require_hermitian(x))
    return _per_matrix(lo), _per_matrix(hi)


def classify_definiteness(x, eps: float = DEFINITENESS_EPS):
    """Classify a self-adjoint matrix by its spectrum against the margin eps;
    a stack gives the list of its matrices' classes.

    Strictly positive: all eigenvalues > eps.  Strictly negative: all < -eps.
    Degenerate: some eigenvalue within eps of zero.  Indefinite otherwise.
    """
    w = np.linalg.eigvalsh(require_hermitian(x))
    degenerate = np.any(np.abs(w) <= eps, axis=-1)
    k = np.where(w[..., 0] > eps, 0, np.where(w[..., -1] < -eps, 1, 2 + degenerate))
    return np.asarray(_CLASSES[k]).tolist()


def conditioning(x):
    """(norm, condition estimate, past CONDITION_LIMIT) from the extreme
    singular values; a rank deficient matrix has condition inf."""
    s_max, s_min = singular_extremes(_as_operators(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(s_min == 0.0, np.inf, s_max / s_min)
    return _per_matrix(s_max), _per_matrix(cond), ~(cond <= CONDITION_LIMIT)


def condition_estimate(x):
    """2-norm condition number from singular values (inf if rank deficient)."""
    return conditioning(x)[1]


def invert(x) -> np.ndarray:
    """Inverse of a well-conditioned matrix.

    Raises SingularError when the condition estimate exceeds CONDITION_LIMIT;
    the estimate (of the first such matrix of a stack) is in the message.
    """
    a = _as_operators(x)
    _, cond, past = conditioning(a)
    if np.any(past):
        raise SingularError(f"condition estimate {np.ravel(cond)[np.argmax(past)]:.3e} "
                            f"exceeds {CONDITION_LIMIT:.1e}")
    return np.linalg.inv(a)


# ---- quadratic forms ----


def quad_form(m: np.ndarray, v: np.ndarray) -> float:
    """Re <M v, v>.  Equals <sym(M) v, v>, which is real."""
    return float(np.vdot(v, m @ v).real)
