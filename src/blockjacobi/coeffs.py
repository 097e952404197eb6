"""Coefficient families a_n (invertible), b_n (self-adjoint) and the scalar
weight sequences used to build them, together with sequence diagnostics:
total N-variation, Carleman sums, and the heuristic series verdicts shared by
every summability check in the package.

Families return arrays for index ranges (`CoefficientFamily.stacks`) and
weights evaluate on index arrays (`ScalarWeight.array`); the per-index
accessors read the same arrays.  Instances are treated as immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .opcore import (
    CONDITION_LIMIT,
    HERMITICITY_RTOL,
    DomainError,
    SingularError,
    as_operator,
    condition_limit_mask,
    stack_adj,
    stack_norms,
)

# Default index horizon for whole-family diagnostics.
DEFAULT_HORIZON = 10_000

# Cauchy acceptance threshold for numerical limits of sequences.
CAUCHY_TOL = 1e-8

# A variation window "has converged" when its last tenth contributes less
# than this fraction of the whole partial sum.
VARIATION_CONVERGED_FRACTION = 1e-8

# Series whose largest term sits at or below this level are treated as
# numerically zero.  Every call site feeds normalized (relative) terms, so
# values this small are rounding residue of cancellations, not data.
SERIES_NOISE_FLOOR = 1e-12

# Families with vectorised entries compute at least this many rows at once.
MIN_FILL = 256


# ---- iterated logarithms ----


def iter_log(depth: int, x: float) -> float:
    """log applied depth times; depth 0 is the identity.

    Raises DomainError when an intermediate value is not positive, since the
    next log would be undefined.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    v = float(x)
    for _ in range(depth):
        if v <= 0.0:
            raise DomainError(f"iterated log hit non-positive value {v!r}")
        v = math.log(v)
    return v


def g_product(depth: int, x: float) -> float:
    """Product log(x) * loglog(x) * ... down to depth nested logs; g_0 = 1."""
    out = 1.0
    v = float(x)
    for _ in range(depth):
        if v <= 0.0:
            raise DomainError(f"iterated log hit non-positive value {v!r}")
        v = math.log(v)
        out *= v
    return out


def iter_log_arrays(depth: int, xs) -> tuple[np.ndarray, np.ndarray]:
    """iter_log(depth, x) and g_product(depth, x) for every x of an array."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    v = np.asarray(xs, dtype=float)
    g = np.ones_like(v)
    for _ in range(depth):
        low = v <= 0.0
        if low.any():
            raise DomainError(f"iterated log hit non-positive value {float(v[low][0])!r}")
        v = np.log(v)
        g = g * v
    return v, g


# ---- scalar weights ----


class ScalarWeight:
    """Positive scalar sequence n -> w(n), n >= 0."""

    kind = "abstract"

    def __call__(self, n: int) -> float:
        raise NotImplementedError

    def array(self, ns) -> np.ndarray:
        """w(n) for every n of an integer array; this default calls the
        weight once per index."""
        return np.array([self(int(n)) for n in np.asarray(ns).ravel()], dtype=float)


@dataclass(frozen=True)
class ConstantWeight(ScalarWeight):
    value: float = 1.0
    kind = "constant"

    def __call__(self, n: int) -> float:
        return self.value

    def array(self, ns) -> np.ndarray:
        return np.full(np.shape(ns), float(self.value))


@dataclass(frozen=True)
class PowerWeight(ScalarWeight):
    """(n + offset)^exponent."""

    exponent: float
    offset: int = 1
    kind = "power"

    def __post_init__(self):
        if self.offset < 1:
            raise ValueError("offset must be >= 1")

    def __call__(self, n: int) -> float:
        return float(n + self.offset) ** self.exponent

    def array(self, ns) -> np.ndarray:
        return (np.asarray(ns) + self.offset).astype(float) ** self.exponent


@dataclass(frozen=True)
class TabulatedWeight(ScalarWeight):
    values: tuple[float, ...]
    kind = "tabulated"

    def __call__(self, n: int) -> float:
        return self.values[n]

    def array(self, ns) -> np.ndarray:
        return np.asarray(self.values, dtype=float)[ns]


@dataclass(frozen=True)
class LogProductWeight(ScalarWeight):
    """(n + offset) * log(n+offset) * loglog(n+offset) * ... (depth factors).

    Requires all depth nested logs of the offset to be positive, so the weight
    is positive from n = 0 on.
    """

    depth: int
    offset: int
    kind = "log_product"

    def __post_init__(self):
        if iter_log(self.depth, float(self.offset)) <= 0.0:
            raise DomainError(
                f"offset {self.offset} too small for {self.depth} nested logs"
            )

    def __call__(self, n: int) -> float:
        return (n + self.offset) * g_product(self.depth, float(n + self.offset))

    def array(self, ns) -> np.ndarray:
        m = np.asarray(ns) + self.offset
        return m * iter_log_arrays(self.depth, m)[1]


@dataclass(frozen=True)
class RecipIterLogWeight(ScalarWeight):
    """1 / log^(depth)(n + offset)."""

    depth: int
    offset: int
    kind = "recip_iter_log"

    def __post_init__(self):
        if iter_log(self.depth, float(self.offset)) <= 0.0:
            raise DomainError(
                f"offset {self.offset} too small for {self.depth} nested logs"
            )

    def __call__(self, n: int) -> float:
        return 1.0 / iter_log(self.depth, float(n + self.offset))

    def array(self, ns) -> np.ndarray:
        return 1.0 / iter_log_arrays(self.depth, np.asarray(ns) + self.offset)[0]


def block_index(n: int) -> int:
    """Block number k >= 1 of position n >= 0 when block k is repeated k times.

    Blocks tile the index line as [0], [1,2], [3,4,5], ...; block k starts at
    k(k-1)/2.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return (1 + math.isqrt(8 * n + 1)) // 2


def block_indices(ns) -> np.ndarray:
    """block_index(n) for every n of an integer array."""
    m = 8 * np.asarray(ns, dtype=np.int64) + 1
    if np.any(m < 1):
        raise ValueError("n must be >= 0")
    r = np.sqrt(m).astype(np.int64)
    # exact integer square root: correct the float estimate by one either way
    r -= r * r > m
    r += (r + 1) * (r + 1) <= m
    return (1 + r) // 2


@dataclass(frozen=True)
class BlockSqrtLogWeight(ScalarWeight):
    """k * sqrt(log(k+1)) held constant across block k (repeated k times)."""

    kind = "block_sqrt_log"

    def __call__(self, n: int) -> float:
        k = block_index(n)
        return k * math.sqrt(math.log(k + 1.0))

    def array(self, ns) -> np.ndarray:
        k = block_indices(ns)
        return k * np.sqrt(np.log(k + 1.0))


@dataclass(frozen=True)
class BlockRecipLogWeight(ScalarWeight):
    """1 / (k * log(k+1)) held constant across block k, aligned with the same
    block tiling as BlockSqrtLogWeight."""

    kind = "block_recip_log"

    def __call__(self, n: int) -> float:
        k = block_index(n)
        return 1.0 / (k * math.log(k + 1.0))

    def array(self, ns) -> np.ndarray:
        k = block_indices(ns)
        return 1.0 / (k * np.log(k + 1.0))


WEIGHT_KINDS: dict[str, type] = {
    "constant": ConstantWeight,
    "power": PowerWeight,
    "tabulated": TabulatedWeight,
    "log_product": LogProductWeight,
    "recip_iter_log": RecipIterLogWeight,
    "block_sqrt_log": BlockSqrtLogWeight,
    "block_recip_log": BlockRecipLogWeight,
}


# ---- coefficient families ----


def _fill_ahead(filled: int, stop: int) -> int:
    """Rows a vectorised family fills when rows below stop are needed and
    `filled` exist: half as many again, so that per-index reads stay
    amortised while a read just past a large range (||a_L|| after a
    trajectory to L) leaves at most a third of the rows unused."""
    return max(stop, filled + filled // 2, MIN_FILL)


def _grown(arr: np.ndarray, n: int, rows: np.ndarray) -> np.ndarray:
    """arr[:n] followed by rows.  Writes into arr while it has room and
    otherwise moves to an array of at least twice the capacity; the result
    is read-only, so views handed out stay valid and unmodified."""
    need = n + len(rows)
    if need > len(arr):
        new = np.empty((max(need, 2 * len(arr)),) + arr.shape[1:], arr.dtype)
        new[:n] = arr[:n]
        arr = new
    arr.flags.writeable = True
    arr[n:need] = rows
    arr.flags.writeable = False
    return arr


def _norms_and_inverses(mats: np.ndarray):
    """Operator norms, inverses, condition estimates and the mask of
    matrices past CONDITION_LIMIT (whose inverse rows are left NaN)."""
    s = np.linalg.svd(mats, compute_uv=False)
    cond, bad = condition_limit_mask(s)
    inv = np.full_like(mats, np.nan)
    inv[~bad] = np.linalg.inv(mats[~bad])
    return s[:, 0], inv, cond, bad


class CoefficientFamily:
    """Pair of operator sequences: a(n) invertible, b(n) self-adjoint.

    Entries live in per-family arrays filled together and in index order, one
    each for a_n, b_n, ||a_n|| and a_n^{-1}, whose capacity doubles as they
    grow.  `stacks` returns read-only views of them for an index range and
    the per-index accessors are lookups into the same arrays.  This class
    evaluates user callables once per index and never past the largest
    index requested; subclasses with vectorised entries fill ahead.
    Validation of invertibility and Hermiticity is a separate pass
    (validate_family), so that defective families can still be probed and
    reported on.  Not safe for concurrent use.
    """

    def __init__(self, dim: int, a_fn: Callable[[int], np.ndarray] | None,
                 b_fn: Callable[[int], np.ndarray] | None, description: str = ""):
        self.dim = int(dim)
        self.description = description
        self._a_fn = a_fn
        self._b_fn = b_fn
        d = self.dim
        self._A = np.empty((0, d, d), np.complex128)
        self._B = np.empty((0, d, d), np.complex128)
        self._AINV = np.empty((0, d, d), np.complex128)
        self._NRM = np.empty(0)
        self._n = 0  # rows filled
        self._singular: dict[int, float] = {}  # index -> condition of a_n

    # -- rows for subclasses to supply --

    def _target(self, filled: int, stop: int) -> int:
        """Rows to hold when rows below stop are needed and `filled` exist."""
        return stop

    def _entries(self, lo: int, hi: int):
        """(A, B, error): rows of a and b for indices lo .. hi-1 up to the
        first index where either fails, and that index's error (None when
        none does).  Each callable is evaluated once per index."""
        d = self.dim
        A = np.empty((hi - lo, d, d), np.complex128)
        B = np.empty_like(A)
        for k in range(hi - lo):
            try:
                for fn, rows in ((self._a_fn, A), (self._b_fn, B)):
                    m = as_operator(fn(lo + k))
                    if m.shape != (d, d):
                        raise ValueError(f"expected a {d}x{d} matrix at index {lo + k}, "
                                         f"got shape {m.shape}")
                    rows[k] = m
            except Exception as exc:  # _fill stores the rows before it, then raises it
                return A[:k], B[:k], exc
        return A, B, None

    def _derived(self, lo: int, A: np.ndarray):
        """||a_n||, a_n^{-1}, condition estimates and the mask of those past
        CONDITION_LIMIT, for the rows A of indices lo, lo+1, ..."""
        return _norms_and_inverses(A)

    # -- filling --

    def _fill(self, stop: int) -> None:
        """Rows of a, b, ||a||, a^{-1} and the singular map from the filled
        ones to the target, or to the first index whose a or b fails; its
        error is raised when that index is below stop."""
        if stop <= 0:
            raise ValueError("index must be >= 0")
        lo = self._n
        hi = self._target(lo, stop)
        try:
            A, B, err = self._entries(lo, max(hi, stop))
        except (LookupError, ValueError, ArithmeticError):
            if hi <= stop:
                raise
            A, B, err = self._entries(lo, stop)  # e.g. a weight table shorter than the fill
        nrm, inv, cond, bad = self._derived(lo, A)
        self._A = _grown(self._A, lo, A)
        self._B = _grown(self._B, lo, B)
        self._NRM = _grown(self._NRM, lo, nrm)
        self._AINV = _grown(self._AINV, lo, inv)
        self._singular.update({lo + int(k): float(cond[k]) for k in np.flatnonzero(bad)})
        self._n = lo + len(A)
        if self._n < stop:
            raise err

    def _singular_error(self, n: int) -> SingularError:
        return SingularError(f"a_{n}: condition estimate {self._singular[n]:.3e} "
                             f"exceeds {CONDITION_LIMIT:.1e}")

    # -- reads --

    def stacks(self, start: int, count: int, inverse: bool = True):
        """(A, AINV, B, NRM) for indices start .. start+count-1: read-only
        stacks of a_n, a_n^{-1} and b_n, and the vector of ||a_n||.

        With inverse=False, AINV is None and singular a_n raise nothing;
        otherwise a SingularError names the first index in the range whose
        condition estimate exceeds CONDITION_LIMIT.
        """
        if start < 0:
            raise ValueError("index must be >= 0")
        stop = start + max(count, 0)
        if self._n < stop:
            self._fill(stop)
        ainv = None
        if inverse:
            bad = next((k for k in self._singular if start <= k < stop), None)
            if bad is not None:
                raise self._singular_error(bad)
            ainv = self._AINV[start:stop]
        return self._A[start:stop], ainv, self._B[start:stop], self._NRM[start:stop]

    def a(self, n: int) -> np.ndarray:
        if not 0 <= n < self._n:
            self._fill(n + 1)
        return self._A[n]

    def b(self, n: int) -> np.ndarray:
        if not 0 <= n < self._n:
            self._fill(n + 1)
        return self._B[n]

    def a_inv(self, n: int) -> np.ndarray:
        if not 0 <= n < self._n:
            self._fill(n + 1)
        if n in self._singular:
            raise self._singular_error(n)
        return self._AINV[n]

    def a_inv_rows(self, ns) -> np.ndarray:
        """a_n^{-1} for the indices in the array ns, as one stack; a
        SingularError names the first of them whose condition estimate
        exceeds CONDITION_LIMIT."""
        ns = np.asarray(ns)
        if ns.min(initial=0) < 0:
            raise ValueError("index must be >= 0")
        stop = int(ns.max(initial=-1)) + 1
        if self._n < stop:
            self._fill(stop)
        bad = next((n for n in ns.tolist() if n in self._singular), None)
        if bad is not None:
            raise self._singular_error(bad)
        return self._AINV[ns]

    def norm_a(self, n: int) -> float:
        if not 0 <= n < self._n:
            self._fill(n + 1)
        return float(self._NRM[n])

    def __repr__(self):
        return f"<CoefficientFamily dim={self.dim} {self.description!r}>"


class ScaledPeriodicFamily(CoefficientFamily):
    """a_n = x_n * X_(n mod N), b_n = y_n * Y_(n mod N) with scalar weights
    x, y > 0 and a fixed period of operators of one size.

    Rows come from the weights' arrays, and inverses and norms factor
    through the scalars: a_n^-1 = X_j^-1 / x_n and ||a_n|| = x_n ||X_j||.
    """

    def __init__(self, period: int, x: ScalarWeight, y: ScalarWeight,
                 X: Sequence, Y: Sequence, description: str = ""):
        X = [as_operator(m) for m in X]
        Y = [as_operator(m) for m in Y]
        if len(X) != period or len(Y) != period:
            raise ValueError("need exactly `period` operators for X and Y")
        shapes = sorted({m.shape for m in X + Y})
        if len(shapes) > 1:
            raise ValueError(f"X and Y operators must share one size, got shapes {shapes}")
        super().__init__(X[0].shape[0], None, None, description)
        self.period = period
        self.x = x
        self.y = y
        self.X = X
        self.Y = Y
        self._Xs = np.stack(X)
        self._Ys = np.stack(Y)
        self._X_norm, self._X_inv, self._X_cond, self._X_bad = _norms_and_inverses(self._Xs)

    def _target(self, filled: int, stop: int) -> int:
        return _fill_ahead(filled, stop)

    def _entries(self, lo: int, hi: int):
        ns = np.arange(lo, hi)
        js = ns % self.period
        with np.errstate(over="ignore", invalid="ignore"):
            A = self.x.array(ns)[:, None, None] * self._Xs[js]
            B = self.y.array(ns)[:, None, None] * self._Ys[js]
        ok = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(B).all(axis=(1, 2))
        if ok.all():
            return A, B, None
        k = int(np.argmin(ok))
        return A[:k], B[:k], ValueError("matrix has non-finite entries")

    def _derived(self, lo: int, A: np.ndarray):
        ns = np.arange(lo, lo + len(A))
        js = ns % self.period
        xs = self.x.array(ns)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = self._X_inv[js] / xs[:, None, None]
        return (xs * self._X_norm[js], inv, np.where(xs == 0.0, np.inf, self._X_cond[js]),
                self._X_bad[js] | (xs == 0.0))

    def scalar_arrays(self, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        ns = np.arange(start, start + count)
        return self.x.array(ns), self.y.array(ns)


class TabulatedFamily(CoefficientFamily):
    """Finite tables of a_n and b_n; reading past the end raises IndexError.
    Rows, norms and inverses enter the store on first read, never at
    construction."""

    def __init__(self, A: np.ndarray, B: np.ndarray, description: str = ""):
        super().__init__(A.shape[1], None, None, description)
        self._table_A, self._table_B = A, B
        self.length = len(A)

    def _target(self, filled: int, stop: int) -> int:
        return min(self.length, _fill_ahead(filled, stop))

    def _entries(self, lo: int, hi: int):
        err = None
        if hi > self.length:
            err = IndexError(f"index {self.length} is past the table of {self.length} entries")
        return self._table_A[lo:hi], self._table_B[lo:hi], err


def _operator_table(mats: Sequence) -> np.ndarray:
    """Stack of square, finite complex matrices."""
    t = np.array([np.asarray(m) for m in mats], dtype=np.complex128)
    if t.ndim != 3 or t.shape[1] != t.shape[2] or not len(t):
        raise ValueError(f"expected a non-empty list of square matrices, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("matrix has non-finite entries")
    return t


def constant_family(a, b, description: str = "constant") -> CoefficientFamily:
    # period-1 scaled family with unit weights; a singular a still builds so
    # that validate_family can report on it
    one = ConstantWeight(1.0)
    return ScaledPeriodicFamily(1, one, one, [a], [b], description)


def scaled_periodic_family(period: int, x: ScalarWeight, y: ScalarWeight,
                           X: Sequence, Y: Sequence,
                           description: str = "scaled periodic") -> ScaledPeriodicFamily:
    return ScaledPeriodicFamily(period, x, y, X, Y, description)


def tabulated_family(a_list: Sequence, b_list: Sequence,
                     description: str = "tabulated") -> CoefficientFamily:
    A = _operator_table(a_list)
    B = _operator_table(b_list)
    if A.shape != B.shape:
        raise ValueError(f"a and b tables must hold as many matrices of one size, "
                         f"got shapes {A.shape} and {B.shape}")
    return TabulatedFamily(A, B, description)


def custom_family(dim: int, a_fn: Callable[[int], np.ndarray],
                  b_fn: Callable[[int], np.ndarray],
                  description: str = "custom") -> CoefficientFamily:
    return CoefficientFamily(dim, a_fn, b_fn, description)


@dataclass(frozen=True)
class Violation:
    index: int
    kind: str  # "singular_a" | "non_hermitian_b" | "non_finite"
    detail: str = ""


def validate_family(fam: CoefficientFamily, indices: Sequence[int]) -> list[Violation]:
    """Check invertibility of a_n and self-adjointness of b_n on the indices.

    Reads the family's store: a_n is singular where the store marks it, and
    b_n is self-adjoint up to HERMITICITY_RTOL.  Families evaluate in index
    order, so an index whose a_n or b_n cannot be evaluated is reported as
    non_finite there and at every later one.
    """
    idx = np.fromiter(indices, dtype=np.int64)
    if not len(idx):
        return []
    if idx.min() < 0:
        raise ValueError("index must be >= 0")
    err = ""
    try:
        fam.stacks(0, int(idx.max()) + 1, inverse=False)
    except ValueError as exc:
        err = str(exc)
    have = idx < fam._n
    Bs = fam._B[idx[have]]
    defect = np.zeros(len(idx))
    defect[have] = stack_norms(Bs - stack_adj(Bs))
    scale = np.ones(len(idx))
    scale[have] = np.maximum(1.0, stack_norms(Bs))
    singular = np.isin(idx, np.fromiter(fam._singular, np.int64, len(fam._singular)))
    non_herm = have & (defect > HERMITICITY_RTOL * scale)
    out: list[Violation] = []
    for k in np.flatnonzero(~have | singular | non_herm):
        n = int(idx[k])
        if not have[k]:
            out.append(Violation(n, "non_finite", err))
            continue
        if singular[k]:
            out.append(Violation(n, "singular_a",
                                 f"condition estimate {fam._singular[n]:.3e}"))
        if non_herm[k]:
            out.append(Violation(n, "non_hermitian_b", f"defect {defect[k]:.3e}"))
    return out


# ---- total N-variation ----


@dataclass
class VariationReport:
    N: int
    window: tuple[int, int]
    partial_sum: float
    tail_estimate: float
    converged: bool


def total_variation(seq, N: int, window: tuple[int, int]) -> VariationReport:
    """Windowed total N-variation sum ||seq(n+N) - seq(n)|| for n in [start, end).

    seq is a callable n -> matrix, evaluated once per index on
    [start, end + N), or the stack of those values (row k is index
    start + k).  The report flags convergence when the last tenth of the
    window contributes a negligible fraction, and carries a geometric tail
    extrapolation of the increments.
    """
    start, end = window
    if N < 1:
        raise ValueError("N must be >= 1")
    if end <= start:
        raise ValueError("empty window")
    if callable(seq):
        seq = np.stack([as_operator(seq(n)) for n in range(start, end + N)])
    vals = np.asarray(seq)
    if vals.ndim != 3 or vals.shape[1] != vals.shape[2] or len(vals) != end + N - start:
        raise ValueError(f"expected {end + N - start} square matrices for the window, "
                         f"got shape {vals.shape}")
    incs = stack_norms(vals[N:] - vals[:-N])
    total = float(incs.sum())
    cut = max(1, len(incs) // 10)
    last = float(incs[-cut:].sum())
    converged = (total == 0.0) or (last < VARIATION_CONVERGED_FRACTION * total)
    tail = _geometric_tail(incs)
    return VariationReport(N, (start, end), total, tail, converged)


def _geometric_tail(incs: np.ndarray) -> float:
    """Extrapolated remainder after the window, from the last two tenths."""
    cut = max(1, len(incs) // 10)
    if len(incs) < 2 * cut:
        return float("inf") if incs[-cut:].sum() > 0 else 0.0
    a = float(incs[-2 * cut:-cut].sum())
    b = float(incs[-cut:].sum())
    if b == 0.0:
        return 0.0
    if a <= b:
        return float("inf")
    q = b / a
    return b * q / (1.0 - q)


def sequence_stack(fam: CoefficientFamily, name: str, start: int, count: int) -> np.ndarray:
    """Stack of a derived sequence of the family for n = start .. start+count-1:
    "a", "b", "a_inv", "a_inv_b" (a_n^{-1} b_n) or "a_inv_a_prev"
    (a_n^{-1} a_{n-1}^*)."""
    if name in ("a", "b"):
        A, _, B, _ = fam.stacks(start, count, inverse=False)
        return A if name == "a" else B
    _, AINV, B, _ = fam.stacks(start, count)
    if name == "a_inv":
        return AINV
    if name == "a_inv_b":
        return AINV @ B
    if name == "a_inv_a_prev":
        return AINV @ stack_adj(fam.stacks(start - 1, count, inverse=False)[0])
    raise ValueError(f"unknown sequence {name!r}; known: a, b, a_inv, a_inv_b, a_inv_a_prev")


# ---- series verdicts ----

DIVERGES = "diverges"
CONVERGES = "converges"
UNDECIDED = "undecided"


@dataclass
class SumEvidence:
    """Evidence bundle behind a heuristic series verdict."""

    verdict: str
    partial_sum: float
    count: int
    slope: float | None = None          # log-log slope of terms, last decade
    log_exponent: float | None = None   # fitted p in terms ~ 1/(n log^p n)
    log_exponent_shifted: float | None = None  # same fit with a shift in the log
    window_ratio: float | None = None   # sum(last tenth) / sum(previous tenth)
    tail_estimate: float | None = None  # geometric extrapolation of remainder

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "partial_sum": self.partial_sum,
            "count": self.count,
            "slope": self.slope,
            "log_exponent": self.log_exponent,
            "log_exponent_shifted": self.log_exponent_shifted,
            "window_ratio": self.window_ratio,
            "tail_estimate": self.tail_estimate,
        }


def _fit_slope(xs: np.ndarray, ys: np.ndarray) -> float | None:
    if len(xs) < 5:
        return None
    x = xs - xs.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return None
    return float(np.dot(x, ys - ys.mean()) / denom)


def series_verdict(terms: np.ndarray, first_index: int = 0) -> SumEvidence:
    """Heuristic classification of sum(terms) as a truncated infinite series.

    Term k of the array is understood as index n = first_index + k.  The
    ladder: series at the noise floor converge; geometric tails converge; a last-decade
    log-log slope >= -0.95 diverges (terms decaying no faster than c/n) and
    <= -1.3 converges; slopes in between are refined by fitting the exponent p
    in t_n ~ 1/(n log^p n), since that family straddles the boundary.  The
    refinement cannot settle deeper iterated-log boundaries; those remain
    whatever the p-fit reports, and callers get the evidence either way.
    """
    t = np.asarray(terms, dtype=float)
    if np.any(t < 0):
        raise ValueError("series terms must be non-negative")
    total = float(t.sum())
    count = len(t)
    ev = SumEvidence(UNDECIDED, total, count)
    if count > 0 and float(t.max()) <= SERIES_NOISE_FLOOR:
        ev.verdict = CONVERGES
        ev.tail_estimate = 0.0
        return ev
    if count < 20:
        if total == 0.0:
            ev.verdict = CONVERGES
            ev.tail_estimate = 0.0
        return ev

    cut = max(1, count // 10)
    last = t[-cut:]
    prev = t[-2 * cut:-cut]
    a, b = float(prev.sum()), float(last.sum())
    ev.window_ratio = b / a if a > 0 else None
    if b == 0.0:
        ev.verdict = CONVERGES
        ev.tail_estimate = 0.0
        return ev
    if a > b:
        q = b / a
        ev.tail_estimate = b * q / (1.0 - q)
        if q < 0.5 and ev.tail_estimate < 1e-10 * max(total, 1e-300):
            ev.verdict = CONVERGES
            return ev

    ns = first_index + np.arange(count, dtype=float)
    sel = (t > 0) & (ns >= 1)
    tail_sel = sel & (ns >= ns[-1] * 0.9)
    ev.slope = _fit_slope(np.log(ns[tail_sel]), np.log(t[tail_sel])) if tail_sel.sum() >= 5 else None
    if ev.slope is None:
        return ev
    if ev.slope >= -0.95:
        ev.verdict = DIVERGES
        return ev
    if ev.slope <= -1.30:
        ev.verdict = CONVERGES
        return ev

    # boundary band: peel the 1/n factor and fit the exponent p of
    # t_n ~ 1/(n log^p n) two ways, against log(log n) and against
    # log(s + log n) with the shift s chosen by least squares.  The plain fit
    # is biased low when the data's effective logarithm carries a shift, the
    # shifted fit is biased high when the polynomial factor carries an offset,
    # so the two straddle the truth for the scales handled here.
    wide = sel & (ns >= max(10.0, ns[-1] / 100.0)) & (ns >= 3.0)
    if wide.sum() >= 10:
        ln = np.log(ns[wide])
        y = np.log(t[wide]) + ln
        p_flat = _fit_slope(np.log(ln), y)
        p_shift = None
        best_ssr = None
        for sft in np.linspace(0.0, 3.0, 31):
            if sft + ln[0] < 0.5:
                continue
            x = np.log(sft + ln)
            p = _fit_slope(x, y)
            if p is None:
                continue
            resid = (y - y.mean()) - p * (x - x.mean())
            ssr = float(np.dot(resid, resid))
            if best_ssr is None or ssr < best_ssr:
                best_ssr, p_shift = ssr, p
        ps = [-q for q in (p_flat, p_shift) if q is not None]
        ev.log_exponent = -p_flat if p_flat is not None else None
        ev.log_exponent_shifted = -p_shift if p_shift is not None else None
        if ps:
            if min(ps) <= 1.20:
                ev.verdict = DIVERGES
            elif max(ps) >= 1.35:
                ev.verdict = CONVERGES
    return ev


def vanishing_verdict(values: np.ndarray) -> tuple[bool, dict]:
    """Does the non-negative sequence tend to zero?  Compares the last decade
    against the first."""
    v = np.asarray(values, dtype=float)
    if len(v) < 20:
        return bool(np.all(v == 0.0)), {"last_max": float(v.max(initial=0.0))}
    cut = max(1, len(v) // 10)
    head = float(v[:cut].max())
    tail = float(v[-cut:].max())
    ok = tail <= max(1e-12, 1e-2 * head)
    return ok, {"first_decade_max": head, "last_decade_max": tail}


def bounded_verdict(values: np.ndarray) -> tuple[bool, dict]:
    """Does the sequence stay bounded?  A last-decade maximum clearly above
    everything earlier reads as growth."""
    v = np.asarray(values, dtype=float)
    if len(v) < 20:
        return True, {"max": float(v.max(initial=0.0))}
    cut = max(1, len(v) // 10)
    head = float(v[:-cut].max())
    tail = float(v[-cut:].max())
    ok = tail <= 1.05 * max(head, 1e-300)
    return ok, {"head_max": head, "last_decade_max": tail}


# ---- sequence limits (matrix valued) ----


def _aitken(s1: np.ndarray, s2: np.ndarray, s3: np.ndarray) -> np.ndarray:
    """Entrywise Aitken extrapolation from samples at geometrically spaced
    indices; exact for limits approached like c * n^(-p) or c * r^n.  An
    entry whose extrapolant is not finite (second differences too large to
    square) keeps its raw value s3."""
    d1 = s2 - s1
    d2 = s3 - s2
    denom = d2 - d1
    scale = max(float(np.abs(s3).max()), 1.0)
    out = s3.astype(np.complex128).copy()
    with np.errstate(all="ignore"):
        ext = s3 - d2 ** 2 / denom
    ok = (np.abs(denom) > 1e-14 * scale) & np.isfinite(ext)
    out[ok] = ext[ok]
    return out


def _neville_at_zero(ts: Sequence[float], ys: Sequence[np.ndarray]) -> np.ndarray:
    """Polynomial extrapolation of samples y_i = f(t_i) to t = 0, entrywise.

    With t = 1/n and exact abscissas this is Richardson extrapolation; it
    collapses smooth 1/n tails regardless of how the sample indices round.
    """
    cur = [np.asarray(y, dtype=np.complex128) for y in ys]
    for m in range(1, len(cur)):
        cur = [
            (ts[i] * cur[i + 1] - ts[i + m] * cur[i]) / (ts[i] - ts[i + m])
            for i in range(len(cur) - 1)
        ]
    return cur[0]


@dataclass
class SequenceLimit:
    value: np.ndarray
    residual: float
    converged: bool
    method: str  # "cauchy" | "extrapolated" | "none"


def sequence_limit(getter: Callable[[int], np.ndarray], indices: Sequence[int],
                   tol: float = CAUCHY_TOL) -> SequenceLimit:
    """Numerical limit of getter(n) along the given increasing index list:
    stack_limit with the terms read one index at a time."""
    return stack_limit(
        lambda ns: np.stack([np.asarray(getter(n), dtype=np.complex128) for n in ns]),
        indices, tol)


def stack_limit(take: Callable[[np.ndarray], np.ndarray], indices: Sequence[int],
                tol: float = CAUCHY_TOL) -> SequenceLimit:
    """Numerical limit of a matrix sequence along the given increasing index
    list, where take(ns) returns the terms at the index array ns as a stack.

    Accepts by the plain Cauchy rule over the last decade of indices; when
    the raw terms still drift (slow power tails), falls back to Aitken
    extrapolation over geometrically spaced samples and accepts when two
    staggered extrapolations agree.
    """
    idx = np.asarray(indices)
    if len(idx) < 16:
        return SequenceLimit(take(idx[-1:])[0], float("inf"), False, "none")
    cut = max(2, len(idx) // 10)
    vals = np.asarray(take(idx[-cut:]), dtype=np.complex128)
    # drift across the whole last decade, not between neighbours: slow
    # monotone tails have tiny consecutive steps but large remaining drift
    raw_res = float(stack_norms(vals - vals[-1]).max())
    scale = max(1.0, float(np.linalg.norm(vals[-1], 2)))
    if raw_res < tol * scale:
        return SequenceLimit(vals[-1], raw_res, True, "cauchy")

    k = len(idx) - 1
    picks = sorted({k // 32, k // 16, k // 8, k // 4, k // 2, k})
    if len(picks) == 6 and picks[0] >= 1:
        s = list(np.asarray(take(idx[picks]), dtype=np.complex128))
        a = [_aitken(s[i], s[i + 1], s[i + 2]) for i in range(4)]
        ext_scale = max(1.0, float(np.linalg.norm(a[3], 2)))
        first_res = float(np.linalg.norm(a[3] - a[2], 2))
        if first_res < tol * ext_scale:
            return SequenceLimit(a[3], first_res, True, "extrapolated")
        # iterate once more on the extrapolants themselves and accept when
        # the two staggered second-stage values agree
        b1 = _aitken(a[0], a[1], a[2])
        b2 = _aitken(a[1], a[2], a[3])
        second_res = float(np.linalg.norm(b2 - b1, 2))
        if second_res < tol * max(1.0, float(np.linalg.norm(b2, 2))):
            return SequenceLimit(b2, second_res, True, "extrapolated")
        # Richardson in 1/n with the exact sample indices; staggered
        # agreement (with and without the farthest node) gates acceptance
        ts = [1.0 / idx[j] for j in picks]
        v_full = _neville_at_zero(ts, s)
        v_part = _neville_at_zero(ts[1:], s[1:])
        rich_res = float(np.linalg.norm(v_full - v_part, 2))
        if rich_res < tol * max(1.0, float(np.linalg.norm(v_full, 2))):
            return SequenceLimit(v_full, rich_res, True, "extrapolated")
    return SequenceLimit(vals[-1], raw_res, False, "none")


# ---- Carleman diagnostic ----


@dataclass
class CarlemanReport:
    horizon: int
    partial_sum: float
    evidence: SumEvidence

    @property
    def verdict(self) -> str:
        return self.evidence.verdict


def carleman_diagnostic(fam: CoefficientFamily, horizon: int = DEFAULT_HORIZON) -> CarlemanReport:
    """Partial sums of 1/||a_n|| with a divergence verdict.

    Divergence of this sum is the classical sufficient condition for the
    matrix to be essentially self-adjoint; its failure opens the door to
    complete indeterminacy.
    """
    terms = 1.0 / fam.stacks(0, horizon, inverse=False)[3]
    ev = series_verdict(terms, first_index=0)
    return CarlemanReport(horizon, float(terms.sum()), ev)
