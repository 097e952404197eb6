"""Coefficient families a_n (invertible), b_n (self-adjoint) and the scalar
weight sequences used to build them, together with sequence diagnostics:
total N-variation, Carleman sums, and the heuristic series verdicts shared by
every summability check in the package.

Families return arrays for index ranges (`CoefficientFamily.stacks`) and
weights evaluate on index arrays (`ScalarWeight.array`, the one hook a
weight kind supplies).  Each scalar sequence has that one formula: the
per-index accessors, w(n), block_index and iter_log are one-element views of
the arrays.  Instances are treated as immutable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .opcore import (
    CONDITION_LIMIT,
    DomainError,
    SingularError,
    adj,
    as_operator,
    conditioning,
    hermiticity,
    op_norm,
    op_norm_from,
    op_norms,
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


# ---- iterated logarithms ----


def iter_log(depth: int, x: float) -> float:
    """log applied depth times; depth 0 is the identity.  The one-element
    view of iter_log_arrays."""
    return float(iter_log_arrays(depth, x)[0])


def require_nested_logs(depth: int, x: int, name: str) -> None:
    """Raise DomainError unless all depth nested logs of x are positive."""
    try:
        positive = iter_log(depth, float(x)) > 0.0
    except DomainError:  # an intermediate log is not positive
        positive = False
    if not positive:
        raise DomainError(f"{name} {x} too small for {depth} nested logs")


def g_product(depth: int, x: float) -> float:
    """Product log(x) * loglog(x) * ... down to depth nested logs; g_0 = 1.
    A loop on one value, kept as the reference for iter_log_arrays' product."""
    out = 1.0
    v = float(x)
    for _ in range(depth):
        if v <= 0.0:
            raise DomainError(f"iterated log hit non-positive value {v!r}")
        v = math.log(v)
        out *= v
    return out


def iter_log_arrays(depth: int, xs) -> tuple[np.ndarray, np.ndarray]:
    """log applied depth times to every x of an array (depth 0 is the
    identity) and the product of those logs, g_product.  Raises DomainError
    when an intermediate value is not positive: its log is undefined."""
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
    """Positive scalar sequence n -> w(n), n >= 0.  A kind supplies `array`,
    w(n) for every n of an integer array; w(n) is its one-element view."""

    def __call__(self, n: int) -> float:
        return float(self.array(n))

    def array(self, ns) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantWeight(ScalarWeight):
    value: float = 1.0

    def array(self, ns) -> np.ndarray:
        return np.full(np.shape(ns), float(self.value))


@dataclass(frozen=True)
class PowerWeight(ScalarWeight):
    """(n + offset)^exponent."""

    exponent: float
    offset: int = 1

    def __post_init__(self):
        if self.offset < 1:
            raise ValueError("offset must be >= 1")

    def array(self, ns) -> np.ndarray:
        return (np.asarray(ns) + self.offset).astype(float) ** self.exponent


@dataclass(frozen=True)
class TabulatedWeight(ScalarWeight):
    """values[n]; a negative n raises ValueError and reading past the end
    IndexError.  The table is converted to one read-only float array once, at
    construction."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("values must hold at least one entry")
        table = np.array(self.values, dtype=float)
        table.flags.writeable = False
        object.__setattr__(self, "_table", table)

    def array(self, ns) -> np.ndarray:
        ns = np.asarray(ns)
        if not ns.size:  # [] reads as a float array, which numpy refuses as an index
            return np.empty(ns.shape)
        if ns.min() < 0:
            raise ValueError("index must be >= 0")
        past = ns >= len(self._table)
        if past.any():
            raise IndexError(f"index {ns[past].flat[0]} is past the table of "
                             f"{len(self._table)} entries")
        return self._table[ns]


@dataclass(frozen=True)
class LogProductWeight(ScalarWeight):
    """(n + offset) * log(n+offset) * loglog(n+offset) * ... (depth factors).

    Requires all depth nested logs of the offset to be positive, so the weight
    is positive from n = 0 on.
    """

    depth: int
    offset: int

    def __post_init__(self):
        require_nested_logs(self.depth, self.offset, "offset")

    def array(self, ns) -> np.ndarray:
        m = np.asarray(ns) + self.offset
        return m * iter_log_arrays(self.depth, m)[1]


@dataclass(frozen=True)
class RecipIterLogWeight(ScalarWeight):
    """1 / log^(depth)(n + offset)."""

    depth: int
    offset: int

    def __post_init__(self):
        require_nested_logs(self.depth, self.offset, "offset")

    def array(self, ns) -> np.ndarray:
        return 1.0 / iter_log_arrays(self.depth, np.asarray(ns) + self.offset)[0]


def block_index(n: int) -> int:
    """The one-element view of block_indices."""
    return int(block_indices(n))


def block_indices(ns) -> np.ndarray:
    """Block number k >= 1 of every position n >= 0 of an integer array when
    block k is repeated k times.

    Blocks tile the index line as [0], [1,2], [3,4,5], ...; block k starts at
    k(k-1)/2.
    """
    ns = np.asarray(ns, dtype=np.int64)
    if np.any((ns < 0) | (ns >= 2 ** 59)):  # so that 8n + 1 and (r + 1)^2 fit in int64
        raise ValueError("n must be in [0, 2^59)")
    m = 8 * ns + 1
    r = np.sqrt(m).astype(np.int64)
    # exact integer square root: correct the float estimate by one either way
    r -= r * r > m
    r += (r + 1) * (r + 1) <= m
    return (1 + r) // 2


@dataclass(frozen=True)
class BlockSqrtLogWeight(ScalarWeight):
    """k * sqrt(log(k+1)) held constant across block k (repeated k times)."""

    def array(self, ns) -> np.ndarray:
        k = block_indices(ns)
        return k * np.sqrt(np.log(k + 1.0))


@dataclass(frozen=True)
class BlockRecipLogWeight(ScalarWeight):
    """1 / (k * log(k+1)) held constant across block k, aligned with the same
    block tiling as BlockSqrtLogWeight."""

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


def _index_first(buf: np.ndarray) -> np.ndarray:
    """A buffer that holds the index innermost, (..., count), as a
    (count, ...) view, whose base is the buffer."""
    return buf.transpose(-1, *range(buf.ndim - 1))


def _grown(store: np.ndarray, n: int, rows: np.ndarray, most: float) -> np.ndarray:
    """store[:n] followed by rows.  Writes into the store's buffer (its
    base) while it has room and otherwise moves to one whose capacity is the
    smallest power of two above the rows needed, so a read one row past them
    moves nothing, or `most`, the rows a family can hold, if that is less;
    the result is read-only, so views handed out stay valid and unmodified."""
    buf = store.base
    need = n + len(rows)
    if need > len(store):
        new = np.empty(buf.shape[:-1] + (min(1 << need.bit_length(), most),), buf.dtype)
        new[..., :n] = buf[..., :n]
        buf = new
    buf.flags.writeable = True
    _index_first(buf)[n:need] = rows
    buf.flags.writeable = False
    return _index_first(buf)


def _norms_and_inverses(mats: np.ndarray):
    """Operator norms, inverses, condition estimates and the mask of
    matrices past CONDITION_LIMIT (whose inverse rows are left NaN)."""
    nrm, cond, bad = conditioning(mats)
    inv = np.full_like(mats, np.nan)
    inv[~bad] = np.linalg.inv(mats[~bad])
    return nrm, inv, cond, bad


class CoefficientFamily:
    """Pair of operator sequences: a(n) invertible, b(n) self-adjoint.

    Entries live in per-family stores filled together and in index order, one
    each for a_n, b_n, ||a_n|| and a_n^{-1}.  Each holds its matrices with
    the index innermost, a (d, d, capacity) buffer, so that a stack product
    runs along the rows; the capacity is a power of two above the filled rows
    (a table's length at most), so a read one row past them moves nothing.
    `stacks` returns read-only (rows, d, d) views of them for an index range
    and the per-index accessors are its one-row views.  Every family fills
    exactly the rows up to the largest index read, so user callables run
    once per index and never past it; `_entries` supplies a kind's rows.
    Validation of invertibility and Hermiticity is a separate pass
    (validate_family), so that defective families can still be probed and
    reported on.  Not safe for concurrent use.
    """

    _rows_max = math.inf  # the rows a family can hold; a table's length

    def __init__(self, dim: int, a_fn: Callable[[int], np.ndarray] | None,
                 b_fn: Callable[[int], np.ndarray] | None, description: str = ""):
        self.dim = int(dim)
        self.description = description
        self._a_fn = a_fn
        self._b_fn = b_fn
        d = self.dim
        self._A = _index_first(np.empty((d, d, 0), np.complex128))
        self._B = _index_first(np.empty((d, d, 0), np.complex128))
        self._AINV = _index_first(np.empty((d, d, 0), np.complex128))
        self._NRM = _index_first(np.empty(0))
        self._n = 0  # rows filled
        self._error: Exception | None = None  # of the index _n, which failed
        self._singular: dict[int, float] = {}  # index -> condition of a_n

    # -- rows for subclasses to supply --

    def _entries(self, lo: int, hi: int):
        """(A, B, derived, error): rows of a and b for indices lo .. hi-1 up
        to the first index where either fails, their _norms_and_inverses,
        and that index's error (None when none does).  Each callable is
        evaluated once per index."""
        d = self.dim
        A = _index_first(np.empty((d, d, hi - lo), np.complex128))
        B = _index_first(np.empty((d, d, hi - lo), np.complex128))
        err = None
        for k in range(hi - lo):
            try:
                for fn, rows in ((self._a_fn, A), (self._b_fn, B)):
                    m = as_operator(fn(lo + k))
                    if m.shape != (d, d):
                        raise ValueError(f"expected a {d}x{d} matrix at index {lo + k}, "
                                         f"got shape {m.shape}")
                    rows[k] = m
            except Exception as exc:  # _fill stores the rows before it, then raises it
                A, B, err = A[:k], B[:k], exc
                break
        return A, B, _norms_and_inverses(A), err

    # -- filling --

    def _fill(self, stop: int) -> None:
        """Rows of a, b, ||a||, a^{-1} and the singular map from the filled
        ones up to stop, or to the first index whose a or b fails; that
        index's error is raised then, and by every later fill without
        evaluating anything."""
        if self._error is not None:
            raise self._error.with_traceback(None)  # not a traceback that grows per read
        lo = self._n
        A, B, (nrm, inv, cond, bad), err = self._entries(lo, stop)
        self._A = _grown(self._A, lo, A, self._rows_max)
        self._B = _grown(self._B, lo, B, self._rows_max)
        self._NRM = _grown(self._NRM, lo, nrm, self._rows_max)
        self._AINV = _grown(self._AINV, lo, inv, self._rows_max)
        self._singular.update({lo + int(k): float(cond[k]) for k in np.flatnonzero(bad)})
        self._n = lo + len(A)
        self._error = err
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
        return self.stacks(n, 1, inverse=False)[0][0]

    def b(self, n: int) -> np.ndarray:
        return self.stacks(n, 1, inverse=False)[2][0]

    def a_inv(self, n: int) -> np.ndarray:
        return self.stacks(n, 1)[1][0]

    def a_inv_rows(self, ns) -> np.ndarray:
        """a_n^{-1} for the indices in the array ns, of any shape, as one
        stack of shape ns.shape + (d, d); a SingularError names the first of
        them in row-major order whose condition estimate exceeds
        CONDITION_LIMIT."""
        ns = np.asarray(ns)
        if not ns.size:  # [] reads as a float array, which numpy refuses as an index
            ns = ns.astype(int)
        if ns.min(initial=0) < 0:
            raise ValueError("index must be >= 0")
        stop = int(ns.max(initial=-1)) + 1
        if self._n < stop:
            self._fill(stop)
        if self._singular:
            bad = ns[np.isin(ns, list(self._singular))]
            if bad.size:
                raise self._singular_error(int(bad[0]))
        return self._AINV[ns]

    def norm_a(self, n: int) -> float:
        return float(self.stacks(n, 1, inverse=False)[3][0])

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
        # (d, d, period), index innermost as in the stores, so rows are whole planes
        self._Xs = np.stack(X, axis=-1)
        self._Ys = np.stack(Y, axis=-1)
        self._X_norm, X_inv, self._X_cond, self._X_bad = _norms_and_inverses(
            _index_first(self._Xs))
        self._X_inv = X_inv.transpose(1, 2, 0)

    def _entries(self, lo: int, hi: int):
        ns = np.arange(lo, hi)
        js = ns % self.period
        with np.errstate(over="ignore", invalid="ignore"):
            xs = self.x.array(ns)
            A = _index_first(xs * self._Xs.take(js, -1))
            B = _index_first(self.y.array(ns) * self._Ys.take(js, -1))
        ok = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(B).all(axis=(1, 2))
        k = len(ns) if ok.all() else int(np.argmin(ok))
        xs, js = xs[:k], js[:k]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inv = _index_first(self._X_inv.take(js, -1) / xs)
        derived = (xs * self._X_norm[js], inv, np.where(xs == 0.0, np.inf, self._X_cond[js]),
                   self._X_bad[js] | (xs == 0.0))
        err = None if k == len(ns) else ValueError("matrix has non-finite entries")
        return A[:k], B[:k], derived, err

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
        self.length = self._rows_max = len(A)

    def _entries(self, lo: int, hi: int):
        err = None
        if hi > self.length:
            err = IndexError(f"index {self.length} is past the table of {self.length} entries")
        A = self._table_A[lo:hi]
        return A, self._table_B[lo:hi], _norms_and_inverses(A), err


def _operator_table(mats: Sequence, name: str) -> np.ndarray:
    """Stack of square, finite complex matrices, a complex128 array held as
    it is; when numpy refuses the list, the error names its first entry that
    is not a matrix of entry 0's shape."""
    try:
        t = np.asarray(mats, dtype=np.complex128)
    except ValueError:
        shapes = []
        for k, m in enumerate(mats):
            try:
                shapes.append(np.asarray(m, dtype=np.complex128).shape)
            except ValueError as exc:
                raise ValueError(f"{name}[{k}]: {exc}") from None
            if shapes[k] != shapes[0]:
                raise ValueError(f"{name}[{k}]: expected a {'x'.join(map(str, shapes[0]))} "
                                 f"matrix, as {name}[0]") from None
        raise
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
    A = _operator_table(a_list, "a")
    B = _operator_table(b_list, "b")
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
    defect = np.zeros(len(idx))
    non_herm = np.zeros(len(idx), dtype=bool)
    defect[have], non_herm[have] = hermiticity(fam._B[idx[have]])
    singular = np.isin(idx, np.fromiter(fam._singular, np.int64, len(fam._singular)))
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
    incs = op_norm(vals[N:] - vals[:-N])
    total = float(incs.sum())
    prev, last = tail_window(incs)
    b = float(last.sum())
    converged = (total == 0.0) or (b < VARIATION_CONVERGED_FRACTION * total)
    tail = geometric_remainder(float(prev.sum()), b)
    return VariationReport(N, (start, end), total, tail, converged)


# The derived sequences of a family that sequence_stack builds.
SEQUENCE_NAMES = ("a", "b", "a_inv", "a_inv_b", "a_inv_a_prev")


def sequence_stack(fam: CoefficientFamily, name: str, start: int, count: int) -> np.ndarray:
    """Stack of the derived sequence `name`, one of SEQUENCE_NAMES, for
    n = start .. start+count-1; "a_inv_b" is a_n^{-1} b_n and "a_inv_a_prev"
    is a_n^{-1} a_{n-1}^*, defined from n = 1 on."""
    if name == "a_inv_a_prev" and start < 1:
        raise ValueError(f"sequence 'a_inv_a_prev' (a_n^-1 a_(n-1)^*) starts at n = 1, "
                         f"not {start}")
    if name in ("a", "b"):
        A, _, B, _ = fam.stacks(start, count, inverse=False)
        return A if name == "a" else B
    _, AINV, B, _ = fam.stacks(start, count)
    if name == "a_inv":
        return AINV
    if name == "a_inv_b":
        return AINV @ B
    if name == "a_inv_a_prev":
        return AINV @ adj(fam.stacks(start - 1, count, inverse=False)[0])
    raise ValueError(f"unknown sequence {name!r}; known: {', '.join(SEQUENCE_NAMES)}")


# ---- series verdicts ----

DIVERGES = "diverges"
CONVERGES = "converges"
UNDECIDED = "undecided"


def tenth(count: int) -> int:
    """The length of a tenth of `count` entries: at least one entry."""
    return max(1, count // 10)


def tail_window(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The next-to-last and the last tenth of a sequence; the next-to-last is
    empty for a sequence of one entry."""
    cut = tenth(len(values))
    return values[-2 * cut:-cut], values[-cut:]


def geometric_remainder(a: float, b: float) -> float:
    """Remainder past a series extrapolated geometrically from the sums a and
    b of the two tenths of its tail_window: b q / (1 - q) with q = b / a; 0
    when b is 0, inf when the tenths do not shrink, NaN when b is NaN."""
    if b == 0.0 or math.isnan(b):
        return b
    if a <= b:
        return math.inf
    q = b / a
    return b * q / (1.0 - q)


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
        return asdict(self)


def _fit_slope(xs: np.ndarray, ys: np.ndarray) -> float | None:
    x = xs - xs.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return None
    return float(np.dot(x, ys - ys.mean()) / denom)


def series_verdict(terms: np.ndarray, first_index: int = 0) -> SumEvidence:
    """Heuristic classification of sum(terms) as a truncated infinite series.

    Term k of the array is understood as index n = first_index + k.  The
    ladder: a series with a term of +inf diverges, and one with a NaN term
    (and no +inf) stays undecided; series at the noise floor converge;
    geometric tails converge; a last-decade log-log slope >= -0.95 diverges
    (terms decaying no faster than c/n) and <= -1.3 converges; slopes in
    between are refined by fitting the exponent p in t_n ~ 1/(n log^p n),
    since that family straddles the boundary (one centred y for every fit;
    the flat fit is the shift-0 fit of the 31 shifts).  The refinement cannot
    settle deeper iterated-log boundaries; those remain whatever the p-fit
    reports, and callers get the evidence either way.
    """
    t = np.asarray(terms, dtype=float)
    if np.any(t < 0):
        raise ValueError("series terms must be non-negative")
    total = float(t.sum())
    count = len(t)
    ev = SumEvidence(UNDECIDED, total, count)
    if np.isposinf(t).any():
        ev.verdict = DIVERGES
        return ev
    if math.isnan(total):  # a NaN term: no fit would see it
        return ev
    if count > 0 and float(t.max()) <= SERIES_NOISE_FLOOR:
        ev.verdict = CONVERGES
        ev.tail_estimate = 0.0
        return ev
    if count < 20:
        if total == 0.0:
            ev.verdict = CONVERGES
            ev.tail_estimate = 0.0
        return ev

    prev, last = tail_window(t)
    a, b = float(prev.sum()), float(last.sum())
    ev.window_ratio = b / a if a > 0 else None
    if b == 0.0:
        ev.verdict = CONVERGES
        ev.tail_estimate = 0.0
        return ev
    if a > b:
        ev.tail_estimate = geometric_remainder(a, b)
        if ev.window_ratio < 0.5 and ev.tail_estimate < 1e-10 * max(total, 1e-300):
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
    wide = sel & (ns >= max(10.0, ns[-1] / 100.0))
    if wide.sum() >= 10:
        ln = np.log(ns[wide])
        yc = np.log(t[wide]) + ln
        yc -= yc.sum() / len(yc)
        xc, resid = np.empty_like(ln), np.empty_like(ln)
        p_flat = p_shift = best_ssr = None
        for sft in np.linspace(0.0, 3.0, 31):  # shift 0 is the flat fit
            np.log(np.add(sft, ln, out=xc), out=xc)
            xc -= xc.sum() / len(xc)
            denom = float(np.dot(xc, xc))
            if denom == 0.0:
                continue
            p = float(np.dot(xc, yc) / denom)
            if sft == 0.0:
                p_flat = p
            np.subtract(yc, np.multiply(p, xc, out=resid), out=resid)
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
    cut = tenth(len(v))
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
    cut = tenth(len(v))
    head = float(v[:-cut].max())
    tail = float(v[-cut:].max())
    ok = tail <= 1.05 * max(head, 1e-300)
    return ok, {"head_max": head, "last_decade_max": tail}


# ---- sequence limits (matrix valued) ----


def _aitken(s1: np.ndarray, s2: np.ndarray, s3: np.ndarray) -> np.ndarray:
    """Entrywise Aitken extrapolation from samples at geometrically spaced
    indices, over stacks of matrices; exact for limits approached like
    c * n^(-p) or c * r^n.  An entry whose extrapolant is not finite (second
    differences too large to square), or whose second difference is not
    clear of its matrix's scale, keeps its raw value s3."""
    d1 = s2 - s1
    d2 = s3 - s2
    denom = d2 - d1
    scale = np.maximum(np.abs(s3).max(axis=(-2, -1), keepdims=True), 1.0)
    out = s3.astype(np.complex128)
    with np.errstate(all="ignore"):
        ext = s3 - d2 ** 2 / denom
    ok = (np.abs(denom) > 1e-14 * scale) & np.isfinite(ext)
    out[ok] = ext[ok]
    return out


def _neville_at_zero(ts: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polynomial extrapolation of samples y_i = f(t_i) to t = 0, entrywise,
    for a stack of sequences, ts (m, k) abscissas and ys (m, k, d, d)
    samples: through all k samples, and through all but the first, an entry
    of the same tableau.

    With t = 1/n and exact abscissas this is Richardson extrapolation; it
    collapses smooth 1/n tails regardless of how the sample indices round.
    """
    t = ts[:, :, None, None]
    cur = ys
    for m in range(1, ys.shape[1]):
        cur = (t[:, :-m] * cur[:, 1:] - t[:, m:] * cur[:, :-1]) / (t[:, :-m] - t[:, m:])
        if len(cur[0]) == 2:
            part = cur[:, 1]
    return cur[:, 0], part


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
    list, where take(ns) returns the terms at the index array ns as a stack:
    the one-sequence view of stack_limits, raising what it returns.

    Accepts by the plain Cauchy rule over the last decade of indices; when
    the raw terms still drift (slow power tails), extrapolates from six
    geometrically spaced samples and accepts the first of three estimates
    whose staggered variants agree: Aitken, Aitken on the Aitken values,
    and Richardson in 1/n.
    """
    lim = stack_limits([take], [indices], tol)[0]
    if isinstance(lim, Exception):
        raise lim
    return lim


def stack_limits(takes: Sequence[Callable[[np.ndarray], np.ndarray]],
                 indices: Sequence[Sequence[int]],
                 tol: float = CAUCHY_TOL) -> list[SequenceLimit | Exception]:
    """stack_limit of many sequences of matrices of one shape, sequence i
    read by takes[i] along indices[i]: per sequence, its SequenceLimit or
    the exception stack_limit raises on it alone.

    Each last decade is read and normed on its own, so only one is held at
    a time.  The last terms' norms are one stack, and so are the
    extrapolants of every sequence the Cauchy rule refuses and then their
    norms.  A row of a norm stack has its matrix's own bits and a sequence
    reads only its own rows, so no outcome depends on the other sequences;
    a norm of a non-finite matrix is taken by op_norm itself, which raises
    where a one-sequence reading reaches it.
    """
    out: list = [None] * len(takes)
    tails = {}  # sequence -> (indices, last term, raw residual)
    for i, (take, idx) in enumerate(zip(takes, indices)):
        idx = np.asarray(idx)
        try:
            if len(idx) < 16:
                out[i] = SequenceLimit(take(idx[-1:])[0], float("inf"), False, "none")
                continue
            vals = np.asarray(take(idx[-max(2, len(idx) // 10):]), dtype=np.complex128)
            # drift across the whole last decade, not between neighbours: slow
            # monotone tails have tiny consecutive steps but large remaining drift
            tails[i] = idx, vals[-1].copy(), float(op_norm(vals - vals[-1]).max())
        except Exception as exc:  # this sequence's outcome; the others go on
            out[i] = exc
        vals = None  # freed before the next decade is read
    refused = {}  # sequence -> (sample indices, samples)
    last_norms = op_norms(np.stack([last for _, last, _ in tails.values()])) if tails else []
    for (i, (idx, last, raw)), nrm in zip(tails.items(), last_norms):
        try:
            if raw < tol * max(1.0, op_norm_from(nrm, last)):
                out[i] = SequenceLimit(last, raw, True, "cauchy")
                continue
            out[i] = SequenceLimit(last, raw, False, "none")  # unless an estimate passes
            k = len(idx) - 1
            picks = sorted({k // 32, k // 16, k // 8, k // 4, k // 2, k})
            if len(picks) == 6 and picks[0] >= 1:
                refused[i] = idx[picks], np.asarray(takes[i](idx[picks]), dtype=np.complex128)
        except Exception as exc:
            out[i] = exc
    if refused:
        s = np.stack([v for _, v in refused.values()])
        ts = 1.0 / np.stack([p for p, _ in refused.values()])
        with np.errstate(all="ignore"):  # non-finite samples are op_norm's to refuse
            a = _aitken(s[:, :4], s[:, 1:5], s[:, 2:])
            # iterate once more on the extrapolants themselves
            b = _aitken(a[:, :2], a[:, 1:3], a[:, 2:])
            # Richardson in 1/n with the exact sample indices, with and
            # without the farthest node
            v_full, v_part = _neville_at_zero(ts, s)
            # each estimate's residual against its staggered variant, then
            # its own norm: the order in which a sequence reads them
            ests = np.stack([a[:, 3], b[:, 1], v_full], axis=1)
            cands = np.stack([a[:, 3] - a[:, 2], a[:, 3], b[:, 1] - b[:, 0], b[:, 1],
                              v_full - v_part, v_full], axis=1)
        norms = op_norms(cands)
        for i, est, cand, nrm in zip(refused, ests, cands, norms):
            try:
                for j in range(3):
                    res = op_norm_from(nrm[2 * j], cand[2 * j])
                    if res < tol * max(1.0, op_norm_from(nrm[2 * j + 1], cand[2 * j + 1])):
                        out[i] = SequenceLimit(est[j], res, True, "extrapolated")
                        break
            except Exception as exc:
                out[i] = exc
    return out


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
    with np.errstate(divide="ignore", over="ignore"):  # a vanishing ||a_n|| gives +inf
        terms = 1.0 / fam.stacks(0, horizon, inverse=False)[3]
    ev = series_verdict(terms, first_index=0)
    return CarlemanReport(horizon, ev.partial_sum, ev)
