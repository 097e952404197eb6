"""Generalised eigenvector propagation for the block three-term recurrence

    a_{n-1}^* u_{n-1} + b_n u_n + a_n u_{n+1} = z u_n,   n >= 1,

its one-step transfer matrices on H (+) H, windowed transfer products, the
fundamental matrix whose combinations are every trajectory at one z, and
square-summability diagnostics of trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coeffs import UNDECIDED, CoefficientFamily, geometric_remainder, tail_window
from .opcore import adj, stack_mul
from .table import Table, write_csv

# Trajectories are truncated once a norm passes this guard.
OVERFLOW_LIMIT = 1e150

# Largest recurrence defect a chunk of the transfer-product path may leave,
# relative to ||a_n|| ||u_{n+1}|| + ||rhs_n||.  A sequential step leaves a few
# units of rounding there; a chunk product applied to a solution that decays
# next to a growing one loses it to cancellation, and leaves far more.  Such a
# chunk is stepped again sequentially.
DEFECT_GATE = 64 * np.finfo(np.float64).eps

# Chunks whose local transfer products are formed, expanded and checked
# together: bounds the extra memory to about 3 CHUNK_GROUP * c * 2d^2
# entries, and an early overflow leaves the products of later groups
# unformed.  The product kernel's calls run over a group's chunks, so a wider
# group costs less per chunk: at 64, one engine call at H = 2000 took 1.2 ms
# against 1.5 ms at 32, while 128 raised the peak memory of an
# asymptotics-1e5 pass from 118 to 124 MB (2-vCPU Xeon, one thread).
CHUNK_GROUP = 64

# Rows of Phi that FundamentalMatrix.samples combines for every start at a
# time, so that the block of output stays in cache through the 2d
# multiply-adds: on a 2-vCPU Xeon, one thread, 20 starts x 1e5 rows took
# 86 ms unblocked and 40-42 ms so.
SAMPLE_ROWS = 2048

SQUARE_SUMMABLE = "square_summable"
NOT_SQUARE_SUMMABLE = "not_square_summable"


def transfer(fam: CoefficientFamily, n: int, z: complex) -> np.ndarray:
    """One-step transfer matrix B_n(z) mapping (u_{n-1}, u_n) to (u_n, u_{n+1});
    defined for n >= 1.  A one-row view of transfer_stack."""
    return transfer_stack(fam, z, n, 1)[0]


def transfer_inv(fam: CoefficientFamily, n: int, z: complex) -> np.ndarray:
    """Inverse of transfer(fam, n, z), written via (a_{n-1}^*)^{-1}."""
    if n < 1:
        raise ValueError("transfer matrices start at n = 1")
    d = fam.dim
    astar_inv = adj(fam.a_inv(n - 1))
    out = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    out[:d, :d] = astar_inv @ (z * np.eye(d) - fam.b(n))
    out[:d, d:] = -astar_inv @ fam.a(n)
    out[d:, :d] = np.eye(d)
    return out


def window_product(fam: CoefficientFamily, z: complex, n: int, N: int) -> np.ndarray:
    """Ordered product B_{n+N-1}(z) ... B_n(z), highest index leftmost, of
    one transfer_stack.

    An empty window (N = 0) gives the identity on H (+) H.
    """
    if N < 0:
        raise ValueError("window length must be >= 0")
    out = np.eye(2 * fam.dim, dtype=np.complex128)
    if N:
        for b in transfer_stack(fam, z, n, N):
            out = b @ out
    return out


def coefficient_stacks(fam: CoefficientFamily, start: int, count: int):
    """Stacked coefficient data for indices start .. start+count-1:
    (A, AINV, B, NRM) with A[k] = a(start+k) etc. and NRM the operator norms
    of a, as read-only views of the family's arrays."""
    return fam.stacks(start, count)


def norm_stack(fam: CoefficientFamily, start: int, count: int) -> np.ndarray:
    """||a_n|| for n = start .. start+count-1 as a vector."""
    return fam.stacks(start, count, inverse=False)[3]


def transfer_stack(fam: CoefficientFamily, z: complex, start: int, count: int) -> np.ndarray:
    """Stacked transfer matrices B_start(z) .. B_{start+count-1}(z), built with
    batched matrix products.  Needs start >= 1, and a_n^{-1} for n >= start
    only."""
    if start < 1:
        raise ValueError("transfer matrices start at n = 1")
    d = fam.dim
    A, _, B, _ = fam.stacks(start - 1, count + 1, inverse=False)
    AINV = fam.stacks(start, count)[1]
    AH = adj(A)
    out = np.zeros((count, 2 * d, 2 * d), dtype=np.complex128)
    eye = np.eye(d)
    out[:, :d, d:] = eye
    out[:, d:, :d] = -(AINV @ AH[:-1])
    out[:, d:, d:] = AINV @ (z * eye - B[1:])
    return out


def formal_eigenvector_start(fam: CoefficientFamily, z: complex, u0: np.ndarray) -> np.ndarray:
    """Initial data (u_0, u_1) with u_1 = a_0^{-1} (z - b_0) u_0, which makes
    the recurrence hold at n = 0 as well (with the convention a_{-1} = 0).
    Its matrices are C-order copies, as in the engine's sequential step."""
    u0 = np.asarray(u0, dtype=np.complex128).reshape(fam.dim)
    u1 = fam.a_inv(0).copy() @ (z * u0 - fam.b(0).copy() @ u0)
    return np.concatenate([u0, u1])


@dataclass
class Trajectory:
    """Solution samples u_0 .. u_L of the recurrence at spectral parameter z.

    residuals[n] is the norm of the recurrence defect of the stored samples,
    a_n u_{n+1} - (z u_n - b_n u_n - a_{n-1}^* u_{n-1}), at interior index n
    (1 <= n <= L-1); entry 0 is unused.  overflow marks trajectories truncated
    by the norm guard, with truncated_at the last stored index.
    """

    z: complex
    alpha: np.ndarray
    u: np.ndarray              # shape (L+1, dim)
    residuals: np.ndarray      # shape (L,), residuals[0] = 0
    overflow: bool = False
    truncated_at: int | None = None

    @property
    def last_index(self) -> int:
        return self.u.shape[0] - 1

    def norms(self) -> np.ndarray:
        """||u_n|| for every stored n.  A row whose plain norm overflows (the
        sample stored past an overflow cut) is scaled by its largest entry
        first: a representable norm stays finite, and any other reads inf."""
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(self.u, axis=1)
            big = np.flatnonzero(np.isinf(norms))
            big = big[np.isfinite(self.u[big]).all(axis=1)]
            if len(big):
                s = np.abs(self.u[big]).max(axis=1)
                norms[big] = s * np.linalg.norm(self.u[big] / s[:, None], axis=1)
        return norms


def initial_data(alphas: Sequence[np.ndarray], d: int) -> np.ndarray:
    """A batch of initial data (u_0, u_1) as the rows of a (k, 2d) array;
    an empty batch or a zero datum raises ValueError."""
    if not len(alphas):
        raise ValueError("empty batch: propagation needs at least one initial datum")
    al = np.stack([np.asarray(a, dtype=np.complex128).reshape(2 * d) for a in alphas])
    if np.any(np.linalg.norm(al, axis=1) == 0.0):
        raise ValueError("initial data must be nonzero")
    return al


def _norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-2) of a complex stack (..., d, k): the same
    products Re(conj(x) x) (numpy's complex product rounds re^2 + im^2
    once), summed over the d components one after another.  That is numpy's
    own order for d < 8, so the result is the same bit for bit there,
    without numpy's reduction over an axis of length d."""
    s = (x.conj() * x).real
    out = s[..., 0, :]
    for j in range(1, s.shape[-2]):
        out = out + s[..., j, :]
    return np.sqrt(out)


def _chunk_products(AINV: np.ndarray, A: np.ndarray, B: np.ndarray, z: complex,
                    lo: int, hi: int, c: int) -> np.ndarray:
    """Local prefix products of the transfer matrices of steps lo .. hi-1,
    cut into chunks of c steps, by their lower halves.

    With m = lo + j c the start of chunk j, out[j, i + 2] is the lower half
    of B_{m+i}(z) ... B_m(z), which maps (u_{m-1}, u_m) to u_{m+i+1}, and
    out[j, 0], out[j, 1] are [Id, 0] and [0, Id]; the whole product is the
    window out[j, i + 1 : i + 3].  The last chunk is padded with steps that
    repeat u_n.

    The products are formed with the chunk axis last, so that each numpy
    call runs over every chunk of the group (a batched matmul makes one BLAS
    call per chunk): a step is one broadcast product of its lower half with
    the two rows before it, the 2d terms of the contraction, and one sum of
    the terms in index order.  Elementwise arithmetic does not depend on the
    length of the axis, so a chunk's products keep their bits in a group of
    any size.  They are returned chunk-major, as one copy, so that each
    chunk's products are one contiguous matrix.
    """
    d = B.shape[1]
    cnt = hi - lo
    n = -(-cnt // c)
    eye = np.eye(d)
    ainv = AINV[lo - 1:hi - 1]
    P = np.zeros((d, 2 * d, n * c), dtype=np.complex128)  # index innermost, as the stacks
    lower = P.transpose(2, 0, 1)
    lower[:cnt, :, :d] = -stack_mul(ainv, adj(A[lo - 1:hi - 1]))
    lower[:cnt, :, d:] = stack_mul(ainv, z * eye - B[lo:hi])
    lower[cnt:, :, d:] = eye
    # L[i, t, :, 0, j]: column t of the lower half of step i of chunk j
    L = np.ascontiguousarray(P.reshape(d, 2 * d, n, c).transpose(3, 1, 0, 2))[:, :, :, None]
    Q = np.empty((c + 2, d, 2 * d, n), dtype=np.complex128)
    Q[:2] = np.eye(2 * d).reshape(2, d, 2 * d, 1)
    terms = np.empty((2 * d, d, 2 * d, n), dtype=np.complex128)
    for i in range(c):
        np.multiply(L[i], Q[i:i + 2].reshape(2 * d, 1, 2 * d, n), out=terms)
        np.add.reduce(terms, axis=0, out=Q[i + 2])
    return np.ascontiguousarray(Q.transpose(3, 0, 1, 2))


def _propagate(fam: CoefficientFamily, z: complex, alphas: Sequence[np.ndarray],
               horizon: int) -> list[Trajectory]:
    """The engine behind every trajectory: solve the recurrence for a batch
    of initial data (u_0, u_1) = alpha up to index `horizon`.

    The steps n = 1 .. horizon-1 are cut into chunks of c = isqrt(horizon-1)
    steps.  The transfer products local to each chunk are formed for
    CHUNK_GROUP chunks at a time, each numpy call over all of them
    (_chunk_products); then each chunk's samples come from one product of
    its stacked prefix products with the boundary state (u_{m-1}, u_m) its
    predecessor left.  A group's chunks are expanded so in order, and the
    recurrence defects of the stored samples are evaluated once over the
    whole group, their norms as sums over the d components (_norms).  The
    first chunk of the group whose samples are non-finite or near
    OVERFLOW_LIMIT, or whose defect anywhere exceeds DEFECT_GATE, is stepped
    again from its boundary state by the sequential step, which solves for
    u_{n+1} through a_n^{-1}; the chunks after it are expanded again from
    its new boundary and checked together.  So every
    sample and defect is the one a check chunk by chunk leaves, and the
    batch is cut exactly where the sequential step cuts it: at the first
    step where any column passes OVERFLOW_LIMIT.  Columns actually past the
    limit carry the overflow flag, the rest are merely shortened
    (truncated_at is set for all of them).
    """
    d = fam.dim
    al = initial_data(alphas, d)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    k = al.shape[0]
    A, _, B, NRM = fam.stacks(0, horizon, inverse=False)
    AINV = fam.stacks(1, horizon - 1)[1]  # AINV[n - 1] = a_n^{-1}
    # samples with the index innermost, as in the family's stores, read
    # through ut[n] = (u_n of every column)
    U = np.zeros((k, d, horizon + 1), dtype=np.complex128)
    res = np.zeros((k, horizon))
    ut, rt = U.transpose(2, 1, 0), res.T
    ut[0] = al[:, :d].T
    ut[1] = al[:, d:].T

    def steps(lo: int, hi: int) -> int | None:
        """The sequential step for n = lo .. hi-1; the last stored index
        when a column passes OVERFLOW_LIMIT, else None.  Its matrices are
        C-order copies, whose products with one column numpy hands to BLAS."""
        for n in range(lo, hi):
            cur = ut[n]
            rhs = z * cur - B[n].copy() @ cur - adj(A[n - 1].copy()) @ ut[n - 1]
            nxt = ut[n + 1] = AINV[n - 1].copy() @ rhs
            rt[n] = _norms(A[n].copy() @ nxt - rhs)
            if np.abs(nxt).max() > OVERFLOW_LIMIT:
                return n + 1
        return None

    def failing_row(lo: int, hi: int) -> int | None:
        """Store the recurrence defects of steps lo .. hi-1; the first step
        whose sample is non-finite or near OVERFLOW_LIMIT, or whose defect
        exceeds DEFECT_GATE, else None."""
        prev, cur, nxt = ut[lo - 1:hi - 1], ut[lo:hi], ut[lo + 1:hi + 1]
        rhs = z * cur - stack_mul(B[lo:hi], cur) - stack_mul(adj(A[lo - 1:hi - 1]), prev)
        rt[lo:hi] = _norms(stack_mul(A[lo:hi], nxt) - rhs)
        gate = DEFECT_GATE * (NRM[lo:hi, None] * _norms(nxt) + _norms(rhs))
        # half the limit, so that a step accepted here cannot hold a value
        # the sequential step would have found past it
        big = np.abs(nxt)
        if big.max() <= OVERFLOW_LIMIT / 2 and np.all(rt[lo:hi] <= gate):
            return None
        ok = (big.max(axis=(1, 2)) <= OVERFLOW_LIMIT / 2) & np.all(rt[lo:hi] <= gate, axis=1)
        return lo + int(np.argmin(ok))

    c = math.isqrt(horizon - 1)
    cut = None
    with np.errstate(all="ignore"):  # overflow is detected and stepped again
        for lo in range(1, horizon, max(CHUNK_GROUP * c, 1)):
            hi = min(lo + CHUNK_GROUP * c, horizon)
            Q = _chunk_products(AINV, A, B, z, lo, hi, c)
            j = 0
            while cut is None and j < len(Q):
                for i in range(j, len(Q)):  # each chunk from its predecessor's boundary
                    m, mh = lo + i * c, min(lo + (i + 1) * c, hi)
                    s = ut[m - 1:m + 1].reshape(2 * d, k)
                    ut[m + 1:mh + 1] = (Q[i, 2:].reshape(-1, 2 * d) @ s).reshape(-1, d, k)[:mh - m]
                f = failing_row(lo + j * c, hi)
                if f is None:
                    break
                # step the first failing chunk again; the chunks after it are expanded again
                j = (f - lo) // c
                cut = steps(lo + j * c, min(lo + (j + 1) * c, hi))
                j += 1
            if cut is not None:
                break
    last = horizon if cut is None else cut
    u = []
    for j in range(k):
        # u_0 .. u_last in C order over the start of the column's own block of
        # U (ravel copies them first), so that no second array of them is held
        rows = U[j].reshape(-1)[:(last + 1) * d]
        rows[:] = U[j, :, :last + 1].T.ravel()
        u.append(rows.reshape(last + 1, d))
    return [Trajectory(z, al[j], u[j], res[j, :last],
                       cut is not None and bool(np.abs(u[j][last]).max() > OVERFLOW_LIMIT), cut)
            for j in range(k)]


def propagate(fam: CoefficientFamily, z: complex, alpha: np.ndarray, horizon: int) -> Trajectory:
    """Solve the recurrence from (u_0, u_1) = alpha up to index `horizon`: a
    one-column batch of the shared engine.  Norms beyond OVERFLOW_LIMIT
    truncate the trajectory and set the overflow flag."""
    return _propagate(fam, z, [alpha], horizon)[0]


def propagate_block(fam: CoefficientFamily, z: complex, alphas: Sequence[np.ndarray],
                    horizon: int) -> list[Trajectory]:
    """Propagate several initial conditions at once through the shared
    engine; the batch is cut together at the first overflow."""
    return _propagate(fam, z, alphas, horizon)


def weighted_norm_trace(fam: CoefficientFamily, u: np.ndarray) -> np.ndarray:
    """s_n = ||a_n|| (||u_{n-1}||^2 + ||u_n||^2) for 1 <= n <= L-1, of samples
    u_0 .. u_L with any leading axes, shape (..., L+1, dim).

    Bounded above and below along a trajectory exactly when the two-sided
    asymptotic band estimate holds; returned as (..., L-1) with s[..., 0]
    corresponding to n = 1.
    """
    L = u.shape[-2] - 1
    norms2 = np.linalg.norm(u[..., :L, :], axis=-1) ** 2
    return norm_stack(fam, 1, L - 1) * (norms2[..., :-1] + norms2[..., 1:])


@dataclass
class L2Report:
    partial_sum: float
    verdict: str
    evidence: dict


def l2_tail_diagnostic(traj: Trajectory) -> L2Report:
    """Classify sum ||u_n||^2 by its tail.

    Compares the last tenth of the squared norms against the preceding tenth:
    a clearly decaying ratio with a negligible extrapolated remainder reads as
    square-summable, a flat or growing ratio (or an overflow truncation) as
    not square-summable.  Below 20 samples each tenth is one entry, and the
    verdict is undecided unless the trajectory overflowed.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # past an overflow cut: the total is inf
        t = np.linalg.norm(traj.u, axis=1) ** 2
    total = float(t.sum())
    ev: dict = {"count": len(t)}
    if traj.overflow:
        ev["overflow"] = True
        return L2Report(total, NOT_SQUARE_SUMMABLE, ev)
    if len(t) < 20:  # tenths of one entry each: a ratio of two samples decides nothing
        return L2Report(total, UNDECIDED, ev)
    prev, last = tail_window(t)
    a, b = float(prev.sum()), float(last.sum())
    ev["window_ratio"] = b / a if a > 0 else None
    if b == 0.0:
        return L2Report(total, SQUARE_SUMMABLE, ev)
    if a == 0.0:
        return L2Report(total, UNDECIDED, ev)
    q = b / a
    if q <= 0.5:
        ev["tail_estimate"] = tail = geometric_remainder(a, b)
        if tail <= 1e-6 * max(total, 1e-300):
            return L2Report(total, SQUARE_SUMMABLE, ev)
        return L2Report(total, UNDECIDED, ev)
    if q >= 0.9:
        return L2Report(total, NOT_SQUARE_SUMMABLE, ev)
    return L2Report(total, UNDECIDED, ev)


def trajectory_table(traj: Trajectory, fam: CoefficientFamily) -> Table:
    """The trace of a trajectory, one row per index n: n (the row number),
    Re/Im of each component, norm, weighted trace value s_n and recurrence
    residual.  The last two are masked at n = 0 and at the last index, where
    they are undefined."""
    d = traj.u.shape[1]
    L = traj.last_index
    cols = ["n"]
    for j in range(d):
        cols += [f"re_u{j}", f"im_u{j}"]
    cols += ["norm", "s_n", "residual"]
    vals = np.zeros((L + 1, 2 * d + 3))
    vals[:, :2 * d] = np.ascontiguousarray(traj.u).view(np.float64)
    vals[:, 2 * d] = traj.norms()
    vals[1:L, 2 * d + 1] = weighted_norm_trace(fam, traj.u)
    vals[1:L, 2 * d + 2] = traj.residuals[1:]
    mask = np.zeros(vals.shape, dtype=bool)
    mask[[0, L], -2:] = True
    return Table(cols, vals, mask, numbered=True)


def trajectory_to_csv(traj: Trajectory, fam: CoefficientFamily, path) -> None:
    """Write trajectory_table(traj, fam) as CSV, undefined cells empty."""
    write_csv(trajectory_table(traj, fam), path)


@dataclass
class FundamentalMatrix:
    """The fundamental matrix of the recurrence at z: Phi_n in C^{d x 2d}
    maps initial data alpha = (u_0, u_1) to u_n, so that every trajectory is
    Phi alpha, for n = 0 .. L.

    Its columns are the 2d basis trajectories Phi e_j as one propagate_block
    call returns them, cut together at the first overflow (truncated_at),
    each with its own recurrence defects.  Every combination shares that cut.
    """

    z: complex
    columns: list[Trajectory]

    @property
    def last_index(self) -> int:
        return self.columns[0].last_index

    @property
    def truncated_at(self) -> int | None:
        return self.columns[0].truncated_at

    def samples(self, alphas: Sequence[np.ndarray], start: int = 0) -> np.ndarray:
        """u_n = Phi_n alpha for n = start .. L, for every alpha of the batch:
        shape (k, rows, dim).  Multiply-adds of the columns in index order,
        SAMPLE_ROWS rows at a time, so a start keeps its bits in any batch
        and from any row on."""
        cols = [t.u[start:] for t in self.columns]
        al = initial_data(alphas, cols[0].shape[1])[:, :, None, None]
        out = np.empty((len(al),) + cols[0].shape, dtype=np.complex128)
        term = np.empty_like(out[:, :SAMPLE_ROWS])
        for r in range(0, len(cols[0]), SAMPLE_ROWS):
            rows = slice(r, r + SAMPLE_ROWS)
            block = np.multiply(al[:, 0], cols[0][rows], out=out[:, rows])
            for j in range(1, len(cols)):
                block += np.multiply(al[:, j], cols[j][rows], out=term[:, :block.shape[1]])
        return out

    def overflow(self, u: np.ndarray) -> np.ndarray:
        """For each row of samples u (k, ..., dim) that end at the cut,
        whether that combination passed OVERFLOW_LIMIT there."""
        return (self.truncated_at is not None) & (np.abs(u[:, -1]).max(axis=1) > OVERFLOW_LIMIT)

    def trajectory(self, alpha: np.ndarray) -> Trajectory:
        """The trajectory Phi alpha.  Its residuals are the bound
        sum_j |alpha_j| r_j of the columns' defects, not the defect of its
        own samples; it overflowed when the largest entry of Phi_L alpha at
        the cut passed OVERFLOW_LIMIT."""
        alpha = initial_data([alpha], self.columns[0].u.shape[1])[0]
        u = self.samples([alpha])
        return Trajectory(self.z, alpha, u[0],
                          np.abs(alpha) @ np.stack([t.residuals for t in self.columns]),
                          bool(self.overflow(u)[0]), self.truncated_at)


def fundamental_matrix(fam: CoefficientFamily, z: complex, horizon: int) -> FundamentalMatrix:
    """The fundamental matrix at z up to index `horizon`: the 2d canonical
    initial data of H (+) H propagated as one batch."""
    return FundamentalMatrix(z, propagate_block(fam, z, np.eye(2 * fam.dim, dtype=np.complex128),
                                                horizon))
