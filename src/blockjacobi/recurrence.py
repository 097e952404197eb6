"""Generalised eigenvector propagation for the block three-term recurrence

    a_{n-1}^* u_{n-1} + b_n u_n + a_n u_{n+1} = z u_n,   n >= 1,

its one-step transfer matrices on H (+) H, windowed transfer products, and
square-summability diagnostics of trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coeffs import CoefficientFamily
from .opcore import adj
from .table import Table, write_csv

# Trajectories are truncated once a norm passes this guard.
OVERFLOW_LIMIT = 1e150

# Largest recurrence defect a chunk of the transfer-product path may leave,
# relative to ||a_n|| ||u_{n+1}|| + ||rhs_n||.  A sequential step leaves a few
# units of rounding there; a chunk product applied to a solution that decays
# next to a growing one loses it to cancellation, and leaves far more.  Such a
# chunk is stepped again sequentially.
DEFECT_GATE = 64 * np.finfo(np.float64).eps

# Chunks whose local transfer products are formed together: bounds the extra
# memory to CHUNK_GROUP * c * 2d^2 entries, and an early overflow leaves the
# products of later groups unformed.
CHUNK_GROUP = 32

SQUARE_SUMMABLE = "square_summable"
NOT_SQUARE_SUMMABLE = "not_square_summable"
UNDECIDED = "undecided"


def transfer(fam: CoefficientFamily, n: int, z: complex) -> np.ndarray:
    """One-step transfer matrix B_n(z) mapping (u_{n-1}, u_n) to (u_n, u_{n+1});
    defined for n >= 1."""
    if n < 1:
        raise ValueError("transfer matrices start at n = 1")
    d = fam.dim
    ainv = fam.a_inv(n)
    out = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    out[:d, d:] = np.eye(d)
    out[d:, :d] = -ainv @ adj(fam.a(n - 1))
    out[d:, d:] = ainv @ (z * np.eye(d) - fam.b(n))
    return out


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
    """Ordered product B_{n+N-1}(z) ... B_n(z), highest index leftmost.

    An empty window (N = 0) gives the identity on H (+) H.
    """
    if N < 0:
        raise ValueError("window length must be >= 0")
    d = fam.dim
    out = np.eye(2 * d, dtype=np.complex128)
    for j in range(n, n + N):
        out = transfer(fam, j, z) @ out
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
    AH = A.conj().transpose(0, 2, 1)
    out = np.zeros((count, 2 * d, 2 * d), dtype=np.complex128)
    eye = np.eye(d)
    out[:, :d, d:] = eye
    out[:, d:, :d] = -(AINV @ AH[:-1])
    out[:, d:, d:] = AINV @ (z * eye - B[1:])
    return out


def formal_eigenvector_start(fam: CoefficientFamily, z: complex, u0: np.ndarray) -> np.ndarray:
    """Initial data (u_0, u_1) with u_1 = a_0^{-1} (z - b_0) u_0, which makes
    the recurrence hold at n = 0 as well (with the convention a_{-1} = 0)."""
    u0 = np.asarray(u0, dtype=np.complex128).reshape(fam.dim)
    u1 = fam.a_inv(0) @ (z * u0 - fam.b(0) @ u0)
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
        return np.linalg.norm(self.u, axis=1)


def _apply(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M[n] @ v[n] over a stack of small matrices, as d broadcast products:
    for a few columns this is several times faster than a batched matmul,
    which pays a fixed cost per matrix."""
    out = M[:, :, :1] * v[:, None, 0]
    for j in range(1, M.shape[2]):
        out += M[:, :, j:j + 1] * v[:, None, j]
    return out


def _chunk_products(AINV: np.ndarray, AH: np.ndarray, B: np.ndarray, z: complex,
                    lo: int, hi: int, c: int) -> np.ndarray:
    """Local prefix products of the transfer matrices of steps lo .. hi-1,
    cut into chunks of c steps, by their lower halves.

    With m = lo + j c the start of chunk j, out[j, i + 2] is the lower half
    of B_{m+i}(z) ... B_m(z), which maps (u_{m-1}, u_m) to u_{m+i+1}, and
    out[j, 0], out[j, 1] are [Id, 0] and [0, Id]; the whole product is the
    window out[j, i + 1 : i + 3].  The last chunk is padded with steps that
    repeat u_n.
    """
    d = B.shape[1]
    cnt = hi - lo
    eye = np.eye(d)
    ainv = AINV[lo - 1:hi - 1]
    L = np.zeros((-(-cnt // c) * c, d, 2 * d), dtype=np.complex128)
    L[:cnt, :, :d] = -_apply(ainv, AH[lo - 1:hi - 1])
    L[:cnt, :, d:] = _apply(ainv, z * eye - B[lo:hi])
    L[cnt:, :, d:] = eye
    L = L.reshape(-1, c, d, 2 * d)
    Q = np.empty((len(L), c + 2, d, 2 * d), dtype=np.complex128)
    Q[:, :2] = np.eye(2 * d).reshape(2, d, 2 * d)
    for i in range(c):
        Q[:, i + 2] = L[:, i] @ Q[:, i:i + 2].reshape(-1, 2 * d, 2 * d)
    return Q


def _propagate(fam: CoefficientFamily, z: complex, alphas: Sequence[np.ndarray],
               horizon: int) -> list[Trajectory]:
    """The engine behind every trajectory: solve the recurrence for a batch
    of initial data (u_0, u_1) = alpha up to index `horizon`.

    The steps n = 1 .. horizon-1 are cut into chunks of c = isqrt(horizon-1)
    steps.  The transfer products local to each chunk are formed batched
    across CHUNK_GROUP chunks at a time; then each chunk's samples come from
    one product of its stacked prefix products with the boundary state
    (u_{m-1}, u_m) its predecessor left, and the recurrence defects of the
    stored samples are evaluated over the whole chunk.  A chunk whose samples
    are non-finite or near OVERFLOW_LIMIT, or whose defect anywhere exceeds
    DEFECT_GATE, is stepped again from its boundary state by the sequential
    step, which solves for u_{n+1} through a_n^{-1}.  So the batch is cut
    exactly where the sequential step cuts it: at the first step where any
    column passes OVERFLOW_LIMIT.  Columns actually past the limit carry the
    overflow flag, the rest are merely shortened (truncated_at is set for all
    of them).
    """
    d = fam.dim
    al = np.stack([np.asarray(a, dtype=np.complex128).reshape(2 * d) for a in alphas])
    if np.any(np.linalg.norm(al, axis=1) == 0.0):
        raise ValueError("initial data must be nonzero")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    k = al.shape[0]
    A, _, B, NRM = fam.stacks(0, horizon, inverse=False)
    AINV = fam.stacks(1, horizon - 1)[1]  # AINV[n - 1] = a_n^{-1}
    AH = A.conj().transpose(0, 2, 1)
    # column-major storage, so each trajectory is a view of its own rows;
    # the arithmetic reads it through ut[n] = (u_n of every column)
    u = np.zeros((k, horizon + 1, d), dtype=np.complex128)
    res = np.zeros((k, horizon))
    ut, rt = u.transpose(1, 2, 0), res.T
    u[:, 0] = al[:, :d]
    u[:, 1] = al[:, d:]

    def steps(lo: int, hi: int) -> int | None:
        """The sequential step for n = lo .. hi-1; the last stored index
        when a column passes OVERFLOW_LIMIT, else None."""
        for n in range(lo, hi):
            cur = ut[n]
            rhs = z * cur - B[n] @ cur - AH[n - 1] @ ut[n - 1]
            nxt = ut[n + 1] = AINV[n - 1] @ rhs
            r = A[n] @ nxt - rhs
            # np.linalg.norm(r, axis=0) spelled out: same operations, without
            # the call overhead that costs a tenth of a one-column step
            rt[n] = np.sqrt(np.add.reduce((r.conj() * r).real, axis=0))
            if np.abs(nxt).max() > OVERFLOW_LIMIT:
                return n + 1
        return None

    def chunks():
        """(lo, hi, prefix products) per chunk, formed a group at a time."""
        c = math.isqrt(horizon - 1)
        for lo in range(1, horizon, max(CHUNK_GROUP * c, 1)):
            hi = min(lo + CHUNK_GROUP * c, horizon)
            for j, Q in enumerate(_chunk_products(AINV, AH, B, z, lo, hi, c)):
                yield lo + j * c, min(lo + (j + 1) * c, hi), Q

    cut = None
    with np.errstate(all="ignore"):  # overflow is detected and stepped again
        for lo, hi, Q in chunks():
            s = ut[lo - 1:lo + 1].reshape(2 * d, k)
            new = (Q[2:].reshape(-1, 2 * d) @ s).reshape(-1, d, k)[:hi - lo]
            ut[lo + 1:hi + 1] = new
            prev, cur, nxt = ut[lo - 1:hi - 1], ut[lo:hi], ut[lo + 1:hi + 1]
            rhs = z * cur - _apply(B[lo:hi], cur) - _apply(AH[lo - 1:hi - 1], prev)
            r = _apply(A[lo:hi], nxt) - rhs
            rt[lo:hi] = np.sqrt(np.add.reduce((r.conj() * r).real, axis=1))
            gate = DEFECT_GATE * (NRM[lo:hi, None] * np.linalg.norm(nxt, axis=1)
                                  + np.linalg.norm(rhs, axis=1))
            # half the limit, so that a chunk accepted here cannot hold a value
            # the sequential step would have found past it
            if not (np.abs(new).max() <= OVERFLOW_LIMIT / 2 and np.all(rt[lo:hi] <= gate)):
                cut = steps(lo, hi)
                if cut is not None:
                    break
    last = horizon if cut is None else cut
    return [Trajectory(z, al[j], u[j, :last + 1], res[j, :last],
                       cut is not None and bool(np.abs(u[j, last]).max() > OVERFLOW_LIMIT), cut)
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


def weighted_norm_trace(fam: CoefficientFamily, traj: Trajectory) -> np.ndarray:
    """s_n = ||a_n|| (||u_{n-1}||^2 + ||u_n||^2) for 1 <= n <= L-1.

    Bounded above and below along a trajectory exactly when the two-sided
    asymptotic band estimate holds; returned with s[0] corresponding to n = 1.
    """
    norms2 = np.linalg.norm(traj.u, axis=1) ** 2
    L = traj.last_index
    w = norm_stack(fam, 1, L - 1)
    return w * (norms2[:-2] + norms2[1:-1])


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
    not square-summable.
    """
    t = np.linalg.norm(traj.u, axis=1) ** 2
    total = float(t.sum())
    ev: dict = {"count": len(t)}
    if traj.overflow:
        ev["overflow"] = True
        return L2Report(total, NOT_SQUARE_SUMMABLE, ev)
    cut = max(1, len(t) // 10)
    b = float(t[-cut:].sum())
    a = float(t[-2 * cut:-cut].sum())
    ev["window_ratio"] = b / a if a > 0 else None
    if b == 0.0:
        return L2Report(total, SQUARE_SUMMABLE, ev)
    if a == 0.0:
        return L2Report(total, UNDECIDED, ev)
    q = b / a
    if q <= 0.5:
        tail = b * q / (1.0 - q)
        ev["tail_estimate"] = tail
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
    vals[1:L, 2 * d + 1] = weighted_norm_trace(fam, traj)
    vals[1:L, 2 * d + 2] = traj.residuals[1:]
    mask = np.zeros(vals.shape, dtype=bool)
    mask[[0, L], -2:] = True
    return Table(cols, vals, mask, numbered=True)


def trajectory_to_csv(traj: Trajectory, fam: CoefficientFamily, path) -> None:
    """Write trajectory_table(traj, fam) as CSV, undefined cells empty."""
    write_csv(trajectory_table(traj, fam), path)


def basis_trajectories(fam: CoefficientFamily, z: complex, horizon: int) -> list[Trajectory]:
    """Propagate the 2d canonical initial conditions of H (+) H as one batch,
    cut together at the first overflow."""
    return propagate_block(fam, z, np.eye(2 * fam.dim, dtype=np.complex128), horizon)


def solution_space_dimension(fam: CoefficientFamily, z: complex, horizon: int,
                             rank_tol: float = 1e-8) -> int:
    """Numerical dimension of the span of trajectories seeded through
    formal_eigenvector_start from a basis of H (singular value rank of the
    stacked, normalized trajectories, propagated as one batch)."""
    d = fam.dim
    starts = [formal_eigenvector_start(fam, z, u0) for u0 in np.eye(d, dtype=np.complex128)]
    cols = []
    for traj in propagate_block(fam, z, starts, horizon):
        v = traj.u.reshape(-1)
        nrm = np.linalg.norm(v)
        cols.append(v / nrm if nrm > 0 else v)
    m = np.stack(cols, axis=1)
    svals = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(svals > rank_tol * svals[0]))
