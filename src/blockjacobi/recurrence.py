"""Generalised eigenvector propagation for the block three-term recurrence

    a_{n-1}^* u_{n-1} + b_n u_n + a_n u_{n+1} = z u_n,   n >= 1,

its one-step transfer matrices on H (+) H, windowed transfer products, and
square-summability diagnostics of trajectories.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coeffs import CoefficientFamily
from .opcore import adj

# Trajectories are truncated once a norm passes this guard.
OVERFLOW_LIMIT = 1e150

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
    batched matrix products.  Needs start >= 1."""
    if start < 1:
        raise ValueError("transfer matrices start at n = 1")
    d = fam.dim
    A, AINV, B, _ = coefficient_stacks(fam, start - 1, count + 1)
    AH = A.conj().transpose(0, 2, 1)
    out = np.zeros((count, 2 * d, 2 * d), dtype=np.complex128)
    eye = np.eye(d)
    out[:, :d, d:] = eye
    out[:, d:, :d] = -(AINV[1:] @ AH[:-1])
    out[:, d:, d:] = AINV[1:] @ (z * eye - B[1:])
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

    residuals[n] is the norm of the recurrence defect at interior index n
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


def _propagate(fam: CoefficientFamily, z: complex, alphas: Sequence[np.ndarray],
               horizon: int) -> list[Trajectory]:
    """The step loop behind every trajectory: solve the recurrence for a batch
    of initial data (u_0, u_1) = alpha up to index `horizon`.

    Each step solves directly for u_{n+1} through a_n^{-1}, n = 1 .. horizon-1,
    and records the defect norm of the recurrence per column.  The whole batch
    is cut at the first step where any column passes OVERFLOW_LIMIT; columns
    actually past the limit carry the overflow flag, the rest are merely
    shortened (truncated_at is set for all of them).
    """
    d = fam.dim
    al = np.stack([np.asarray(a, dtype=np.complex128).reshape(2 * d) for a in alphas])
    if np.any(np.linalg.norm(al, axis=1) == 0.0):
        raise ValueError("initial data must be nonzero")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    k = al.shape[0]
    A, _, B, _ = fam.stacks(0, horizon, inverse=False)
    AINV = fam.stacks(1, horizon - 1)[1]  # AINV[n - 1] = a_n^{-1}
    AH = A.conj().transpose(0, 2, 1)
    u = np.zeros((horizon + 1, d, k), dtype=np.complex128)
    res = np.zeros((horizon, k))
    u[0] = al[:, :d].T
    u[1] = al[:, d:].T
    last = horizon
    truncated = False
    for n in range(1, horizon):
        cur = u[n]
        rhs = z * cur - B[n] @ cur - AH[n - 1] @ u[n - 1]
        nxt = u[n + 1] = AINV[n - 1] @ rhs
        r = A[n] @ nxt - rhs
        # np.linalg.norm(r, axis=0) spelled out: same operations, without
        # the call overhead that costs a tenth of a one-column step
        res[n] = np.sqrt(np.add.reduce((r.conj() * r).real, axis=0))
        if np.abs(nxt).max() > OVERFLOW_LIMIT:
            truncated = True
            last = n + 1
            break
    out = []
    for j in range(k):
        uj = np.ascontiguousarray(u[: last + 1, :, j])
        over = truncated and bool(np.abs(uj[last]).max() > OVERFLOW_LIMIT)
        out.append(Trajectory(z, al[j], uj, res[:last, j].copy(), over,
                              last if truncated else None))
    return out


def propagate(fam: CoefficientFamily, z: complex, alpha: np.ndarray, horizon: int) -> Trajectory:
    """Solve the recurrence from (u_0, u_1) = alpha up to index `horizon`: a
    one-column batch of the shared step loop.  Norms beyond OVERFLOW_LIMIT
    truncate the trajectory and set the overflow flag."""
    return _propagate(fam, z, [alpha], horizon)[0]


def propagate_block(fam: CoefficientFamily, z: complex, alphas: Sequence[np.ndarray],
                    horizon: int) -> list[Trajectory]:
    """Propagate several initial conditions at once through the shared step
    loop; the batch is cut together at the first overflow."""
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


def trajectory_table(traj: Trajectory, fam: CoefficientFamily) -> tuple[list[str], list[list]]:
    """Column names and per-index rows: n, Re/Im of each component, norm,
    weighted trace value s_n and recurrence residual.  The last two are None
    at n = 0 and at the last index, where they are undefined."""
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
    rows = [[n] + row for n, row in enumerate(vals.tolist())]
    for row in (rows[0], rows[L]):
        row[-2:] = [None, None]
    return cols, rows


def trajectory_to_csv(traj: Trajectory, fam: CoefficientFamily, path) -> None:
    """Write trajectory_table(traj, fam) as CSV, undefined cells empty."""
    cols, rows = trajectory_table(traj, fam)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        w.writerows(rows)


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
