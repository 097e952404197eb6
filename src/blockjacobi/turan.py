"""Turan-determinant functionals of transfer-matrix windows.

The central object is the quadratic form

    Q_n^z(v) = <sym{ diag(a_{n+N-1}, a_{n+N-1}^*) E X_n(z) } v, v> / ||a_{n+N-1}||

with X_n(z) the ordered window product of N transfer matrices and
E = [[0, -Id], [Id, 0]].  Evaluated along a trajectory it yields the shifted
Turan sequence S_n; its n -> infinity limit form, built from the periodic
limits of a_n^{-1}, a_n^{-1} b_n, a_n^{-1} a_{n-1}^* and a_n / ||a_n||,
decides membership of a real parameter in the asymptotic band through strict
definiteness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import coeffs as _coeffs
from .coeffs import (
    UNDECIDED,
    CoefficientFamily,
    carleman_diagnostic,
    sequence_stack,
    stack_limits,
    tail_window,
    tenth,
    total_variation,
)
from .opcore import (
    DEFINITENESS_EPS,
    Definiteness,
    HypothesisViolatedError,
    NotConvergentError,
    adj,
    as_operator,
    classify_definiteness,
    conditioning,
    herm_defect,
    invert,
    op_norm,
    op_norm_from,
    op_norms,
    quad_form,
    require_hermitian,
    stack_mul,
    sym,
)
from .recurrence import (
    SQUARE_SUMMABLE,
    FundamentalMatrix,
    Trajectory,
    coefficient_stacks,
    fundamental_matrix,
    initial_data,
    l2_tail_diagnostic,
    norm_stack,
    propagate,
    weighted_norm_trace,
    window_product,
)

# Endpoints of definiteness intervals are bisected to this width.
ENDPOINT_TOL = 1e-8

# Acceptance threshold for extracted periodic limits.
EXTRACTION_TOL = 1e-8

# Deviation, in operator norm, up to which limit data count as having the
# structure of the weighted-trace reduction (T = 0, forms diag(D, D), D
# constant over the period, C self-adjoint).
REDUCTION_TOL = 1e-8


def _weight_block(a: np.ndarray) -> np.ndarray:
    """diag(a, a^*) E = [[0, -a], [a^*, 0]], for one matrix or a stack."""
    d = a.shape[-1]
    out = np.zeros(a.shape[:-2] + (2 * d, 2 * d), dtype=np.complex128)
    out[..., :d, d:] = -a
    out[..., d:, :d] = adj(a)
    return out


def _row_form(fam: CoefficientFamily, N: int, n: int, z: complex) -> np.ndarray:
    """The form matrix diag(a, a^*) E X_n(z) of one row, a = a_{n+N-1},
    without sym or normalization; n >= 1 and N >= 1."""
    if N < 1:
        raise ValueError("window length N must be >= 1")
    if n < 1:
        raise ValueError("forms start at n = 1")
    return _weight_block(fam.a(n + N - 1)) @ window_product(fam, z, n, N)


def turan_form(fam: CoefficientFamily, N: int, n: int, z: complex) -> np.ndarray:
    """Normalized Hermitian form matrix of Q_n^z on H (+) H."""
    return sym(_row_form(fam, N, n, z)) / fam.norm_a(n + N - 1)


def turan_value(fam: CoefficientFamily, N: int, n: int, z: complex,
                alpha: np.ndarray) -> float:
    """S_n = ||a_{n+N-1}|| Q_n^z((u_{n-1}, u_n)) for the trajectory seeded by
    alpha = (u_0, u_1), through the window product: the independent per-row
    oracle of turan_traces, which reads S_n off the samples."""
    m = _row_form(fam, N, n, z)
    traj = propagate(fam, z, alpha, max(n + 1, 2))
    return quad_form(m, np.concatenate([traj.u[n - 1], traj.u[n]]))


@dataclass
class TuranTrace:
    """S_n along phi alpha at z: values[k] is S_{n_start + k}, NaN past L - N."""

    N: int
    z: complex
    alpha: np.ndarray
    n_start: int
    values: np.ndarray


def _traces_from(fam: CoefficientFamily, N: int, u: np.ndarray, horizon: int,
                 start: int = 1) -> np.ndarray:
    """S_n, n = start .. horizon-1, of a batch of trajectories that end at
    one index L, as the rows of a (k, horizon - start) array; u (k, rows,
    dim) holds their samples u_{start-1} .. u_L.  Along a solution the
    window product only shifts the state, X_n(z) (u_{n-1}, u_n) =
    (u_{n+N-1}, u_{n+N}), so S_n = Re(<a u_n, u_{n+N-1}> - <u_{n-1}, a u_{n+N}>)
    with a = a_{n+N-1}, and needs no transfer matrix, z or a_n^{-1}.  Rows
    past L - N are NaN.  Each row is computed on its own, so a later start
    leaves the bits of every row.
    """
    if N < 1:
        raise ValueError("window length N must be >= 1")
    count = horizon - start
    avail = min(count, u.shape[1] - N - 1)
    vals = np.full((len(u), count), np.nan)
    if avail >= 1:
        a = coefficient_stacks(fam, start + N - 1, avail)[0]
        ut = u.transpose(1, 2, 0)  # ut[i]: u_{start-1+i} of each trajectory, (dim, k)
        au, v = stack_mul(a, ut[1:avail + 1]), ut[N:N + avail]  # a u_n, u_{n+N-1}
        w, aw = ut[:avail], stack_mul(a, ut[N + 1:N + 1 + avail])  # u_{n-1}, a u_{n+N}
        s = au.real * v.real + au.imag * v.imag - w.real * aw.real - w.imag * aw.imag
        vals[:, :avail] = s.sum(axis=1).T
    return vals


def turan_traces(fam: CoefficientFamily, N: int, z: complex,
                 alphas: Sequence[np.ndarray], horizon: int) -> list[TuranTrace]:
    """S_n, n = 1 .. horizon-1, along each phi alpha at z; NaN past L - N."""
    al = initial_data(alphas, fam.dim)
    u = fundamental_matrix(fam, z, horizon).samples(al)
    return [TuranTrace(N, z, a, 1, vals)
            for a, vals in zip(al, _traces_from(fam, N, u, horizon))]


# ---- periodic limit data ----


@dataclass
class PeriodicLimitData:
    """Residue-wise limits of the transfer data: T_j = lim a_n^{-1},
    Q_j = lim a_n^{-1} b_n, R_j = lim a_n^{-1} a_{n-1}^*, C_j = lim a_n/||a_n||
    along n = j (mod N), plus the norm-ratio limits r_j.

    D, when present, holds the common diagonal block of limit forms that are
    block-diagonal with equal halves (the weighted-trace reduction).
    """

    N: int
    T: list[np.ndarray]
    Q: list[np.ndarray]
    R: list[np.ndarray]
    C: list[np.ndarray]
    r: list[float]
    D: list[np.ndarray] | None = None
    residuals: dict = field(default_factory=dict)
    converged: bool = True
    horizon: int | None = None

    @property
    def dim(self) -> int:
        return self.C[0].shape[0]


def make_periodic_limits(N: int, T: Sequence, Q: Sequence, R: Sequence,
                         C: Sequence) -> PeriodicLimitData:
    """Build limit data directly from period lists; a singular C_j or R_j
    raises SingularError."""
    T, Q, R, C = ([as_operator(m) for m in seq] for seq in (T, Q, R, C))
    if not (len(T) == len(Q) == len(R) == len(C) == N):
        raise ValueError("all period lists must have length N")
    return _limit_data(N, T, Q, R, C)


def _limit_data(N: int, T: list, Q: list, R: list, C: list, singular_ok: bool = False,
                **extra) -> PeriodicLimitData:
    """Limit data with the quantities derived from T, Q, R and C: the
    norm-ratio limits r_j = ||C_j^{-1} C_{j-1}^* R_j^{-1}|| and the
    weighted-trace reduction D.  The C_j and the R_j are inverted as two
    stacks and the r_j normed as one.  A C_j or R_j past CONDITION_LIMIT
    raises SingularError, or with singular_ok gives r_j = nan, no D and a
    cleared converged flag; the first j in period order that fails decides
    what is raised."""
    CR = np.array((C, R))
    past = conditioning(CR)[2].any(axis=0)  # refuses non-finite entries, as invert does
    # a past C_j or R_j is inverted as the identity; its r_j is NaN
    Cs, Rs = np.where(past[:, None, None], np.eye(CR.shape[-1]), CR)
    prod = np.linalg.inv(Cs) @ adj(CR[0, np.arange(-1, N - 1)]) @ np.linalg.inv(Rs)
    r = op_norms(prod)
    r[past] = np.nan
    for j in np.flatnonzero(np.isnan(r)):  # in period order
        if not past[j]:
            op_norm(prod[j])  # a non-finite product: op_norm's ValueError
        elif not singular_ok:
            invert(CR[:, j])  # the SingularError naming C_j, or else R_j
    lim = PeriodicLimitData(N, T, Q, R, C, r.tolist(), **extra)
    if past.any():
        lim.converged = False
    else:
        lim.D = _diagonal_reduction(lim)
    return lim


def _diagonal_reduction(lim: PeriodicLimitData) -> list[np.ndarray] | None:
    """Common diagonal block of each window form, when the forms are z-free
    (T = 0) and block-diagonal with equal Hermitian halves.  The T_j are
    normed as one stack, and each window's three blocks as another; a
    window's form is built only when the windows before it reduce."""
    if any(op_norm_from(n, t) > REDUCTION_TOL for n, t in zip(op_norms(np.stack(lim.T)), lim.T)):
        return None
    out = []
    d = lim.dim
    for j in range(lim.N):
        f = limit_form(lim, 0.0, start=j)
        tl, tr, bl, br = f[:d, :d], f[:d, d:], f[d:, :d], f[d:, d:]
        tol = REDUCTION_TOL * max(1.0, op_norm(f))
        blocks = np.stack([tr, bl, tl - br])
        if any(op_norm_from(n, m) > tol for n, m in zip(op_norms(blocks), blocks)):
            return None
        out.append(br)  # for N = 1 this is sym C exactly
    return out


def extract_periodic_limits(fam: CoefficientFamily, N: int,
                            horizon: int = _coeffs.DEFAULT_HORIZON) -> PeriodicLimitData:
    """Estimate the residue-wise limit data from the family itself.

    Each entry is accepted by the Cauchy rule over the last decade of indices
    or, for slow power-law tails, by agreement of staggered Aitken
    extrapolations.  Failures leave the last raw value in place and clear the
    converged flag; extraction is diagnostic, not fatal.  All 4N sequences
    are one stack_limits call; the first of them, in the order T, Q, R, C
    and by residue, that fails raises its error.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    A, _, B, NRM = fam.stacks(0, horizon, inverse=False)
    takes: dict[str, Callable[[np.ndarray], np.ndarray]] = {
        "T": fam.a_inv_rows,
        "Q": lambda ns: fam.a_inv_rows(ns) @ B[ns],
        "R": lambda ns: fam.a_inv_rows(ns) @ adj(A[ns - 1]),
        "C": lambda ns: A[ns] / NRM[ns, None, None],
    }
    seqs = [(name, np.arange(j if j >= (name == "R") else j + N, horizon, N))
            for name in takes for j in range(N)]
    lims = stack_limits([takes[name] for name, _ in seqs], [idx for _, idx in seqs],
                        tol=EXTRACTION_TOL)
    data: dict[str, list[np.ndarray]] = {k: [] for k in takes}
    residuals: dict[str, list[float]] = {k: [] for k in takes}
    for (name, idx), lim in zip(seqs, lims):
        if not len(idx):
            raise ValueError("horizon too small for the requested period")
        if isinstance(lim, Exception):
            raise lim
        data[name].append(lim.value)
        residuals[name].append(lim.residual)
    return _limit_data(N, data["T"], data["Q"], data["R"], data["C"], singular_ok=True,
                       residuals=residuals, converged=all(lim.converged for lim in lims),
                       horizon=horizon)


def limit_block(lim: PeriodicLimitData, z: complex | np.ndarray, i: int) -> np.ndarray:
    """Limit transfer factor [[0, Id], [-R_i, z T_i - Q_i]] (indices mod N);
    an array of z gives the stack of factors."""
    d = lim.dim
    i = i % lim.N
    z = np.asarray(z)
    out = np.zeros(z.shape + (2 * d, 2 * d), dtype=np.complex128)
    out[..., :d, d:] = np.eye(d)
    out[..., d:, :d] = -lim.R[i]
    out[..., d:, d:] = z[..., None, None] * lim.T[i] - lim.Q[i]
    return out


def limit_form(lim: PeriodicLimitData, lam: float | np.ndarray, start: int = 0) -> np.ndarray:
    """Hermitian limit form F(lambda) = sym of [[0, -C_e], [C_e^*, 0]] times
    the ordered product of limit factors over the window [start, start + N),
    highest index leftmost, where e = start + N - 1 (mod N); an array of
    lambda gives the stack of forms.  Strict definiteness marks lambda as a
    point of the asymptotic band."""
    prod = limit_block(lim, lam, start)
    for k in range(start + 1, start + lim.N):
        prod = limit_block(lim, lam, k) @ prod
    return sym(_weight_block(lim.C[(start + lim.N - 1) % lim.N]) @ prod)


def principal_minors(m) -> list[float]:
    """Leading principal minors of a Hermitian matrix, as reals."""
    h = require_hermitian(m)
    return [float(np.linalg.det(h[:k, :k]).real) for k in range(1, h.shape[0] + 1)]


# ---- definiteness scans ----


@dataclass(frozen=True)
class SignInterval:
    lo: float
    hi: float
    sign: Definiteness


@dataclass
class LambdaSet:
    """Disjoint parameter intervals of strict definiteness, endpoints located
    by bisection to ENDPOINT_TOL."""

    intervals: list[SignInterval]
    grid: int
    eps: float
    scan_range: tuple[float, float]

    def contains(self, x: float) -> bool:
        return any(iv.lo <= x <= iv.hi for iv in self.intervals)

    @property
    def empty(self) -> bool:
        return not self.intervals

    def to_dict(self) -> dict:
        return {
            "scan_range": list(self.scan_range),
            "grid": self.grid,
            "eps": self.eps,
            "intervals": [
                {"lo": iv.lo, "hi": iv.hi, "sign": iv.sign.value} for iv in self.intervals
            ],
        }


def definiteness_scan(fn: Callable[[float], np.ndarray], lo: float, hi: float,
                      grid: int = 201, eps: float = DEFINITENESS_EPS) -> LambdaSet:
    """Scan a Hermitian-matrix-valued function of one float for strict
    definiteness (see _scan); fn is called once per distinct point of each
    stack, so a midpoint that two edges of one cell share costs one call."""
    def forms(xs: np.ndarray) -> np.ndarray:
        points, which = np.unique(xs, return_inverse=True)
        return np.stack([fn(float(x)) for x in points])[which]
    return _scan(forms, lo, hi, grid, eps)


def _scan(forms: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, grid: int,
          eps: float) -> LambdaSet:
    """Definiteness scan of forms, which maps an array of parameters to the
    stack of their Hermitian matrices.

    Classifies the grid as one stack and merges runs of equal strict sign.
    Each run boundary is an edge from the last point outside the run to the
    first inside it; all edges are bisected in lockstep, one stack of
    midpoints per level, each down to ENDPOINT_TOL.
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    xs = np.linspace(lo, hi, grid)
    cls = np.array(classify_definiteness(forms(xs), eps), dtype=object)
    change = cls[1:] != cls[:-1]
    strict = np.isin(cls, [Definiteness.STRICTLY_POSITIVE, Definiteness.STRICTLY_NEGATIVE])
    first = np.flatnonzero(strict & np.r_[True, change])  # the runs of one strict class
    last = np.flatnonzero(strict & np.r_[change, True])
    # the edges at the runs' first points, then at their last; at an end of
    # the grid the outside point is the inside one, an edge of width 0
    ins = np.r_[first, last]
    out = np.r_[np.maximum(first - 1, 0), np.minimum(last + 1, grid - 1)]
    inside, outside, sign = xs[ins], xs[out], cls[ins]
    todo = np.flatnonzero(np.abs(inside - outside) > ENDPOINT_TOL)
    while len(todo):
        mid = 0.5 * (inside[todo] + outside[todo])
        hit = np.array(classify_definiteness(forms(mid), eps), dtype=object) == sign[todo]
        inside[todo[hit]] = mid[hit]
        outside[todo[~hit]] = mid[~hit]
        todo = todo[np.abs(inside[todo] - outside[todo]) > ENDPOINT_TOL]
    ends = np.where(ins == out, inside, 0.5 * (inside + outside)).tolist()
    intervals = list(map(SignInterval, ends[:len(first)], ends[len(first):], cls[first]))
    return LambdaSet(intervals, grid, eps, (float(lo), float(hi)))


def lambda_scan(lim: PeriodicLimitData, scan_range: tuple[float, float],
                grid: int = 201, eps: float = DEFINITENESS_EPS) -> LambdaSet:
    """Definiteness scan of the limit form over a real parameter range; the
    region does not depend on the window start (the forms of consecutive
    starts are congruent up to the positive factor r_j)."""
    lo, hi = scan_range
    return _scan(lambda lams: limit_form(lim, lams), lo, hi, grid, eps)


# ---- band and convergence diagnostics ----


@dataclass
class BandAlphaStats:
    alpha: np.ndarray
    c1: float
    c2: float
    overflow: bool


@dataclass
class BandReport:
    N: int
    z: complex
    horizon: int
    burn_in: int
    c1: float
    c2: float
    per_alpha: list[BandAlphaStats]

    @property
    def ratio(self) -> float:
        return self.c2 / self.c1 if self.c1 > 0 else float("inf")


def asymptotic_band(fam: CoefficientFamily, N: int, z: complex,
                    alphas: Sequence[np.ndarray], horizon: int,
                    burn_in: int = 10, *, phi: FundamentalMatrix | None = None) -> BandReport:
    """Empirical two-sided bounds on ||a_n|| (||u_{n-1}||^2 + ||u_n||^2),
    normalized by ||alpha||^2, over n in [burn_in, horizon).

    Every trajectory is phi alpha, read from the fundamental matrix at z to
    `horizon` (propagated here unless the caller passes it), so all of them
    end at its cut.  A start overflowed when phi alpha passed OVERFLOW_LIMIT
    there.
    """
    if burn_in < 1:
        raise ValueError(f"burn_in must be >= 1, got {burn_in}")
    phi = fundamental_matrix(fam, z, horizon) if phi is None else phi
    al = initial_data(alphas, fam.dim)
    u = phi.samples(al)
    seg = weighted_norm_trace(fam, u)[:, burn_in - 1:] / (np.linalg.norm(al, axis=1) ** 2)[:, None]
    if not seg.shape[1]:
        raise ValueError(f"burn_in {burn_in} leaves no samples: the trajectory "
                         f"ends at index {phi.last_index}")
    stats = [BandAlphaStats(a, lo, hi, bool(over)) for a, lo, hi, over
             in zip(al, seg.min(axis=1).tolist(), seg.max(axis=1).tolist(), phi.overflow(u))]
    return BandReport(N, z, horizon, burn_in, min([float("inf")] + [s.c1 for s in stats]),
                      max([0.0] + [s.c2 for s in stats]), stats)


@dataclass
class ConvergenceAlphaStats:
    alpha: np.ndarray
    g: float
    residual: float
    converged: bool


@dataclass
class ConvergenceReport:
    N: int
    z: complex
    horizon: int
    per_alpha: list[ConvergenceAlphaStats]
    rate_bound_ok: bool
    rate_constant: float
    rate_details: list[dict]

    @property
    def g_values(self) -> list[float]:
        return [s.g for s in self.per_alpha]


def _variation_tails(fam: CoefficientFamily, N: int, z: complex, m: int,
                     horizon: int) -> float:
    """Tail driving the Turan increment bound: windowed N-variations of
    a_n^{-1} a_{n-1}^*, a_n^{-1} and a_n^{-1} b_n past m, plus the
    non-real-shift term |z - conj(z)| sum ||a_n^{-1}||."""
    def variation(name: str) -> float:
        values = sequence_stack(fam, name, m, horizon + N - m)
        return total_variation(values, N, (m, horizon)).partial_sum

    tail = variation("a_inv_a_prev") + abs(z) * variation("a_inv") + variation("a_inv_b")
    imag = abs(z - np.conj(z))
    if imag > 0:
        tail += imag * float(op_norm(fam.stacks(m, horizon - m)[1]).sum())
    return float(tail)


def _tail(values: np.ndarray, rows: int, name: str) -> tuple[list[float], list[float]]:
    """Means of the last tenth (at least one row) of traces of `rows` rows,
    and the largest deviation from each there; each row of `values` holds
    one trace's final rows.  A NaN in that tenth raises NotConvergentError
    naming the trace."""
    tail = values[:, -tenth(rows):]
    if np.isnan(tail).any():
        raise NotConvergentError(f"{name} is NaN in its last tenth, rows "
                                 f"{rows - tail.shape[1] + 1} .. {rows}")
    mean = tail.mean(axis=1)
    return mean.tolist(), np.abs(tail - mean[:, None]).max(axis=1).tolist()


def _s_rows(phi: FundamentalMatrix, N: int) -> int:
    """L - N, the last row of S_n along phi alpha; NotConvergentError if L <= N."""
    if phi.last_index <= N:
        raise NotConvergentError(f"the fundamental matrix ends at L = {phi.last_index}, "
                                 f"which leaves no Turan value S_n for N = {N}")
    return phi.last_index - N


def turan_convergence(fam: CoefficientFamily, N: int, z: complex,
                      alphas: Sequence[np.ndarray], horizon: int, *,
                      phi: FundamentalMatrix | None = None) -> ConvergenceReport:
    """Limits g of the Turan sequences S_n with Cauchy residuals, plus a
    consistency check of |g - S_m| against the variation tails past m for a
    single fitted constant.

    Every trajectory is phi alpha, read from the fundamental matrix at z to
    `horizon` (propagated here unless the caller passes it), so the S_n of
    all of them have rows 1 .. L - N, L its last index.  Raises
    NotConvergentError when L <= N, or when an S_n sequence oscillates as
    widely as its putative limit or is NaN in the last tenth of its rows.
    """
    first_m = 20  # the smallest m of the rate check, whose window is (m, horizon)
    if horizon <= first_m:
        raise ValueError(f"horizon {horizon} leaves no variation window past m = {first_m}")
    phi = fundamental_matrix(fam, z, horizon) if phi is None else phi
    al = initial_data(alphas, fam.dim)
    rows = _s_rows(phi, N)  # past them, NaN padding
    values = _traces_from(fam, N, phi.samples(al), horizon)
    per = []
    for a, g, residual in zip(al, *_tail(values[:, :rows], rows, "Turan sequence S_n")):
        if abs(g) <= residual:
            raise NotConvergentError(f"Turan sequence oscillates by {residual:.3e} "
                                     f"around {g:.3e}")
        per.append(ConvergenceAlphaStats(a, g, residual, residual < 1e-6 * abs(g)))
    ms = sorted({max(first_m, horizon // (2 ** k)) for k in range(2, 7)})
    details = [{"m": m,
                "deviation": max(abs(s.g - v) for s, v in zip(per, values[:, m - 1].tolist())),
                "tail": _variation_tails(fam, N, z, m, horizon)} for m in ms]
    worst = max([0.0] + [d["deviation"] / d["tail"] for d in details if d["tail"] > 0])
    for d in details:
        d["ok"] = bool(d["deviation"] <= worst * d["tail"] * (1 + 1e-6) + 1e-12
                       or d["tail"] == 0 and d["deviation"] <= 1e-10)
    return ConvergenceReport(N, z, horizon, per, all(d["ok"] for d in details), worst, details)


# ---- indeterminacy probe ----

COMPLETE_INDETERMINATE = "complete_indeterminate"
SELF_ADJOINT_REGIME = "self_adjoint_regime"
PROBE_UNDECIDED = UNDECIDED


@dataclass
class IndeterminacyReport:
    verdict: str
    carleman: _coeffs.SumEvidence
    lambda_set: LambdaSet | None
    per_z: list[dict]
    horizon: int

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "carleman": {
                "partial_sum": self.carleman.partial_sum,
                "verdict": self.carleman.verdict,
            },
            "lambda_set": self.lambda_set.to_dict() if self.lambda_set else None,
            "per_z": [{**d, "z": [d["z"].real, d["z"].imag]} for d in self.per_z],
        }


def indeterminacy_probe(fam: CoefficientFamily, z_samples: Sequence[complex],
                        horizon: int = _coeffs.DEFAULT_HORIZON, N: int = 1,
                        scan_range: tuple[float, float] = (-10.0, 10.0),
                        scan_grid: int = 101) -> IndeterminacyReport:
    """Detect complete indeterminacy: a convergent Carleman sum, a nonempty
    definiteness region of the limit form, and at every sampled z all 2d basis
    trajectories square-summable.  The d solutions seeded from u_0 = e_1 .. e_d
    through the n = 0 relation are combinations of the basis; they span
    d dimensions (solution_dim), and a singular a_0 raises SingularError.
    The basis is propagated only to min(horizon, 2000); the Carleman sum and
    the limit data read the whole horizon, which the report echoes.

    A divergent Carleman sum yields the self-adjoint-regime verdict instead;
    anything short of either standard stays undecided.
    """
    car = carleman_diagnostic(fam, horizon)
    if car.verdict == _coeffs.DIVERGES:
        return IndeterminacyReport(SELF_ADJOINT_REGIME, car, None, [], horizon)
    lim = extract_periodic_limits(fam, N, horizon)
    lset = lambda_scan(lim, scan_range, grid=scan_grid)
    traj_horizon = min(horizon, 2000)
    per_z = []
    all_ok = True
    for z in z_samples:
        # a column cut short because another one overflowed has only the
        # short tail before the cut to read, which decides nothing
        verdicts = [UNDECIDED if t.truncated_at is not None and not t.overflow
                    else l2_tail_diagnostic(t).verdict
                    for t in fundamental_matrix(fam, z, traj_horizon).columns]
        fam.a_inv(0)  # the seeded solutions' u_1 needs it
        ok = all(v == SQUARE_SUMMABLE for v in verdicts)
        all_ok = all_ok and ok
        per_z.append({
            "z": complex(z),
            "basis_verdicts": verdicts,
            "solution_dim": fam.dim,
            "ok": ok,
        })
    if car.verdict == _coeffs.CONVERGES and not lset.empty and all_ok:
        verdict = COMPLETE_INDETERMINATE
    else:
        verdict = PROBE_UNDECIDED
    return IndeterminacyReport(verdict, car, lset, per_z, horizon)


# ---- exact asymptotics along odd windows ----


@dataclass
class ExactAsymptoticsReport:
    C: np.ndarray  # D_0, the block of the weighted-trace reduction
    per_alpha: list[dict]
    horizon: int
    phi: FundamentalMatrix  # the limits' trajectories are phi alpha


def exact_asymptotics(fam: CoefficientFamily, lim: PeriodicLimitData, z: float,
                      alphas: Sequence[np.ndarray], horizon: int, *,
                      phi: FundamentalMatrix | None = None) -> ExactAsymptoticsReport:
    """In the odd-window regime whose limit forms reduce to diag(D, D) with
    one D over the period and C self-adjoint, the weighted trace
    ||a_n|| (<D u_{n-1}, u_{n-1}> + <D u_n, u_n>) shares the Turan limit g.
    With T = 0, Q = 0 and R = Id, D is sym C for N = 1 (mod 4) and -sym C
    for N = 3 (mod 4).  Checks the hypotheses on the supplied limit data,
    then compares both limits per trajectory; the report's C is D_0.

    Every trajectory is phi alpha, read from the fundamental matrix at z to
    `horizon` (propagated here, after the hypothesis checks, unless the
    caller passes it), so all of them end at its cut L.  Each limit is read
    from the last tenth of its trace's rows, S_n's 1 .. L - N and the
    weighted trace's 1 .. L - 1, and phi alpha is formed for the whole
    batch only from the first row of either tenth.  L <= N, or a NaN in a
    tenth, raises NotConvergentError.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    if lim.N % 2 == 0:
        raise HypothesisViolatedError("window length N must be odd")
    if lim.D is None:
        raise HypothesisViolatedError(
            "limit forms have no weighted-trace reduction diag(D, D) (needs T = 0 "
            "and block-diagonal forms with equal halves)")
    D = lim.D[0]
    for j in range(lim.N):
        if op_norm(lim.D[j] - D) > REDUCTION_TOL:
            raise HypothesisViolatedError(f"D[{j}] is not constant across the period")
        if herm_defect(lim.C[j]) > REDUCTION_TOL:
            raise HypothesisViolatedError(f"C[{j}] is not self-adjoint")
    phi = fundamental_matrix(fam, z, horizon) if phi is None else phi
    al = initial_data(alphas, fam.dim)
    L, rows = phi.last_index, _s_rows(phi, lim.N)
    # the first row of either tenth: S_n has rows 1 .. rows, the weighted trace 1 .. L - 1
    start = min(L - tenth(L - 1), rows + 1 - tenth(rows))
    u = phi.samples(al, start - 1)
    g = _tail(_traces_from(fam, lim.N, u, horizon, start)[:, :rows - start + 1], rows,
              "Turan sequence S_n")[0]
    q = np.einsum("knd,de,kne->kn", u.conj(), D, u).real
    west, spread = _tail(norm_stack(fam, start, L - start) * (q[:, :-2] + q[:, 1:-1]), L - 1,
                         "weighted trace")
    per = [{"alpha": a, "g": gi, "weighted_trace_limit": wi, "gap": abs(wi - gi),
            "last_decade_spread": si} for a, gi, wi, si in zip(al, g, west, spread)]
    return ExactAsymptoticsReport(D, per, horizon, phi)


@dataclass
class ChristoffelReport:
    ratios: np.ndarray
    limit_estimate: float
    residual: float


def christoffel_limit(fam: CoefficientFamily, C: np.ndarray,
                      traj: Trajectory) -> ChristoffelReport:
    """Cesaro ratio [sum_k 1/||a_k||]^{-1} sum_k <C u_k, u_k> along the
    trajectory, over every stored sample; under the exact-asymptotics
    hypotheses with a divergent Carleman sum it tends to g/2.  The runner
    passes FundamentalMatrix.trajectory(alpha) of the fundamental matrix its
    exact_asymptotics read, whose residuals are bounds (not read here).
    """
    C = require_hermitian(C)
    L = traj.last_index
    if carleman_diagnostic(fam, L + 1).verdict == _coeffs.CONVERGES:
        raise HypothesisViolatedError("Carleman sum converges; the Cesaro ratio needs divergence")
    inv_norms = 1.0 / norm_stack(fam, 0, L + 1)
    q = np.einsum("nd,de,ne->n", traj.u.conj(), C, traj.u).real
    ratios = np.cumsum(q) / np.cumsum(inv_norms)
    est = float(ratios[-1])
    residual = float(np.abs(tail_window(ratios)[1] - est).max())
    return ChristoffelReport(ratios, est, residual)
