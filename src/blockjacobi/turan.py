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
    stack_limit,
    tail_window,
    total_variation,
)
from .opcore import (
    DEFINITENESS_EPS,
    Definiteness,
    HypothesisViolatedError,
    NotConvergentError,
    SingularError,
    adj,
    as_operator,
    classify_definiteness,
    herm_defect,
    invert,
    op_norm,
    quad_form,
    require_hermitian,
    sym,
)
from .recurrence import (
    SQUARE_SUMMABLE,
    Trajectory,
    basis_trajectories,
    coefficient_stacks,
    l2_tail_diagnostic,
    norm_stack,
    propagate,
    propagate_block,
    transfer_stack,
    window_product,
    weighted_norm_trace,
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
    alpha = (u_0, u_1); the per-row oracle of turan_traces."""
    m = _row_form(fam, N, n, z)
    traj = propagate(fam, z, alpha, max(n + 1, 2))
    return quad_form(m, np.concatenate([traj.u[n - 1], traj.u[n]]))


@dataclass
class TuranTrace:
    N: int
    z: complex
    alpha: np.ndarray
    n_start: int
    values: np.ndarray  # values[k] is S_{n_start + k}


def _traces_from(fam: CoefficientFamily, N: int, z: complex, trajs: Sequence[Trajectory],
                 horizon: int, start: int = 1) -> list[TuranTrace]:
    """S_n, n = start .. horizon-1, for already-propagated trajectories.

    One stack of form matrices serves every trajectory.  It is left without
    sym, which does not change the real part of a quadratic form.  Window
    products come from batched matrix multiplication of shifted transfer
    stacks, values from batched quadratic forms.  Each row is computed on
    its own, so a later start leaves the bits of every row.
    """
    if N < 1:
        raise ValueError("window length N must be >= 1")
    count = horizon - start
    bst = transfer_stack(fam, z, start, count + N - 1)
    x = bst[:count]
    for k in range(1, N):
        x = bst[k:k + count] @ x
    m = _weight_block(coefficient_stacks(fam, start + N - 1, count)[0]) @ x
    out = []
    for traj in trajs:
        avail = min(horizon - 1, traj.last_index) - start + 1
        vals = np.full(count, np.nan)
        if avail >= 1:
            u = traj.u[start - 1:]
            v = np.concatenate([u[0:avail], u[1:avail + 1]], axis=1)
            mv = np.einsum("nij,nj->ni", m[:avail], v)
            vals[:avail] = np.einsum("ni,ni->n", v.conj(), mv).real
        out.append(TuranTrace(N, z, traj.alpha, start, vals))
    return out


def turan_traces(fam: CoefficientFamily, N: int, z: complex,
                 alphas: Sequence[np.ndarray], horizon: int) -> list[TuranTrace]:
    """S_n for n = 1 .. horizon-1 along each seeded trajectory."""
    return _traces_from(fam, N, z, propagate_block(fam, z, alphas, horizon), horizon)


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
    weighted-trace reduction D.  A C_j or R_j past CONDITION_LIMIT raises
    SingularError, or with singular_ok gives r_j = nan, no D and a cleared
    converged flag."""
    r = []
    for j in range(N):
        try:
            r.append(op_norm(invert(C[j]) @ adj(C[j - 1]) @ invert(R[j])))
        except SingularError:
            if not singular_ok:
                raise
            r.append(float("nan"))
    lim = PeriodicLimitData(N, T, Q, R, C, r, **extra)
    if np.isnan(r).any():
        lim.converged = False
    else:
        lim.D = _diagonal_reduction(lim)
    return lim


def _diagonal_reduction(lim: PeriodicLimitData) -> list[np.ndarray] | None:
    """Common diagonal block of each window form, when the forms are z-free
    (T = 0) and block-diagonal with equal Hermitian halves."""
    if any(op_norm(t) > REDUCTION_TOL for t in lim.T):
        return None
    out = []
    d = lim.dim
    for j in range(lim.N):
        f = limit_form(lim, 0.0, start=j)
        tl, tr, bl, br = f[:d, :d], f[:d, d:], f[d:, :d], f[d:, d:]
        tol = REDUCTION_TOL * max(1.0, op_norm(f))
        if op_norm(tr) > tol or op_norm(bl) > tol or op_norm(tl - br) > tol:
            return None
        out.append(br)  # for N = 1 this is sym C exactly
    return out


def extract_periodic_limits(fam: CoefficientFamily, N: int,
                            horizon: int = _coeffs.DEFAULT_HORIZON) -> PeriodicLimitData:
    """Estimate the residue-wise limit data from the family itself.

    Each entry is accepted by the Cauchy rule over the last decade of indices
    or, for slow power-law tails, by agreement of staggered Aitken
    extrapolations.  Failures leave the last raw value in place and clear the
    converged flag; extraction is diagnostic, not fatal.
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
    data: dict[str, list[np.ndarray]] = {k: [] for k in takes}
    residuals: dict[str, list[float]] = {k: [] for k in takes}
    converged = True
    for name, take in takes.items():
        lo = 1 if name == "R" else 0
        for j in range(N):
            first = j if j >= lo else j + N
            idx = list(range(first, horizon, N))
            if not idx:
                raise ValueError("horizon too small for the requested period")
            lim = stack_limit(take, idx, tol=EXTRACTION_TOL)
            data[name].append(lim.value)
            residuals[name].append(lim.residual)
            converged = converged and lim.converged
    return _limit_data(N, data["T"], data["Q"], data["R"], data["C"], singular_ok=True,
                       residuals=residuals, converged=converged, horizon=horizon)


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
    prod = np.eye(2 * lim.dim, dtype=np.complex128)
    for k in range(start, start + lim.N):
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
    definiteness (see _scan); fn is called once per point."""
    return _scan(lambda xs: np.stack([fn(float(x)) for x in xs]), lo, hi, grid, eps)


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
    cls = classify_definiteness(forms(xs), eps)
    strict = (Definiteness.STRICTLY_POSITIVE, Definiteness.STRICTLY_NEGATIVE)
    runs, edges = [], []  # runs (first, last, sign); edges (outside, inside)
    i = 0
    while i < grid:
        if cls[i] not in strict:
            i += 1
            continue
        j = i
        while j + 1 < grid and cls[j + 1] == cls[i]:
            j += 1
        runs.append((i, j, cls[i]))
        edges += [(i - 1, i)] * (i > 0) + [(j + 1, j)] * (j < grid - 1)
        i = j + 1
    outside, inside = xs[np.array(edges, dtype=int).reshape(-1, 2).T]
    todo = np.flatnonzero(np.abs(inside - outside) > ENDPOINT_TOL)
    while len(todo):
        mid = 0.5 * (inside[todo] + outside[todo])
        # edges that share a cell share midpoints: classify each once
        points, which = np.unique(mid, return_inverse=True)
        got = classify_definiteness(forms(points), eps)
        hit = np.array([got[w] == cls[edges[k][1]] for w, k in zip(which, todo)])
        inside[todo[hit]] = mid[hit]
        outside[todo[~hit]] = mid[~hit]
        todo = todo[np.abs(inside[todo] - outside[todo]) > ENDPOINT_TOL]
    ends = iter((0.5 * (inside + outside)).tolist())
    intervals = [SignInterval(float(xs[i]) if i == 0 else next(ends),
                              float(xs[j]) if j == grid - 1 else next(ends), sign)
                 for i, j, sign in runs]
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
                    burn_in: int = 10) -> BandReport:
    """Empirical two-sided bounds on ||a_n|| (||u_{n-1}||^2 + ||u_n||^2),
    normalized by ||alpha||^2, over n in [burn_in, horizon)."""
    if burn_in < 1:
        raise ValueError(f"burn_in must be >= 1, got {burn_in}")
    stats = []
    c1, c2 = float("inf"), 0.0
    for traj in propagate_block(fam, z, alphas, horizon):
        s = weighted_norm_trace(fam, traj)
        nrm2 = float(np.linalg.norm(traj.alpha) ** 2)
        seg = s[burn_in - 1:] / nrm2
        if not len(seg):
            raise ValueError(f"burn_in {burn_in} leaves no samples: the trajectory "
                             f"ends at index {traj.last_index}")
        lo, hi = float(seg.min()), float(seg.max())
        stats.append(BandAlphaStats(traj.alpha, lo, hi, traj.overflow))
        c1, c2 = min(c1, lo), max(c2, hi)
    return BandReport(N, z, horizon, burn_in, c1, c2, stats)


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


def _tail(values: np.ndarray, rows: int, name: str) -> tuple[float, float]:
    """Mean of the last tenth (at least one row) of a trace of `rows` rows,
    and the largest deviation from it there; `values` holds the trace's
    final rows.  A NaN in that tenth raises NotConvergentError naming the
    trace."""
    tail = values[-max(1, rows // 10):]
    if np.isnan(tail).any():
        raise NotConvergentError(f"{name} is NaN in its last tenth, rows "
                                 f"{rows - len(tail) + 1} .. {rows}")
    mean = float(tail.mean())
    return mean, float(np.abs(tail - mean).max())


def turan_convergence(fam: CoefficientFamily, N: int, z: complex,
                      alphas: Sequence[np.ndarray], horizon: int) -> ConvergenceReport:
    """Limits g of the Turan sequences S_n with Cauchy residuals, plus a
    consistency check of |g - S_m| against the variation tails past m for a
    single fitted constant.

    Raises NotConvergentError when an S_n sequence oscillates as widely as its
    putative limit, or is NaN in the last tenth of its rows up to its
    trajectory's end.
    """
    first_m = 20  # the smallest m of the rate check, whose window is (m, horizon)
    if horizon <= first_m:
        raise ValueError(f"horizon {horizon} leaves no variation window past m = {first_m}")
    trajs = propagate_block(fam, z, alphas, horizon)
    traces = _traces_from(fam, N, z, trajs, horizon)
    per = []
    for tr, traj in zip(traces, trajs):
        rows = min(horizon - 1, traj.last_index)  # past the end, NaN padding
        g, residual = _tail(tr.values[:rows], rows, "Turan sequence S_n")
        if abs(g) <= residual:
            raise NotConvergentError(
                f"Turan sequence oscillates by {residual:.3e} around {g:.3e}"
            )
        per.append(ConvergenceAlphaStats(tr.alpha, g, residual,
                                         residual < 1e-6 * abs(g)))
    ms = sorted({max(first_m, horizon // (2 ** k)) for k in range(2, 7)})
    details = []
    worst = 0.0
    for m in ms:
        tail = _variation_tails(fam, N, z, m, horizon)
        dev = max(abs(per[i].g - traces[i].values[m - 1]) for i in range(len(per)))
        details.append({"m": m, "deviation": dev, "tail": tail})
        if tail > 0:
            worst = max(worst, dev / tail)
    rate_ok = True
    for dct in details:
        bound = worst * dct["tail"] * (1 + 1e-6) + 1e-12
        ok = bool(dct["deviation"] <= bound
                  or dct["tail"] == 0 and dct["deviation"] <= 1e-10)
        dct["ok"] = ok
        rate_ok = rate_ok and ok
    return ConvergenceReport(N, z, horizon, per, rate_ok, worst, details)


# ---- indeterminacy probe ----

COMPLETE_INDETERMINATE = "complete_indeterminate"
SELF_ADJOINT_REGIME = "self_adjoint_regime"
PROBE_UNDECIDED = UNDECIDED


@dataclass
class IndeterminacyReport:
    verdict: str
    carleman: object
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
                    for t in basis_trajectories(fam, z, traj_horizon)]
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
    trajectories: list[Trajectory]  # one per alpha, as propagated for the limits


def exact_asymptotics(fam: CoefficientFamily, lim: PeriodicLimitData, z: float,
                      alphas: Sequence[np.ndarray], horizon: int) -> ExactAsymptoticsReport:
    """In the odd-window regime whose limit forms reduce to diag(D, D) with
    one D over the period and C self-adjoint, the weighted trace
    ||a_n|| (<D u_{n-1}, u_{n-1}> + <D u_n, u_n>) shares the Turan limit g.
    With T = 0, Q = 0 and R = Id, D is sym C for N = 1 (mod 4) and -sym C
    for N = 3 (mod 4).  Checks the hypotheses on the supplied limit data,
    then compares both limits per trajectory; the report's C is D_0.

    Each limit is read from the last tenth of its trace's rows, and only
    those rows are evaluated; a NaN there raises NotConvergentError.
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
    trajs = propagate_block(fam, z, alphas, horizon)
    # every tenth starts at or after that of the shortest column's weighted trace
    K = min(traj.last_index for traj in trajs) - 1
    start = K - max(1, K // 10) + 1
    per = []
    for tr, traj in zip(_traces_from(fam, lim.N, z, trajs, horizon, start), trajs):
        u = traj.u[start - 1:]
        q = np.einsum("nd,de,ne->n", u.conj(), D, u).real
        w = norm_stack(fam, start, traj.last_index - start)
        rows = min(horizon - 1, traj.last_index)
        g = _tail(tr.values[:rows - start + 1], rows, "Turan sequence S_n")
        west = _tail(w * (q[:-2] + q[1:-1]), traj.last_index - 1, "weighted trace")
        per.append({"alpha": tr.alpha, "g": g[0], "weighted_trace_limit": west[0],
                    "gap": abs(west[0] - g[0]), "last_decade_spread": west[1]})
    return ExactAsymptoticsReport(D, per, horizon, trajs)


@dataclass
class ChristoffelReport:
    ratios: np.ndarray
    limit_estimate: float
    residual: float


def christoffel_limit(fam: CoefficientFamily, C: np.ndarray,
                      traj: Trajectory) -> ChristoffelReport:
    """Cesaro ratio [sum_k 1/||a_k||]^{-1} sum_k <C u_k, u_k> along the
    trajectory; under the exact-asymptotics hypotheses with a divergent
    Carleman sum it tends to g/2.
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
