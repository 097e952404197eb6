"""Commutator-type quadratic functionals with weight sequences alpha_n.

The weighted functional

    S_n = <sym{[[alpha_n a_n^*, -(lambda - b_n) a_{n-1}^{-1} alpha_{n-1} a_n],
                [0, a_n^* a_{n-1}^{-1} alpha_{n-1} a_n]]} (u_n, u_{n+1}),
          (u_n, u_{n+1})>

controls trajectory growth once four summability conditions on the weights
hold; normalizing by ||alpha_n a_n^*|| and letting n grow produces the limit
form whose strict definiteness yields two-sided norm bounds.  Two concrete
weight choices are packaged: alpha_n = a_n for rapidly growing families, and
iterated-log weights alpha_n = n log(n) ... (a_n^*)^{-1} for families growing
just fast enough.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import coeffs as _coeffs
from .coeffs import (
    CoefficientFamily,
    bounded_verdict,
    iter_log_arrays,
    require_nested_logs,
    series_verdict,
    stack_limit,
    vanishing_verdict,
)
from .opcore import (
    Definiteness,
    NotConvergentError,
    adj,
    as_operator,
    classify_definiteness,
    conditioning,
    op_norm,
    quad_form,
    singular_extremes,
    stack_mul,
    stack_neg_part_norms,
    sym,
)
from .recurrence import Trajectory, propagate


# ---- weight strategies ----


class AlphaStrategy:
    """Invertible weight sequence alpha_n attached to a family."""

    name = "abstract"

    def alpha(self, fam: CoefficientFamily, n: int) -> np.ndarray:
        """alpha_n, a one-row view of stack."""
        return self.stack(fam, n, 1)[0]

    def stack(self, fam: CoefficientFamily, start: int, count: int) -> np.ndarray:
        """alpha_n for n = start .. start+count-1 as one (count, d, d) array."""
        raise NotImplementedError


class IdentityWeights(AlphaStrategy):
    name = "identity"

    def stack(self, fam: CoefficientFamily, start: int, count: int) -> np.ndarray:
        return np.broadcast_to(np.eye(fam.dim, dtype=np.complex128),
                               (max(count, 0), fam.dim, fam.dim))


class ANWeights(AlphaStrategy):
    """alpha_n = a_n; the natural choice when ||a_n^{-1}|| -> 0."""

    name = "an"

    def stack(self, fam: CoefficientFamily, start: int, count: int) -> np.ndarray:
        return fam.stacks(start, count, inverse=False)[0]


class LogWeights(AlphaStrategy):
    """alpha_n = n log(n) loglog(n) ... (depth factors) (a_n^*)^{-1} from
    n_start on, identity before; n_start must support the nested logs."""

    def __init__(self, depth: int, n_start: int = 20):
        require_nested_logs(depth, n_start, "n_start")
        self.depth = depth
        self.n_start = n_start
        self.name = f"log(depth={depth},start={n_start})"

    def stack(self, fam: CoefficientFamily, start: int, count: int) -> np.ndarray:
        out = np.array(IdentityWeights().stack(fam, start, count))
        lo, stop = max(start, self.n_start), start + count
        if lo < stop:
            ns = np.arange(lo, stop)
            scale = ns * iter_log_arrays(self.depth, ns)[1]
            out[lo - start:] = scale[:, None, None] * adj(fam.stacks(lo, stop - lo)[1])
        return out


class CustomWeights(AlphaStrategy):
    """alpha_n = fn(n), the one strategy evaluated once per index."""

    def __init__(self, fn, name: str = "custom"):
        self._fn = fn
        self.name = name

    def stack(self, fam: CoefficientFamily, start: int, count: int) -> np.ndarray:
        rows = [as_operator(self._fn(n)) for n in range(start, start + count)]
        return np.array(rows, dtype=np.complex128).reshape(len(rows), fam.dim, fam.dim)


# ---- forms and values ----


def commutator_form(fam: CoefficientFamily, strategy: AlphaStrategy, n: int,
                    lam: float) -> np.ndarray:
    """Un-normalized Hermitian form matrix evaluated at (u_n, u_{n+1}); n >= 1."""
    if n < 1:
        raise ValueError("forms start at n = 1")
    d = fam.dim
    g = fam.a_inv(n - 1) @ strategy.alpha(fam, n - 1) @ fam.a(n)  # conjugated lower weight
    m11 = strategy.alpha(fam, n) @ adj(fam.a(n))
    m12 = -(lam * np.eye(d) - fam.b(n)) @ g
    m22 = adj(fam.a(n)) @ g
    return sym(np.block([[m11, m12], [np.zeros((d, d)), m22]]))


def boundary_form(fam: CoefficientFamily, strategy: AlphaStrategy, n: int,
                  lam: float) -> np.ndarray:
    """Equivalent representation evaluated at (u_{n-1}, u_n); n >= 1."""
    if n < 1:
        raise ValueError("forms start at n = 1")
    d = fam.dim
    al_prev = strategy.alpha(fam, n - 1)
    m11 = al_prev @ adj(fam.a(n - 1))
    m12 = -al_prev @ (lam * np.eye(d) - fam.b(n))
    m22 = strategy.alpha(fam, n) @ adj(fam.a(n))
    return sym(np.block([[m11, m12], [np.zeros((d, d)), m22]]))


def commutator_value(fam: CoefficientFamily, strategy: AlphaStrategy, n: int,
                     lam: float, alpha: np.ndarray | None = None,
                     traj: Trajectory | None = None,
                     representation: str = "interior") -> float:
    """S_n along a trajectory, through either equivalent representation:
    "interior" pairs the form with (u_n, u_{n+1}), "boundary" with
    (u_{n-1}, u_n).  Both agree on generalised eigenvectors."""
    if traj is None:
        if alpha is None:
            raise ValueError("need either a trajectory or initial data")
        traj = propagate(fam, lam, alpha, n + 2)
    if representation == "interior":
        m = commutator_form(fam, strategy, n, lam)
        v = np.concatenate([traj.u[n], traj.u[n + 1]])
    elif representation == "boundary":
        m = boundary_form(fam, strategy, n, lam)
        v = np.concatenate([traj.u[n - 1], traj.u[n]])
    else:
        raise ValueError(f"unknown representation {representation!r}")
    return quad_form(m, v)


def weight_scale(fam: CoefficientFamily, strategy: AlphaStrategy, n: int) -> float:
    """Normalization ||alpha_n a_n^*||."""
    return op_norm(strategy.alpha(fam, n) @ adj(fam.a(n)))


# ---- the limit form C(lambda) ----


@dataclass
class CLimitReport:
    C_lambda: np.ndarray
    residual: float
    converged: bool
    definiteness: Definiteness
    horizon: int


def _normalized_forms(fam: CoefficientFamily, strategy: AlphaStrategy, lam: float,
                      ns: np.ndarray) -> np.ndarray:
    """commutator_form(n) / weight_scale(n) for every n of an increasing
    index array (n >= 1), as one stack."""
    lo = int(ns[0]) - 1
    count = int(ns[-1]) + 1 - lo
    A, _, B, _ = fam.stacks(lo, count, inverse=False)
    AINV = fam.stacks(lo, count - 1)[1]
    AL = strategy.stack(fam, lo, count)
    k = ns - lo
    AH = adj(A[k])
    g = stack_mul(stack_mul(AINV[k - 1], AL[k - 1]), A[k])
    d = fam.dim
    m = np.zeros((len(k), 2 * d, 2 * d), dtype=np.complex128)
    m[:, :d, :d] = stack_mul(AL[k], AH)
    m[:, :d, d:] = stack_mul(-(lam * np.eye(d) - B[k]), g)
    m[:, d:, d:] = stack_mul(AH, g)
    return sym(m) / op_norm(m[:, :d, :d])[:, None, None]


def c_limit(fam: CoefficientFamily, strategy: AlphaStrategy, lam: float,
            horizon: int = _coeffs.DEFAULT_HORIZON) -> CLimitReport:
    """Numerical limit of the normalized form matrices.

    The last-decade Cauchy residual under 1e-8 marks clean convergence; a
    residual that refuses to contract (no better than half the mid-trace
    residual, and larger than 1e-3) raises NotConvergentError.  A horizon
    whose mid-trace window [0.45 horizon, 0.55 horizon) holds no index
    (2, 3, 5, 7 and 9) raises ValueError.
    """
    def window_residual(lo: int, hi: int, step: int) -> tuple[np.ndarray, float]:
        forms = _normalized_forms(fam, strategy, lam, np.arange(lo, hi, step))
        mean = forms.sum(axis=0) / len(forms)
        return mean, float(op_norm(forms - mean).max())

    mid_lo, mid_hi = max(1, int(0.45 * horizon)), int(0.55 * horizon)
    if mid_hi <= mid_lo:
        raise ValueError(f"horizon {horizon} leaves the mid-trace window "
                         f"[{mid_lo}, {mid_hi}) empty")
    step = max(1, horizon // 400)
    mid, mid_res = window_residual(mid_lo, mid_hi, step)
    last, last_res = window_residual(max(1, int(0.9 * horizon)), horizon, step)
    scale = max(1.0, op_norm(last))
    if last_res > 1e-3 * scale and last_res > 0.5 * mid_res:
        raise NotConvergentError(
            f"normalized forms do not settle: residual {last_res:.3e} "
            f"after {mid_res:.3e} mid-trace"
        )
    converged = last_res < 1e-8 * scale
    return CLimitReport(last, last_res, converged, classify_definiteness(last), horizon)


# ---- criterion reports ----


@dataclass
class CheckItem:
    name: str
    ok: bool
    evidence: dict


@dataclass
class CriterionReport:
    """A criterion's items and term traces; the four weight conditions of a
    strategy are one, named after the strategy."""

    name: str
    horizon: int
    items: list[CheckItem]
    traces: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(item.ok for item in self.items)

    def item(self, name: str) -> CheckItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)


def _series_item(name: str, terms: np.ndarray, first_index: int,
                 want: str = _coeffs.CONVERGES) -> CheckItem:
    """The item `name`, holding when the series of `terms` (term k is index
    first_index + k) reads `want`."""
    ev = series_verdict(terms, first_index=first_index)
    return CheckItem(name, ev.verdict == want, ev.to_dict())


# ---- the four weight conditions ----


def weight_conditions(fam: CoefficientFamily, strategy: AlphaStrategy,
                      horizon: int = _coeffs.DEFAULT_HORIZON) -> CriterionReport:
    """The four summability conditions for the given weights, as the items
    (a) "neg_part": summable negative parts, (b) "drift": summable weight
    drift, (c) "commutator": summable commutator defect, and
    (d) "inverse_weight": divergent inverse weight norms.

    Terms start at n = 1 (the n = 0 commutator term would reach back to the
    undefined a_{-1}; summability is a tail property, so the start index does
    not affect any verdict).  Row k of the stacks below is index k, and the
    term arrays run over n = 1 .. horizon-1.
    """
    A, _, B, _ = fam.stacks(0, horizon + 1, inverse=False)
    AINV = fam.stacks(0, horizon - 1)[1]
    AL = strategy.stack(fam, 0, horizon + 1)
    AH = adj(A)
    W = stack_mul(AL, AH)  # alpha_n a_n^*
    scales = op_norm(W)
    g = stack_mul(stack_mul(AINV, AL[:-2]), A[1:-1])
    s = scales[1:-1]
    t_neg = stack_neg_part_norms(W[2:] - stack_mul(AH[1:-1], g)) / s
    t_drift = op_norm(g - AL[1:-1]) / s
    t_comm = op_norm(stack_mul(AL[1:-1], B[2:]) - stack_mul(B[1:-1], g)) / s
    t_inv = 1.0 / scales[:horizon]
    items = [
        _series_item("neg_part", t_neg, 1),
        _series_item("drift", t_drift, 1),
        _series_item("commutator", t_comm, 1),
        _series_item("inverse_weight", t_inv, 0, want=_coeffs.DIVERGES),
    ]
    traces = {"neg_part": t_neg, "drift": t_drift, "commutator": t_comm,
              "inverse_weight": t_inv}
    return CriterionReport(strategy.name, horizon, items, traces)


# ---- packaged criteria ----


def check_growth_criterion(fam: CoefficientFamily,
                           horizon: int = _coeffs.DEFAULT_HORIZON) -> CriterionReport:
    """Criterion for alpha_n = a_n: vanishing ||a_n^{-1}|| and ||a_n^{-1} b_n||,
    summable negative parts of a_{n+1} a_{n+1}^* - a_n^* a_n (normalized by
    ||a_n||^2), summable normalized commutators a_n b_{n+1} - b_n a_n,
    divergent sum of 1/||a_n||^2, and convergence of a_n/||a_n|| to an
    invertible direction."""
    A, _, B, NRM = fam.stacks(0, horizon + 1, inverse=False)
    AINV = fam.stacks(0, horizon)[1]
    inv_norms = op_norm(AINV)
    invb_norms = op_norm(stack_mul(AINV, B[:-1]))

    # terms for n = 1 .. horizon-1 from C_n = a_n/||a_n|| and a_{n+1}/||a_n||:
    # no product of two large a_n is formed, and no division by ||a_horizon||
    C = A[:-1] / NRM[:-1, None, None]
    R = A[2:] / NRM[1:-1, None, None]
    t_neg = stack_neg_part_norms(stack_mul(R, adj(R)) - stack_mul(adj(C[1:]), C[1:]))
    t_comm = op_norm(stack_mul(C[1:], B[2:]) - stack_mul(B[1:-1], C[1:])) / NRM[1:-1]
    with np.errstate(over="ignore"):  # 1/inf is 0 in the norm-square sum
        sq = NRM[:-1] ** 2

    lim = stack_limit(lambda ns: C[ns], np.arange(horizon))
    cond, past = conditioning(lim.value)[1:] if lim.converged else (float("inf"), True)

    items = [
        CheckItem("inverse_vanishes", *vanishing_verdict(inv_norms)),
        CheckItem("inverse_b_vanishes", *vanishing_verdict(invb_norms)),
        _series_item("neg_part_summable", t_neg, 1),
        _series_item("commutator_summable", t_comm, 1),
        _series_item("norm_square_sum_diverges", 1.0 / sq, 0, want=_coeffs.DIVERGES),
        CheckItem("direction_converges", lim.converged and not past,
                  {"residual": lim.residual, "condition": cond, "method": lim.method}),
    ]
    traces = {"inverse_norms": inv_norms, "inverse_b_norms": invb_norms,
              "neg_part": t_neg, "commutator": t_comm, "norm_squares": sq}
    return CriterionReport("growth_criterion", horizon, items, traces)


def check_log_weight_criterion(fam: CoefficientFamily, depth: int,
                               n_start: int = 20,
                               horizon: int = _coeffs.DEFAULT_HORIZON) -> CriterionReport:
    """Criterion for iterated-log weights: vanishing ||a_n^{-1}||, the
    two-sided envelope

        (1 - c_n) Id <= |(a_{n-1}^*)^{-1} a_n| <= (1 + 1/n + sum_j 1/(n g_j(n)) + c_n) Id

    with summable slack c_n, bounded b_n with summable inverse-twisted
    commutators, and summable ||a_n^{-1}||/n.  The envelope runs over
    n = n_start+1 .. horizon-1; a horizon that leaves it empty raises
    ValueError."""
    require_nested_logs(depth, n_start, "n_start")
    if horizon <= n_start + 1:
        raise ValueError(f"horizon {horizon} leaves no envelope term past n_start = {n_start}")
    A, _, B, _ = fam.stacks(0, horizon + 1, inverse=False)
    AINV = fam.stacks(0, horizon)[1]
    inv_norms = op_norm(AINV)

    # |W| has the singular values of W as its spectrum, so the envelope
    # compares the extreme singular values of W = (a_{n-1}^*)^{-1} a_n
    ns = np.arange(n_start + 1, horizon)
    sv_max, sv_min = singular_extremes(
        stack_mul(adj(AINV[n_start:horizon - 1]), A[n_start + 1:horizon]))
    env_sum = np.zeros(len(ns))
    for j in range(1, depth + 1):
        env_sum = env_sum + 1.0 / (ns * iter_log_arrays(j, ns)[1])
    env = 1.0 + 1.0 / ns + env_sum
    slack = np.maximum(np.maximum(0.0, 1.0 - sv_min), sv_max - env)
    b_norms = op_norm(B[:-1])
    t_tw = op_norm(stack_mul(AINV, B[:-1]) - stack_mul(B[1:], AINV))

    items = [
        CheckItem("inverse_vanishes", *vanishing_verdict(inv_norms)),
        _series_item("envelope_slack_summable", slack, n_start + 1),
        CheckItem("b_bounded", *bounded_verdict(b_norms)),
        _series_item("twisted_commutator_summable", t_tw, 0),
        _series_item("weighted_inverse_summable", inv_norms[1:] / np.arange(1, horizon), 1),
    ]
    traces = {"inverse_norms": inv_norms, "envelope_slack": slack, "b_norms": b_norms,
              "twisted_commutator": t_tw}
    return CriterionReport("log_weight_criterion", horizon, items, traces)
