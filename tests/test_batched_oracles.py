"""Batched checkers and propagation against per-index oracles.

Every checker that runs over stacks of coefficients is compared here with a
loop over the scalar helpers (commutator_form, weight_scale, op_norm,
neg_part) on the same family, one index at a time, and every trajectory with
a sequential step loop that reads the coefficients through the accessors.
Agreement is asked to rtol 1e-12; terms that cancel to rounding level carry
an absolute allowance of 1e-14 times the size of the parts that cancel, since
the two paths round those parts differently.
"""

import math
import warnings

import numpy as np
import pytest

from conftest import rand_family
from blockjacobi import fixtures
from blockjacobi.coeffs import (
    WEIGHT_KINDS,
    BlockRecipLogWeight,
    BlockSqrtLogWeight,
    ConstantWeight,
    LogProductWeight,
    PowerWeight,
    RecipIterLogWeight,
    TabulatedWeight,
    block_index,
    block_indices,
    carleman_diagnostic,
    constant_family,
    custom_family,
    g_product,
    sequence_limit,
    sequence_stack,
    tabulated_family,
    total_variation,
    validate_family,
)
from blockjacobi.commutator import (
    ANWeights,
    CustomWeights,
    IdentityWeights,
    LogWeights,
    c_limit,
    check_growth_criterion,
    check_log_weight_criterion,
    commutator_form,
    weight_conditions,
    weight_scale,
)
from blockjacobi.opcore import SingularError, adj, neg_part, op_norm, sym
from blockjacobi import recurrence
from blockjacobi.recurrence import (
    OVERFLOW_LIMIT,
    fundamental_matrix,
    propagate,
    propagate_block,
)
from blockjacobi.turan import EXTRACTION_TOL, extract_periodic_limits

H = 500
RTOL = 1e-12
ATOL = 1e-14

X = fixtures.X_OP
Y = fixtures.Y_OP


def _custom():
    return custom_family(
        2,
        lambda n: (n + 1.0) ** 0.75 * (X + 0.1 * math.sin(n) * Y),
        lambda n: math.cos(n) / (n + 1.0) * Y,
        "custom oscillating")


FAMILIES = {
    "paper-constant": fixtures.paper_constant,
    "paper-unbounded": fixtures.paper_unbounded,
    "paper-blockrepeat": fixtures.paper_blockrepeat,
    "paper-logweight": fixtures.paper_logweight,
    "sqrt-growth": fixtures.sqrt_growth,
    "tabulated": lambda: rand_family(np.random.default_rng(5), 2, H + 8),
    "custom": _custom,
}

STRATEGIES = {
    "identity": IdentityWeights,
    "an": ANWeights,
    "log": lambda: LogWeights(1),
}


def _close(batched, oracle, scale=1.0):
    """|batched - oracle| <= RTOL |oracle| + ATOL max(scale, 1), entrywise."""
    batched, oracle = np.asarray(batched), np.asarray(oracle)
    assert batched.shape == oracle.shape
    allowed = RTOL * np.abs(oracle) + ATOL * np.maximum(scale, 1.0)
    excess = np.abs(batched - oracle) / allowed
    k = np.unravel_index(np.argmax(excess), excess.shape) if excess.size else None
    assert not excess.size or excess[k] <= 1.0, (k, batched[k], oracle[k])


@pytest.fixture(params=sorted(FAMILIES))
def fam(request):
    return FAMILIES[request.param]()


# ---- weight conditions and the limit form ----


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_weight_conditions_match_per_index_loop(fam, strategy):
    strat = STRATEGIES[strategy]()
    rep = weight_conditions(fam, strat, H)
    scales = np.array([weight_scale(fam, strat, n) for n in range(H + 1)])
    t_neg, t_drift, t_comm, parts = [], [], [], []
    for n in range(1, H):
        g = fam.a_inv(n - 1) @ strat.alpha(fam, n - 1) @ fam.a(n)
        up = strat.alpha(fam, n + 1) @ adj(fam.a(n + 1))
        m = up - adj(fam.a(n)) @ g
        t_neg.append(op_norm(neg_part(sym(m))) / scales[n])
        t_drift.append(op_norm(g - strat.alpha(fam, n)) / scales[n])
        t_comm.append(op_norm(strat.alpha(fam, n) @ fam.b(n + 1) - fam.b(n) @ g)
                      / scales[n])
        parts.append((op_norm(up) + op_norm(g) * op_norm(fam.a(n))
                      + op_norm(g) * op_norm(fam.b(n))
                      + op_norm(strat.alpha(fam, n)) * op_norm(fam.b(n + 1))) / scales[n])
    parts = np.array(parts)
    _close(rep.traces["neg_part"], t_neg, parts)
    _close(rep.traces["drift"], t_drift, parts)
    _close(rep.traces["commutator"], t_comm, parts)
    _close(rep.traces["inverse_weight"], 1.0 / scales[:H])


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_c_limit_matches_per_index_forms(fam, strategy):
    strat = STRATEGIES[strategy]()
    step = max(1, H // 400)
    pts = list(range(int(0.9 * H), H, step))
    forms = [commutator_form(fam, strat, n, 0.5) / weight_scale(fam, strat, n) for n in pts]
    mean = sum(forms) / len(forms)
    try:
        rep = c_limit(fam, strat, 0.5, H)
    except Exception as exc:  # the oracle must then fail to settle as well
        assert type(exc).__name__ == "NotConvergentError"
        return
    _close(rep.C_lambda, mean, max(op_norm(f) for f in forms))
    assert rep.residual == pytest.approx(max(op_norm(f - mean) for f in forms),
                                         rel=1e-9, abs=1e-13)


# ---- packaged criteria ----


def test_growth_criterion_traces_match_per_index_loop(fam):
    rep = check_growth_criterion(fam, H)
    tr = rep.traces
    _close(tr["inverse_norms"], [op_norm(fam.a_inv(n)) for n in range(H)])
    _close(tr["inverse_b_norms"], [op_norm(fam.a_inv(n) @ fam.b(n)) for n in range(H)])
    sq = np.array([fam.norm_a(n) ** 2 for n in range(H)])
    _close(tr["norm_squares"], sq)
    t_neg, t_comm, parts = [], [], []
    for n in range(1, H):
        up = fam.a(n + 1) @ adj(fam.a(n + 1))
        down = adj(fam.a(n)) @ fam.a(n)
        t_neg.append(op_norm(neg_part(sym(up - down))) / sq[n])
        t_comm.append(op_norm(fam.a(n) @ fam.b(n + 1) - fam.b(n) @ fam.a(n)) / sq[n])
        parts.append((op_norm(up) + op_norm(down)
                      + 2 * op_norm(fam.a(n)) * op_norm(fam.b(n + 1))) / sq[n])
    _close(tr["neg_part"], t_neg, np.array(parts))
    _close(tr["commutator"], t_comm, np.array(parts))


def test_log_weight_criterion_traces_match_per_index_loop(fam):
    n_start = 20
    rep = check_log_weight_criterion(fam, 1, n_start, H)
    tr = rep.traces
    _close(tr["inverse_norms"], [op_norm(fam.a_inv(n)) for n in range(H)])
    slack, w_norms = [], []
    for n in range(n_start + 1, H):
        w = adj(fam.a_inv(n - 1)) @ fam.a(n)
        sv = np.linalg.svd(w, compute_uv=False)
        env = 1.0 + 1.0 / n + 1.0 / (n * g_product(1, float(n)))
        slack.append(max(0.0, 1.0 - sv[-1], sv[0] - env))
        w_norms.append(sv[0])
    _close(tr["envelope_slack"], slack, np.array(w_norms))
    _close(tr["b_norms"], [op_norm(fam.b(n)) for n in range(H)])
    tw, parts = [], []
    for n in range(H):
        tw.append(op_norm(fam.a_inv(n) @ fam.b(n) - fam.b(n + 1) @ fam.a_inv(n)))
        parts.append(op_norm(fam.a_inv(n)) * (op_norm(fam.b(n)) + op_norm(fam.b(n + 1))))
    _close(tr["twisted_commutator"], tw, np.array(parts))


# ---- variation, Carleman sums, validation ----

SEQUENCES = {
    "a": lambda f: f.a,
    "b": lambda f: f.b,
    "a_inv": lambda f: f.a_inv,
    "a_inv_b": lambda f: (lambda n: f.a_inv(n) @ f.b(n)),
    "a_inv_a_prev": lambda f: (lambda n: f.a_inv(n) @ adj(f.a(n - 1))),
}


@pytest.mark.parametrize("name", sorted(SEQUENCES))
@pytest.mark.parametrize("N", [1, 2])
def test_total_variation_matches_per_index_loop(fam, name, N):
    seq = SEQUENCES[name](fam)
    start, end = 1, H
    incs = np.array([op_norm(seq(n + N) - seq(n)) for n in range(start, end)])
    values = sequence_stack(fam, name, start, end + N - start)
    rep = total_variation(values, N, (start, end))
    scale = max(op_norm(seq(n)) for n in range(start, end + N))
    assert rep.partial_sum == pytest.approx(float(incs.sum()), rel=RTOL,
                                            abs=ATOL * scale * len(incs))
    # the callable form evaluates the same sums
    assert total_variation(seq, N, (start, end)).partial_sum == rep.partial_sum


def test_carleman_matches_per_index_loop(fam):
    terms = np.array([1.0 / op_norm(fam.a(n)) for n in range(H)])
    rep = carleman_diagnostic(fam, H)
    assert rep.partial_sum == pytest.approx(float(terms.sum()), rel=RTOL)


def test_validate_matches_per_index_checks(fam):
    assert validate_family(fam, range(H)) == []


# ---- propagation ----


def _sequential_propagate(fam, z, alpha, horizon):
    """Reference step loop, one index at a time through the accessors:
    (u, residuals, overflow, truncated_at) of one column."""
    d = fam.dim
    alpha = np.asarray(alpha, dtype=np.complex128).reshape(2 * d)
    u = np.zeros((horizon + 1, d), dtype=np.complex128)
    res = np.zeros(horizon)
    u[0], u[1] = alpha[:d], alpha[d:]
    for n in range(1, horizon):
        t1 = adj(fam.a(n - 1)) @ u[n - 1]
        rhs = z * u[n] - fam.b(n) @ u[n] - t1
        u[n + 1] = fam.a_inv(n) @ rhs
        res[n] = float(np.linalg.norm(fam.a(n) @ u[n + 1] - rhs))
        if np.abs(u[n + 1]).max() > OVERFLOW_LIMIT:
            return u[:n + 2], res[:n + 1], True, n + 1
    return u, res, False, None


def _check_against_sequential(fam, z, alphas, trajs, horizon):
    """Each trajectory equals its sequential column, with the batch cut at
    the first step where any column overflows."""
    refs = [_sequential_propagate(fam, z, a, horizon) for a in alphas]
    cut = min((r[3] for r in refs if r[2]), default=None)
    last = horizon if cut is None else cut
    assert len(trajs) == len(alphas)
    for traj, (u, res, _, _) in zip(trajs, refs):
        u, res = u[:last + 1], res[:last]
        assert traj.last_index == last
        assert traj.truncated_at == cut
        assert traj.overflow == bool(cut is not None and np.abs(u[last]).max() > OVERFLOW_LIMIT)
        _close(traj.u, u, np.linalg.norm(u, axis=1)[:, None])
        # a residual is the rounding left when a_n u_{n+1} cancels the rest
        parts = np.array([fam.norm_a(n) for n in range(last)]) * np.linalg.norm(u[1:], axis=1)
        _close(traj.residuals, res, parts)


PROPAGATION_Z = [0.75, 0.5 + 0.5j]


@pytest.mark.parametrize("z", PROPAGATION_Z)
def test_propagate_matches_sequential_loop(fam, z):
    alpha = np.array([0.6, -0.3j, 0.2 + 0.4j, 0.5])
    _check_against_sequential(fam, z, [alpha], [propagate(fam, z, alpha, H)], H)


@pytest.mark.parametrize("z", PROPAGATION_Z)
def test_propagate_block_matches_sequential_loop(fam, z):
    rng = np.random.default_rng(21)
    alphas = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(3)]
    _check_against_sequential(fam, z, alphas, propagate_block(fam, z, alphas, H), H)


@pytest.mark.parametrize("z", PROPAGATION_Z)
def test_basis_trajectories_match_sequential_loop(fam, z):
    _check_against_sequential(fam, z, list(np.eye(4)), fundamental_matrix(fam, z, H).columns, H)


def test_overflowing_scalar_propagation_matches_sequential_loop():
    # a = 1, b = 0 at z = 10: solutions grow like 9.9^n and overflow early
    fam = custom_family(1, lambda n: np.eye(1), lambda n: np.zeros((1, 1)))
    grow, small = np.array([1.0, 1.0]), np.array([1.0, 0.09901951358])
    traj = propagate(fam, 10.0, grow, H)
    assert traj.overflow and traj.truncated_at < H
    _check_against_sequential(fam, 10.0, [grow], [traj], H)
    _check_against_sequential(fam, 10.0, [small, grow, small],
                              propagate_block(fam, 10.0, [small, grow, small], H), H)
    _check_against_sequential(fam, 10.0, list(np.eye(2)),
                              fundamental_matrix(fam, 10.0, H).columns, H)


def test_propagation_never_reads_the_inverse_of_a_0():
    a_list = [X] * (H + 1)
    a_list[0] = np.array([[1.0, 2.0], [2.0, 4.0]])
    fam = tabulated_family(a_list, [Y] * (H + 1))
    with pytest.raises(SingularError, match="a_0"):
        fam.a_inv(0)
    alphas = [np.array([1.0, 0.0, 0.5, -0.5j]), np.array([0.0, 1.0, 1.0, 0.0])]
    _check_against_sequential(fam, 0.75, alphas[:1], [propagate(fam, 0.75, alphas[0], H)], H)
    _check_against_sequential(fam, 0.75, alphas, propagate_block(fam, 0.75, alphas, H), H)
    _check_against_sequential(fam, 0.75, list(np.eye(4)),
                              fundamental_matrix(fam, 0.75, H).columns, H)


# ---- weights ----

WEIGHTS = [
    ConstantWeight(2.5),
    PowerWeight(0.5, 3),
    PowerWeight(-1.5),
    PowerWeight(2),
    TabulatedWeight(tuple(float(v) for v in np.linspace(0.5, 7.0, 3000))),
    LogProductWeight(1, 10),
    LogProductWeight(2, 20),
    RecipIterLogWeight(1, 10),
    RecipIterLogWeight(3, 20),
    BlockSqrtLogWeight(),
    BlockRecipLogWeight(),
    fixtures._ScaledPower(0.5, 0.25),
    fixtures._Doubling(),
]


def test_weight_list_covers_every_kind():
    assert set(WEIGHT_KINDS.values()) <= {type(w) for w in WEIGHTS}


@pytest.mark.parametrize("w", WEIGHTS, ids=lambda w: type(w).__name__)
def test_weight_array_matches_call(w):
    # doubling leaves the floating range past 2^1023
    ns = np.arange(1000 if isinstance(w, fixtures._Doubling) else 3000)
    want = np.array([w(int(n)) for n in ns])
    np.testing.assert_allclose(w.array(ns), want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("ns", [[], range(0)], ids=["list", "range"])
@pytest.mark.parametrize("w", WEIGHTS, ids=lambda w: type(w).__name__)
def test_an_empty_read_gives_an_empty_float_array(w, ns):
    got = w.array(ns)
    assert got.shape == (0,) and got.dtype == np.float64


def test_block_indices_match_block_index_near_block_edges():
    ks = np.array([1, 2, 3, 10, 1000, 94906265, 10 ** 8])
    starts = ks * (ks - 1) // 2
    ns = np.unique(np.concatenate([starts - 1, starts, starts + 1, starts + ks - 1]))
    ns = ns[ns >= 0]
    assert block_indices(ns).tolist() == [block_index(int(n)) for n in ns]


def _mp_weight(mpmath, w, n: int, block_of: np.ndarray):
    """w(n) in mpmath's working precision, from the weight's parameters;
    block_of[n] is the block number of position n."""
    mpf, log = mpmath.mpf, mpmath.log
    if isinstance(w, ConstantWeight):
        return mpf(w.value)
    if isinstance(w, PowerWeight):
        return mpf(n + w.offset) ** mpf(w.exponent)
    if isinstance(w, TabulatedWeight):
        return mpf(w.values[n])
    if isinstance(w, (LogProductWeight, RecipIterLogWeight)):
        v = g = mpf(n + w.offset)
        for _ in range(w.depth):
            v = log(v)
            g *= v
        return g if isinstance(w, LogProductWeight) else 1 / v
    k = int(block_of[n])
    if isinstance(w, BlockSqrtLogWeight):
        return k * mpmath.sqrt(log(k + 1))
    if isinstance(w, BlockRecipLogWeight):
        return 1 / (k * log(k + 1))
    if isinstance(w, fixtures._ScaledPower):
        return mpf(w.scale) * mpf(n + w._w.offset) ** mpf(w._w.exponent)
    if isinstance(w, fixtures._Doubling):
        return mpf(2) ** n
    raise TypeError(f"no reference for {type(w).__name__}")


@pytest.mark.parametrize("w", WEIGHTS + [LogProductWeight(3, 20)], ids=lambda w: type(w).__name__)
def test_weight_array_matches_mpmath(w):
    mpmath = pytest.importorskip("mpmath")
    ns = np.unique(np.concatenate([np.arange(200),
                                   np.geomspace(200, 1e6, 200).round().astype(np.int64)]))
    if isinstance(w, TabulatedWeight):
        ns = ns[ns < len(w.values)]
    if isinstance(w, fixtures._Doubling):  # 2^n leaves the floating range past n = 1023
        ns = ns[ns < 1000]
    # blocks [0], [1,2], [3,4,5], ...: block k is k repeated k times
    ks = np.arange(1, 1500)
    block_of = np.repeat(ks, ks)
    got = w.array(ns)
    with mpmath.workdps(50):
        errs = [float(abs(mpmath.mpf(float(g)) / _mp_weight(mpmath, w, int(n), block_of) - 1))
                for g, n in zip(got, ns)]
    worst = int(np.argmax(errs))
    assert errs[worst] <= 8 * np.finfo(float).eps, f"n = {ns[worst]}: {errs[worst]:.3g}"


def test_block_indices_at_block_edges():
    # block k runs from k(k-1)/2 to k(k-1)/2 + k - 1; the position before it ends block k - 1.
    # From k near 2^27 on, 8n + 1 at a block's end rounds up to the next odd square as a float.
    for k in (1, 2, 3, 10, 1000, 94906265, 10 ** 8, 2 ** 28):
        start = k * (k - 1) // 2
        ns, want = [start, start + k - 1], [k, k]
        if k > 1:
            ns, want = [start - 1] + ns, [k - 1] + want
        assert block_indices(np.array(ns)).tolist() == want, k


# ---- evaluation discipline of the families ----


def test_custom_family_evaluates_each_index_at_most_once():
    seen = {"a": [], "b": []}

    def a_fn(n):
        seen["a"].append(n)
        return (n + 1.0) * X

    def b_fn(n):
        seen["b"].append(n)
        return Y / (n + 1.0)

    fam = custom_family(2, a_fn, b_fn)
    horizon = 300
    validate_family(fam, range(horizon))
    carleman_diagnostic(fam, horizon)
    weight_conditions(fam, ANWeights(), horizon)
    check_growth_criterion(fam, horizon)
    check_log_weight_criterion(fam, 1, horizon=horizon)
    for n in range(horizon):
        fam.a(n), fam.b(n), fam.a_inv(n), fam.norm_a(n)
    for calls in seen.values():
        assert len(calls) == len(set(calls))
        assert max(calls) == horizon  # the checkers read b_{n+1} and a_{n+1}


def test_custom_weights_evaluate_each_index_once_per_checker():
    calls = []
    strat = CustomWeights(lambda n: (calls.append(n), (n + 1.0) * np.eye(2))[1])
    weight_conditions(fixtures.paper_unbounded(), strat, 200)
    assert sorted(calls) == list(range(201))


def test_family_reads_are_views_of_one_read_only_array():
    fam = fixtures.paper_logweight()
    A, AINV, B, NRM = fam.stacks(0, 1000)
    assert np.shares_memory(A, fam.a(500))
    # the store holds each entry's values over the index contiguously
    assert np.moveaxis(fam._A, 0, -1).flags.c_contiguous
    assert A.strides[0] == A.itemsize
    for arr in (A, AINV, B, NRM, fam.a(3), fam.a_inv(3)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0


def test_singular_entries_raise_only_where_inverses_are_read():
    a_list = [X] * 8
    a_list[3] = np.array([[1.0, 2.0], [2.0, 4.0]])
    fam = tabulated_family(a_list, [Y] * 8)
    assert np.abs(fam.a_inv(5) @ fam.a(5) - np.eye(2)).max() < 1e-12
    with pytest.raises(SingularError, match="a_3"):
        fam.a_inv(3)
    with pytest.raises(SingularError, match="a_3"):
        fam.stacks(1, 7)
    assert fam.stacks(4, 4)[1].shape == (4, 2, 2)
    assert len(fam.stacks(0, 8, inverse=False)[3]) == 8
    with pytest.raises(IndexError):
        fam.stacks(0, 9)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_negative_indices_raise_after_reads(name):
    fam = FAMILIES[name]()
    fam.stacks(0, 50)
    for read in (fam.a, fam.b, fam.a_inv, fam.norm_a):
        with pytest.raises(ValueError):
            read(-1)
    with pytest.raises(ValueError):
        fam.stacks(-1, 3)
    assert np.abs(fam.a_inv(7) @ fam.a(7) - np.eye(2)).max() < 1e-10


# ---- the chunked transfer-product path of the propagation engine ----

# c = isqrt(H - 1) = 70 steps per chunk: 72 chunks in 2 groups.
H_CHUNKED = 5000

# Measured at H_CHUNKED over the families below, two columns each: the
# engine and the per-index loop differ by at most 1.1e-12 of the row norm
# (sqrt-growth at z = 2; every other case stays at or below 3.5e-13).
CHUNKED_TOL = 1e-11

CHUNKED_FAMILIES = dict(
    FAMILIES, tabulated=lambda: rand_family(np.random.default_rng(5), 2, H_CHUNKED + 8))


def _scale(fam, z, u):
    """||a_n|| ||u_{n+1}|| + ||rhs_n|| for n = 1 .. L-1: the size of the parts
    the defect of a stored trajectory u cancels (the gate's unit)."""
    L = len(u) - 1
    A, _, B, NRM = fam.stacks(0, L, inverse=False)
    AH = A.conj().transpose(0, 2, 1)
    v = u[..., None]
    rhs = (z * v[1:L] - B[1:L] @ v[1:L] - AH[:L - 1] @ v[:L - 1])[..., 0]
    return NRM[1:L] * np.linalg.norm(u[2:], axis=1) + np.linalg.norm(rhs, axis=1)


@pytest.mark.parametrize("z", [0.75, 2.0])
@pytest.mark.parametrize("name", sorted(CHUNKED_FAMILIES))
def test_chunked_path_matches_sequential_loop_over_many_chunks(name, z):
    fam = CHUNKED_FAMILIES[name]()
    rng = np.random.default_rng(22)
    alphas = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(2)]
    trajs = propagate_block(fam, z, alphas, H_CHUNKED)
    refs = [_sequential_propagate(fam, z, a, H_CHUNKED) for a in alphas]
    cut = min((r[3] for r in refs if r[2]), default=None)
    last = H_CHUNKED if cut is None else cut
    for traj, (u, _, _, _) in zip(trajs, refs):
        u = u[:last + 1]
        assert traj.truncated_at == cut
        assert traj.overflow == bool(cut is not None and np.abs(u[last]).max() > OVERFLOW_LIMIT)
        assert traj.u.shape == u.shape
        err = np.abs(traj.u - u).max(axis=1)
        assert np.all(err <= CHUNKED_TOL * np.linalg.norm(u, axis=1)), err.max()


def _rotated_sum():
    """d = 3: the direct sum of three scalar families, a_n = R diag(sqrt(n + 1),
    1, (n + 1)^0.25) R^T and b_n = R diag(0, 0.3, -0.2) R^T, with one fixed
    rotation R, so that no entry of a_n or b_n is 0."""
    R = np.linalg.qr(np.random.default_rng(31).normal(size=(3, 3)))[0]
    return custom_family(
        3, lambda n: R @ np.diag([math.sqrt(n + 1.0), 1.0, (n + 1.0) ** 0.25]) @ R.T,
        lambda n: R @ np.diag([0.0, 0.3, -0.2]) @ R.T, "rotated direct sum")


ODD_DIM_FAMILIES = {
    "scalar-sqrt": lambda: custom_family(1, lambda n: math.sqrt(n + 1.0) * np.eye(1),
                                         lambda n: np.zeros((1, 1))),
    "rotated-sum-d3": _rotated_sum,
}


@pytest.mark.parametrize("z", [0.75, 2.0])
@pytest.mark.parametrize("name", sorted(ODD_DIM_FAMILIES))
def test_engine_at_d_1_and_3_matches_the_loop_and_chunk_by_chunk_checks(monkeypatch, name, z):
    # the product kernel contracts 2d terms, and every fixture has d = 2.
    # Measured: within 1e-13 of the row norm at d = 1, 1.8e-13 (z = 0.75)
    # and 2.1e-12 (z = 2) at d = 3.
    fam = ODD_DIM_FAMILIES[name]()
    d = fam.dim
    assert H_CHUNKED - 1 > recurrence.CHUNK_GROUP * math.isqrt(H_CHUNKED - 1)  # two groups
    rng = np.random.default_rng(24)
    alphas = [rng.normal(size=2 * d) + 1j * rng.normal(size=2 * d) for _ in range(2)]
    with monkeypatch.context() as m:  # no chunk stepped again: the products alone
        m.setattr(recurrence, "DEFECT_GATE", np.inf)
        raw = propagate_block(fam, z, alphas, H_CHUNKED)
    for traj, alpha in zip(raw, alphas, strict=True):
        u, _, overflow, cut = _sequential_propagate(fam, z, alpha, H_CHUNKED)
        assert (traj.overflow, traj.truncated_at, overflow, cut) == (False, None, False, None)
        err = np.abs(traj.u - u).max(axis=1)
        assert np.all(err <= CHUNKED_TOL * np.linalg.norm(u, axis=1)), err.max()
    groups = propagate_block(fam, z, alphas, H_CHUNKED)
    monkeypatch.setattr(recurrence, "CHUNK_GROUP", 1)
    for a, b in zip(groups, propagate_block(fam, z, alphas, H_CHUNKED), strict=True):
        np.testing.assert_array_equal(a.u, b.u, strict=True)
        np.testing.assert_array_equal(a.residuals, b.residuals, strict=True)


def _decay_window_family(start, length, beta):
    """Scalar a_n = 1, b_n = beta on [start, start + length) and 0 elsewhere."""
    return custom_family(
        1, lambda n: np.eye(1),
        lambda n: (beta if start <= n < start + length else 0.0) * np.eye(1))


def test_defect_gate_steps_a_mid_run_chunk_again(monkeypatch):
    # At z = 0.5 the scalar recurrence oscillates; on the window b_n = -2.6
    # it has the modes 2.734^n and 0.366^n.  Started so that it enters the
    # window on the decaying mode, the trajectory decays there until rounding
    # wakes the growing mode.  A chunk product, of norm up to 2.734^c, loses
    # the decaying solution to cancellation: its defect exceeds the gate by
    # orders of magnitude, so that chunk must be stepped again.
    H, start, z, beta = 2000, 1000, 0.5, -2.6
    fam = _decay_window_family(start, 100, beta)
    lam = ((z - beta) - math.sqrt((z - beta) ** 2 - 4.0)) / 2.0
    u = np.zeros(start + 1)
    u[start - 1], u[start] = 1.0, lam
    for n in range(start - 1, 0, -1):  # a = 1, b = 0 below the window
        u[n - 1] = z * u[n] - u[n + 1]
    alpha = np.array([u[0], u[1]])

    gate = recurrence.DEFECT_GATE
    gated = propagate(fam, z, alpha, H)
    monkeypatch.setattr(recurrence, "DEFECT_GATE", np.inf)
    raw = propagate(fam, z, alpha, H)
    monkeypatch.undo()

    raw_excess = raw.residuals[1:] / (gate * _scale(fam, z, raw.u))
    far = 1 + np.flatnonzero(raw_excess > 1e3)  # measured: up to 2.6e8 in the window
    assert len(far) and start <= far.min() and far.max() < start + 100
    # every stored step satisfies the gate or was stepped sequentially (the
    # 1e-9 covers rounding in evaluating the gate's unit here and there)
    assert np.all(gated.residuals[1:] <= (1 + 1e-9) * gate * _scale(fam, z, gated.u))
    ref = _sequential_propagate(fam, z, alpha, H)[0]
    assert np.abs(gated.u[:start] - ref[:start]).max() <= CHUNKED_TOL


def test_a_one_column_re_step_is_the_c_order_matrix_vector_step_bit_for_bit():
    # With complex coefficients, BLAS's matrix-vector product and numpy's own
    # loop, which a matrix read from the index-innermost store would get,
    # round differently.  Started on the decaying mode at z = 3, the chunk
    # products lose the solution and the chunk before the overflow cut is
    # stepped sequentially, from C-order copies of its matrices.
    z = 3.0
    fam = constant_family(X * (1 + 0.3j), Y + np.array([[0, 0.2j], [-0.2j, 0]]))
    w, v = np.linalg.eig(recurrence.transfer(fam, 1, z))
    traj = propagate(fam, z, v[:, np.argmin(np.abs(w))], 400)
    cut = traj.truncated_at
    assert traj.overflow and cut < 400
    a, a_inv, b = fam.a(0).copy(), fam.a_inv(0).copy(), fam.b(0).copy()
    for n in range(cut - 8, cut):
        u, prev = traj.u[n][:, None], traj.u[n - 1][:, None]
        step = a_inv @ (z * u - b @ u - adj(a) @ prev)
        np.testing.assert_array_equal(step[:, 0], traj.u[n + 1], strict=True)


@pytest.mark.parametrize("case", ["scalar-z10", "paper-constant-z0", "tabulated-z0.75"])
def test_chunked_path_cuts_early_overflow_where_the_loop_does(case):
    fam, z = {
        "scalar-z10": (custom_family(1, lambda n: np.eye(1), lambda n: np.zeros((1, 1))), 10.0),
        "paper-constant-z0": (fixtures.paper_constant(), 0.0),
        "tabulated-z0.75": (CHUNKED_FAMILIES["tabulated"](), 0.75),
    }[case]
    alphas = list(np.eye(2 * fam.dim))
    trajs = fundamental_matrix(fam, z, H_CHUNKED).columns
    assert trajs[0].truncated_at is not None and trajs[0].truncated_at > math.isqrt(H_CHUNKED - 1)
    _check_against_sequential(fam, z, alphas, trajs, H_CHUNKED)


def test_chunked_path_raises_no_runtime_warning():
    doubling = custom_family(2, lambda n: 2.0 ** n * np.eye(2),
                             lambda n: 8.0 ** n * np.diag([1.0, 0.0]))
    scalar = custom_family(1, lambda n: np.eye(1), lambda n: np.zeros((1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fam, z, horizon in [(doubling, 0.5, 300), (scalar, 10.0, H_CHUNKED),
                                (fixtures.paper_constant(), 1j, H_CHUNKED),
                                (fixtures.sqrt_growth(), 2.0, H_CHUNKED)]:
            trajs = fundamental_matrix(fam, z, horizon).columns
            assert all(np.isfinite(t.u).all() and np.isfinite(t.residuals).all() for t in trajs)
        assert any(t.overflow for t in fundamental_matrix(doubling, 0.5, 300).columns)


def _decay_window_start(start, z, beta):
    """(u_0, u_1) of the solution of _decay_window_family(start, ., beta)
    that enters the window on its decaying mode."""
    lam = ((z - beta) - math.sqrt((z - beta) ** 2 - 4.0)) / 2.0
    u = np.zeros(start + 1)
    u[start - 1], u[start] = 1.0, lam
    for n in range(start - 1, 0, -1):  # a = 1, b = 0 below the window
        u[n - 1] = z * u[n] - u[n + 1]
    return np.array([u[0], u[1]])


GROUP_CASES = {
    **{name: (FAMILIES[name], 0.75) for name in
       ["paper-constant", "paper-unbounded", "paper-blockrepeat", "paper-logweight"]},
    # re-steps a chunk in the middle of a group: at H = 2000, chunk 22 of a
    # group of 32
    "decay-window": (lambda: _decay_window_family(1000, 100, -2.6), 0.5),
    # every column overflows within the first group
    "scalar-z10": (lambda: custom_family(1, lambda n: np.eye(1), lambda n: np.zeros((1, 1))), 10.0),
}


@pytest.mark.parametrize("k", [1, 2, 8, 20, 33])
@pytest.mark.parametrize("case", sorted(GROUP_CASES))
def test_group_checks_match_chunk_by_chunk_checks_bit_for_bit(monkeypatch, case, k):
    # CHUNK_GROUP = 1 gives groups of one chunk: each chunk checked on its own
    make, z = GROUP_CASES[case]
    fam = make()
    rng = np.random.default_rng(k)
    alphas = [rng.normal(size=2 * fam.dim) + 1j * rng.normal(size=2 * fam.dim) for _ in range(k)]
    if case == "decay-window":
        alphas[0] = _decay_window_start(1000, z, -2.6)
    for horizon in [2, 3, 5, 400, 2000, H_CHUNKED]:
        groups = propagate_block(fam, z, alphas, horizon)
        with monkeypatch.context() as m:
            m.setattr(recurrence, "CHUNK_GROUP", 1)
            chunks = propagate_block(fam, z, alphas, horizon)
        for a, b in zip(groups, chunks, strict=True):
            np.testing.assert_array_equal(a.u, b.u, strict=True)
            np.testing.assert_array_equal(a.residuals, b.residuals, strict=True)
            assert (a.overflow, a.truncated_at) == (b.overflow, b.truncated_at)
        if case == "scalar-z10" and horizon >= 400:
            assert groups[0].truncated_at < horizon
        if case == "decay-window" and horizon == 2000:
            with monkeypatch.context() as m:  # the gate steps a chunk again
                m.setattr(recurrence, "DEFECT_GATE", np.inf)
                raw = propagate_block(fam, z, alphas, horizon)
            assert not np.array_equal(raw[0].u, groups[0].u)


def _mp_trajectory(mpmath, fam, z, alpha, horizon):
    """The recurrence solved for u_{n+1} in mpmath's working precision, from
    the family's float64 coefficients taken as exact."""
    d = fam.dim
    A, _, B, _ = fam.stacks(0, horizon, inverse=False)
    mat = lambda m: mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in m])
    vec = lambda v: mpmath.matrix([mpmath.mpc(complex(x)) for x in v])
    As, Bs, zz = [mat(a) for a in A], [mat(b) for b in B], mpmath.mpc(z)
    u = [vec(alpha[:d]), vec(alpha[d:])]
    for n in range(1, horizon):
        rhs = zz * u[n] - Bs[n] * u[n] - As[n - 1].H * u[n - 1]
        u.append(mpmath.lu_solve(As[n], rhs))
    return u, As, Bs


# Measured at H = 200 (c = 14) on the four fixtures at z in {0.75, 2,
# 0.5+0.5j}: the engine is within 7.0e-15 of the row norm of the 50-digit
# recurrence, and each reported residual is within 0.42 eps of the exact
# defect of the stored samples, in units of ||a_n|| ||u_{n+1}|| +
# ||z - b_n|| ||u_n|| + ||a_{n-1}|| ||u_{n-1}||.
MP_HORIZON = 200
MP_TOL = 1e-13
MP_DEFECT_TOL = 4 * np.finfo(np.float64).eps


@pytest.mark.parametrize("z", [0.75, 0.5 + 0.5j])
@pytest.mark.parametrize("name", ["paper-constant", "paper-unbounded", "paper-blockrepeat",
                                  "paper-logweight"])
def test_chunked_path_matches_a_50_digit_recurrence(name, z):
    mpmath = pytest.importorskip("mpmath")
    fam = FAMILIES[name]()
    alpha = np.array([0.6, -0.3j, 0.2 + 0.4j, 0.5])
    traj = propagate(fam, z, alpha, MP_HORIZON)
    assert traj.truncated_at is None
    with mpmath.workdps(50):
        u_mp, As, Bs = _mp_trajectory(mpmath, fam, z, alpha, MP_HORIZON)
        ref = np.array([[complex(x) for x in v] for v in u_mp])
        err = np.abs(traj.u - ref).max(axis=1)
        assert np.all(err <= MP_TOL * np.linalg.norm(ref, axis=1)), err.max()
        # the residuals are the defects of the stored samples
        stored = [mpmath.matrix([mpmath.mpc(complex(x)) for x in row]) for row in traj.u]
        for n in range(1, MP_HORIZON):
            r = As[n] * stored[n + 1] - (mpmath.mpc(z) * stored[n] - Bs[n] * stored[n]
                                          - As[n - 1].H * stored[n - 1])
            scale = (fam.norm_a(n) * np.linalg.norm(traj.u[n + 1])
                     + op_norm(z * np.eye(2) - fam.b(n)) * np.linalg.norm(traj.u[n])
                     + fam.norm_a(n - 1) * np.linalg.norm(traj.u[n - 1]))
            assert abs(traj.residuals[n] - float(mpmath.norm(r))) <= MP_DEFECT_TOL * scale


# ---- periodic limit extraction ----


def _per_index_limits(fam, N, horizon):
    """The four limit sequences of extract_periodic_limits, each term read
    through the per-index accessors."""
    getters = {
        "T": lambda n: fam.a_inv(n),
        "Q": lambda n: fam.a_inv(n) @ fam.b(n),
        "R": lambda n: fam.a_inv(n) @ adj(fam.a(n - 1)),
        "C": lambda n: fam.a(n) / fam.norm_a(n),
    }
    return {name: [sequence_limit(g, range(j if j >= (name == "R") else j + N, horizon, N),
                                  tol=EXTRACTION_TOL) for j in range(N)]
            for name, g in getters.items()}


@pytest.mark.parametrize("N", [1, 2])
def test_extracted_limits_match_per_index_getters(fam, N):
    lim = extract_periodic_limits(fam, N, H)
    ref = _per_index_limits(fam, N, H)
    for name, seqs in ref.items():
        for j, want in enumerate(seqs):
            got = getattr(lim, name)[j]
            _close(got, want.value, np.abs(want.value).max())
            _close(lim.residuals[name][j], want.residual, np.abs(want.value).max())
    assert lim.converged <= all(w.converged for seqs in ref.values() for w in seqs)


def test_inverse_rows_raise_only_for_singular_indices_read():
    a_list = [X] * 8
    a_list[3] = np.array([[1.0, 2.0], [2.0, 4.0]])
    fam = tabulated_family(a_list, [Y] * 8)
    assert np.array_equal(fam.a_inv_rows([5, 1]), np.stack([fam.a_inv(5), fam.a_inv(1)]))
    with pytest.raises(SingularError, match="a_3"):
        fam.a_inv_rows([1, 3])
    with pytest.raises(ValueError):
        fam.a_inv_rows([-1])


def test_inverse_rows_of_no_index_are_an_empty_stack():
    fam = tabulated_family([X] * 8, [Y] * 8)
    for ns in ([], np.array([], dtype=int)):
        got = fam.a_inv_rows(ns)
        assert got.shape == (0, 2, 2) and got.dtype == np.complex128


def test_extraction_reads_no_inverse_outside_its_samples():
    # the limits sample a_n^{-1} in the last decade and at n >= H/32 only,
    # so a singular a_0 stops nothing
    a_list = [X] * (H + 1)
    a_list[0] = np.array([[1.0, 2.0], [2.0, 4.0]])
    fam = tabulated_family(a_list, [Y] * (H + 1))
    lim = extract_periodic_limits(fam, 1, H)
    assert lim.converged
    _close(lim.T[0], np.linalg.inv(X), 1.0)
