"""Tests for window forms, periodic limit data, scans, and probes."""

import warnings

import numpy as np
import pytest

from conftest import rand_family, rand_invertible, rand_hermitian, rand_unit
from blockjacobi.coeffs import (
    ConstantWeight,
    PowerWeight,
    constant_family,
    custom_family,
    scaled_periodic_family,
    tabulated_family,
)
from blockjacobi.fixtures import (
    X_OP,
    Y_OP,
    indeterminate_doubling,
    paper_constant,
    paper_unbounded,
    sqrt_growth,
)
from blockjacobi.opcore import (
    HypothesisViolatedError,
    NotConvergentError,
    NotHermitianError,
    adj,
    invert,
    op_norm,
    quad_form,
    sym,
)
from blockjacobi.recurrence import (
    basis_trajectories,
    propagate,
    solution_space_dimension,
    transfer,
    transfer_inv,
)
from blockjacobi.turan import (
    COMPLETE_INDETERMINATE,
    PROBE_UNDECIDED,
    SELF_ADJOINT_REGIME,
    asymptotic_band,
    christoffel_limit,
    definiteness_scan,
    exact_asymptotics,
    extract_periodic_limits,
    indeterminacy_probe,
    lambda_scan,
    limit_block,
    limit_form,
    make_periodic_limits,
    principal_minors,
    turan_convergence,
    turan_form,
    turan_traces,
    turan_value,
)

XN = op_norm(X_OP)  # (3 + sqrt(5)) / 2
XINV = invert(X_OP)

# Exact definiteness window of the running constant example.
LAM_LO = (-3.0 + np.sqrt(13.0)) / 2.0
LAM_HI = (9.0 - np.sqrt(37.0)) / 2.0


def _free_scalar_family():
    """d = 1, a = 1, b = 0: the form has a closed expression."""
    return constant_family(np.eye(1), np.zeros((1, 1)))


def test_free_scalar_form_oracle():
    fam = _free_scalar_family()
    for lam in (0.0, 0.7, -1.3):
        want = np.array([[1.0, -lam / 2.0], [-lam / 2.0, 1.0]])
        for n in (1, 2, 5):
            got = turan_form(fam, 1, n, lam)
            assert np.abs(got - want).max() < 1e-14


def test_form_rejects_bad_window():
    fam = _free_scalar_family()
    with pytest.raises(ValueError):
        turan_form(fam, 0, 1, 0.0)
    with pytest.raises(ValueError):
        turan_form(fam, 1, 0, 0.0)
    with pytest.raises(ValueError):
        turan_traces(fam, 0, 0.0, [np.array([1.0, 0.0])], 10)


def test_form_value_and_traces_agree():
    # S_n from the quadratic form of the normalized matrix, from turan_value,
    # and from the batched trace must coincide.
    rng = np.random.default_rng(21)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        N = int(rng.integers(1, 3))
        n = int(rng.integers(1, 5))
        fam = rand_family(rng, d, n + N + 3)
        z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1) * (rng.integers(0, 2)))
        alpha = rand_unit(rng, 2 * d)
        traj = propagate(fam, z, alpha, n + 2)
        v = np.concatenate([traj.u[n - 1], traj.u[n]])
        via_form = fam.norm_a(n + N - 1) * quad_form(turan_form(fam, N, n, z), v)
        via_value = turan_value(fam, N, n, z, alpha)
        trace = turan_traces(fam, N, z, [alpha], n + N + 2)[0]
        assert trace.n_start == 1
        scale = max(1.0, abs(via_value))
        assert abs(via_form - via_value) < 1e-9 * scale
        assert abs(trace.values[n - 1] - via_value) < 1e-9 * scale


def test_traces_need_no_inverse_of_a0():
    # S_n reads a_n^{-1} for n >= 1 only, like propagate and turan_value, so
    # a singular a_0 must not stop the batched trace.
    a0 = np.array([[1.0, 2.0], [2.0, 4.0]])
    fam = tabulated_family([a0] + [X_OP] * 30, [Y_OP] * 31, "singular a_0")
    alphas = [np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0),
              np.array([0.3, -0.2j, 0.5, 1.0])]
    traces = turan_traces(fam, 1, 0.75, alphas, 20)
    for tr, alpha in zip(traces, alphas):
        for n in (1, 2, 7, 15):
            want = turan_value(fam, 1, n, 0.75, alpha)
            assert abs(tr.values[n - 1] - want) < 1e-9 * max(1.0, abs(want))


def test_periodic_families_have_constant_normalized_increments():
    # For N-periodic coefficients S_n is n-independent.  The raw values lose
    # all digits to cancellation once ||u_n|| grows, so the increments are
    # measured against the Lemma-normalized scale ||a_{n+N-1}|| (||u_{n-1}||^2
    # + ||u_n||^2).
    cases = [
        (paper_constant(), 1, 1.0),
        (paper_constant(), 1, 7.0),
        (tabulated_family([X_OP, X_OP + np.eye(2)] * 40, [Y_OP, np.eye(2)] * 40,
                          "period two"), 2, 0.5),
    ]
    for fam, N, lam in cases:
        alpha = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        trace = turan_traces(fam, N, lam, [alpha], 60)[0]
        traj = propagate(fam, lam, alpha, 62)
        worst = 0.0
        for n in range(1, 58):
            scale = fam.norm_a(n + N - 1) * (
                np.linalg.norm(traj.u[n - 1]) ** 2 + np.linalg.norm(traj.u[n]) ** 2)
            worst = max(worst, abs(trace.values[n] - trace.values[n - 1]) / scale)
        assert worst <= 1e-10


def test_exchange_identity_shifts_weight_index():
    # diag(a_n, a_n^*) E B_n(lam) = (B_n(lam)^-1)^* diag(a_{n-1}, a_{n-1}^*) E,
    # both equal to an explicit upper-triangular block matrix.
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        fam = rand_family(rng, d, n + 2)
        lam = float(rng.uniform(-3, 3))

        def weight(m):
            zero = np.zeros((d, d))
            return np.block([[zero, -fam.a(m)], [adj(fam.a(m)), zero]])

        lhs = weight(n) @ transfer(fam, n, lam)
        rhs = adj(transfer_inv(fam, n, lam)) @ weight(n - 1)
        explicit = np.block([
            [adj(fam.a(n - 1)), -(lam * np.eye(d) - fam.b(n))],
            [np.zeros((d, d)), adj(fam.a(n))],
        ])
        scale = max(1.0, op_norm(explicit))
        assert op_norm(lhs - rhs) < 1e-9 * scale
        assert op_norm(lhs - explicit) < 1e-9 * scale


# ---- periodic limit data ----


def test_make_periodic_limits_norm_ratios_and_reduction():
    free = make_periodic_limits(1, [np.zeros((2, 2))], [np.zeros((2, 2))],
                                [np.eye(2)], [X_OP / XN])
    assert abs(free.r[0] - 1.0) < 1e-12
    # T = Q = 0, R = Id with Hermitian C: the form is block diagonal with
    # equal halves, so the reduction is available.
    assert free.D is not None
    assert np.abs(free.D[0] - X_OP / XN).max() < 1e-12

    dense = make_periodic_limits(1, [XINV], [XINV @ Y_OP], [np.eye(2)], [X_OP / XN])
    assert dense.D is None


def test_extracted_constant_limits_are_exact():
    lim = extract_periodic_limits(paper_constant(), 1, 2000)
    assert lim.converged
    assert op_norm(lim.T[0] - XINV) < 1e-10
    assert op_norm(lim.Q[0] - XINV @ Y_OP) < 1e-10
    assert op_norm(lim.R[0] - np.eye(2)) < 1e-10
    assert op_norm(lim.C[0] - X_OP / XN) < 1e-10
    assert abs(lim.r[0] - 1.0) < 1e-10
    assert lim.D is None


def test_extracted_unbounded_limits():
    # a_n = (n+1) X, b_n = q (n+1) Y with q = 1/2: T -> 0, Q -> q X^-1 Y,
    # R -> Id, C -> X / ||X||.
    lim = extract_periodic_limits(paper_unbounded(), 1, 20000)
    assert lim.converged
    assert op_norm(lim.T[0]) < 1e-8
    assert op_norm(lim.Q[0] - 0.5 * XINV @ Y_OP) < 1e-8
    assert op_norm(lim.R[0] - np.eye(2)) < 1e-8
    assert op_norm(lim.C[0] - X_OP / XN) < 1e-8
    assert abs(lim.r[0] - 1.0) < 1e-8


def test_limit_block_structure():
    lim = make_periodic_limits(1, [XINV], [XINV @ Y_OP], [np.eye(2)], [X_OP / XN])
    lam = 0.8
    blk = limit_block(lim, lam, 0)
    d = 2
    assert np.abs(blk[:d, :d]).max() == 0.0
    assert np.abs(blk[:d, d:] - np.eye(2)).max() < 1e-14
    assert np.abs(blk[d:, :d] + lim.R[0]).max() < 1e-14
    assert np.abs(blk[d:, d:] - (lam * lim.T[0] - lim.Q[0])).max() < 1e-14


def _constant_display(lam):
    """||a|| times the limit form of the constant example, written out."""
    return np.array([
        [1.0, 1.0, 1.0 - lam / 2.0, 0.5],
        [1.0, 2.0, 0.5, (1.0 - lam) / 2.0],
        [1.0 - lam / 2.0, 0.5, 1.0, 1.0],
        [0.5, (1.0 - lam) / 2.0, 1.0, 2.0],
    ])


def _constant_minors(lam):
    return [
        1.0,
        1.0,
        -lam ** 2 / 2.0 + 1.5 * lam - 0.25,
        lam ** 4 / 16.0 - 3.0 * lam ** 3 / 8.0 - 17.0 * lam ** 2 / 16.0
        + 21.0 * lam / 8.0 - 11.0 / 16.0,
    ]


def test_limit_form_matches_display_matrix():
    lim = extract_periodic_limits(paper_constant(), 1, 2000)
    rng = np.random.default_rng(5)
    for lam in rng.uniform(-4, 4, 10):
        got = XN * limit_form(lim, float(lam))
        assert op_norm(got - _constant_display(float(lam))) < 1e-12


def test_principal_minors_constant_polynomials():
    lim = extract_periodic_limits(paper_constant(), 1, 2000)
    rng = np.random.default_rng(6)
    for lam in rng.uniform(-4, 4, 12):
        got = principal_minors(XN * limit_form(lim, float(lam)))
        want = _constant_minors(float(lam))
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-9
    at_one = principal_minors(XN * limit_form(lim, 1.0))
    assert np.abs(np.array(at_one) - [1.0, 1.0, 0.75, 0.5625]).max() < 1e-9


def test_principal_minors_requires_hermitian():
    with pytest.raises(NotHermitianError):
        principal_minors(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _unbounded_limits(q):
    return make_periodic_limits(1, [np.zeros((2, 2))], [q * XINV @ Y_OP],
                                [np.eye(2)], [X_OP / XN])


def test_unbounded_display_matrix_and_minors():
    # ||X|| F(q) = [[X, qY/2], [qY/2, X]]; minors 1, 1, 1 - 5q^2/4,
    # q^4/16 - 7q^2/4 + 1, all positive exactly for |q| < 3 - sqrt(5).
    for q in (-0.9, -0.3, 0.0, 0.5, 0.76):
        got = XN * limit_form(_unbounded_limits(q), 0.0)
        want = np.block([[X_OP, q * Y_OP / 2.0], [q * Y_OP / 2.0, X_OP]])
        assert op_norm(got - want) < 1e-12
        minors = principal_minors(XN * limit_form(_unbounded_limits(q), 0.0))
        want_minors = [1.0, 1.0, 1.0 - 1.25 * q ** 2,
                       q ** 4 / 16.0 - 1.75 * q ** 2 + 1.0]
        for g, w in zip(minors, want_minors):
            assert abs(g - w) < 1e-9
    edge = 3.0 - np.sqrt(5.0)
    inside = principal_minors(XN * limit_form(_unbounded_limits(edge - 1e-3), 0.0))
    outside = principal_minors(XN * limit_form(_unbounded_limits(edge + 1e-3), 0.0))
    assert min(inside) > 0.0
    assert min(outside) < 0.0


def _structured_limits(rng, N, d, bounded):
    """Limit data of the shape produced by actual coefficient families.

    Every list is built from a common invertible A_j: T_j is a scalar
    multiple of A_j^-1, Q_j = A_j^-1 H_j with H_j Hermitian, R_j carries the
    consecutive adjoint factor, and C_j is A_j normalized.  The norm ratios
    r_j then have the closed form ||A_j|| / (rho_j ||A_{j-1}||).
    """
    a_ops = [rand_invertible(rng, d) for _ in range(N)]
    if bounded:
        t = rng.uniform(0.2, 2.0, N)
        rho = np.array([t[j] / t[j - 1] for j in range(N)])
    else:
        t = np.zeros(N)
        rho = rng.uniform(0.3, 3.0, N)
    T = [t[j] * invert(a_ops[j]) for j in range(N)]
    Q = [invert(a_ops[j]) @ rand_hermitian(rng, d) for j in range(N)]
    R = [rho[j] * invert(a_ops[j]) @ adj(a_ops[j - 1]) for j in range(N)]
    C = [a_ops[j] / op_norm(a_ops[j]) for j in range(N)]
    lim = make_periodic_limits(N, T, Q, R, C)
    r_closed = [op_norm(a_ops[j]) / (rho[j] * op_norm(a_ops[j - 1]))
                for j in range(N)]
    return lim, r_closed


def test_window_start_conjugation_covariance():
    # Conjugating the start-s form by the inverse limit block at index s
    # reproduces the start-(s+1) form up to the norm ratio r_s, which is what
    # makes the definiteness region independent of the window start.
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(60):
        N = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        lim, r_closed = _structured_limits(rng, N, d, bounded=bool(trial % 2))
        for j in range(N):
            assert abs(lim.r[j] - r_closed[j]) < 1e-10 * r_closed[j]
        lam = float(rng.uniform(-3, 3))
        for s in range(N):
            binv = invert(limit_block(lim, lam, s))
            lhs = adj(binv) @ limit_form(lim, lam, start=s) @ binv
            rhs = lim.r[s] * limit_form(lim, lam, start=(s + 1) % N)
            scale = max(1.0, op_norm(rhs))
            worst = max(worst, op_norm(lhs - rhs) / scale)
    assert worst < 1e-10


# ---- scans ----


def test_definiteness_scan_locates_boundaries():
    lset = definiteness_scan(lambda lam: np.diag([lam - 1.0, 3.0 - lam]),
                             0.0, 4.0, grid=81)
    assert len(lset.intervals) == 1
    iv = lset.intervals[0]
    assert abs(iv.lo - 1.0) < 1e-6 and abs(iv.hi - 3.0) < 1e-6
    assert iv.sign.value == "strictly_positive"
    assert lset.contains(2.0) and not lset.contains(0.5)

    flat = definiteness_scan(lambda lam: np.array([[0.0, 1.0], [1.0, 0.0]]),
                             -1.0, 1.0, grid=11)
    assert flat.empty and not flat.contains(0.0)

    with pytest.raises(ValueError):
        definiteness_scan(lambda lam: np.eye(2), 0.0, 1.0, grid=1)


def test_lambda_scan_constant_example():
    lim = extract_periodic_limits(paper_constant(), 1, 2000)
    lset = lambda_scan(lim, (-5.0, 10.0), grid=201)
    assert len(lset.intervals) == 1
    iv = lset.intervals[0]
    assert iv.sign.value == "strictly_positive"
    assert abs(iv.lo - LAM_LO) < 1e-7
    assert abs(iv.hi - LAM_HI) < 1e-7
    assert lset.contains(1.0) and not lset.contains(0.0)
    # Endpoints are grid-independent once located by bisection.
    fine = lambda_scan(lim, (-5.0, 10.0), grid=402)
    assert abs(fine.intervals[0].lo - iv.lo) < 2e-7
    assert abs(fine.intervals[0].hi - iv.hi) < 2e-7
    d = lset.to_dict()
    assert d["intervals"][0]["sign"] == "strictly_positive"


# ---- trajectory diagnostics ----


def _seed_alphas(rng, count, dim):
    return [rand_unit(rng, 2 * dim) for _ in range(count)]


def test_asymptotic_band_inside_window():
    rng = np.random.default_rng(11)
    rep = asymptotic_band(paper_constant(), 1, 1.0, _seed_alphas(rng, 5, 2), 2000)
    assert rep.c1 > 0.0
    assert np.isfinite(rep.c2)
    assert rep.ratio < 10.0
    for stats in rep.per_alpha:
        assert not stats.overflow
        assert 0.0 < stats.c1 <= stats.c2


def test_asymptotic_band_outside_window():
    # Far outside the definiteness region the trajectories grow until the
    # overflow guard cuts the batch; the band collapses.  Only the column that
    # actually tripped the guard is flagged, the rest are merely shortened.
    rng = np.random.default_rng(12)
    rep = asymptotic_band(paper_constant(), 1, 10.0, _seed_alphas(rng, 3, 2), 600)
    assert any(stats.overflow for stats in rep.per_alpha)
    assert all(stats.c2 > 1e100 for stats in rep.per_alpha)
    assert rep.ratio > 1e100


def test_turan_convergence_constant_example():
    rng = np.random.default_rng(13)
    rep = turan_convergence(paper_constant(), 1, 1.0, _seed_alphas(rng, 5, 2), 2000)
    assert rep.rate_bound_ok
    for stats in rep.per_alpha:
        assert stats.converged
        assert abs(stats.g) > 0.1
        assert stats.residual < 1e-6 * abs(stats.g)
    assert min(abs(g) for g in rep.g_values) > 0.1


def test_turan_convergence_rejects_oscillating_data():
    alt = custom_family(1, lambda n: np.eye(1), lambda n: (-1.0) ** n * np.eye(1))
    with pytest.raises(NotConvergentError):
        turan_convergence(alt, 1, 0.0, [np.array([1.0, 0.0])], 2000)


# ---- indeterminacy probe ----


def test_probe_flags_doubling_family():
    rep = indeterminacy_probe(indeterminate_doubling(), [1j, 0.0, 1 + 1j],
                              horizon=300)
    assert rep.verdict == COMPLETE_INDETERMINATE
    assert rep.carleman.verdict == "converges"
    assert not rep.lambda_set.empty
    for entry in rep.per_z:
        assert entry["ok"]
        assert entry["solution_dim"] == 2
    d = rep.to_dict()
    assert d["verdict"] == COMPLETE_INDETERMINATE


def test_probe_constant_family_is_self_adjoint_regime():
    rep = indeterminacy_probe(paper_constant(), [1j], horizon=800)
    assert rep.verdict == SELF_ADJOINT_REGIME
    assert rep.carleman.verdict == "diverges"
    assert rep.lambda_set is None


def test_probe_undecided_when_standards_fail():
    # Carleman converges but the trajectories are not square-summable in the
    # way the complete standard demands.
    wild = custom_family(2, lambda n: 2.0 ** n * X_OP, lambda n: 4.0 ** n * Y_OP)
    rep = indeterminacy_probe(wild, [1j], horizon=300)
    assert rep.verdict == PROBE_UNDECIDED
    assert rep.carleman.verdict == "converges"


def test_probe_survives_formal_starts_that_overflow_at_different_steps():
    # a_n = 2^n Id, b_n = 8^n diag(1, 0) at z = 0.5: the first formal start
    # overflows at n = 23, the second stays bounded up to n = 300.  Both are
    # propagated as one batch, cut together, so their samples stack.
    fam = custom_family(2, lambda n: 2.0 ** n * np.eye(2),
                        lambda n: 8.0 ** n * np.diag([1.0, 0.0]))
    assert solution_space_dimension(fam, 0.5, 300) == 2
    rep = indeterminacy_probe(fam, [0.5], horizon=300)
    assert rep.per_z[0]["solution_dim"] == 2
    assert not rep.per_z[0]["ok"]
    assert rep.verdict == PROBE_UNDECIDED


def test_probe_reads_basis_columns_cut_short_by_another_as_undecided():
    # at z = 0.5 columns 0 and 2 overflow at n = 23; columns 1 and 3 stop
    # there with them and have no tail to read
    fam = custom_family(2, lambda n: 2.0 ** n * np.eye(2),
                        lambda n: 8.0 ** n * np.diag([1.0, 0.0]))
    trajs = basis_trajectories(fam, 0.5, 300)
    assert [t.overflow for t in trajs] == [True, False, True, False]
    assert {t.truncated_at for t in trajs} == {23}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = indeterminacy_probe(fam, [0.5], horizon=300)
    assert rep.per_z[0]["basis_verdicts"] == [
        "not_square_summable", "undecided", "not_square_summable", "undecided"]
    assert not rep.per_z[0]["ok"]


def test_extraction_keeps_raw_values_where_aitken_overflows():
    # Q_n = a_n^{-1} b_n = 4^n diag(1, 0) grows past the square of any
    # extrapolation; the entry stays raw, finite and unconverged
    fam = custom_family(2, lambda n: 2.0 ** n * np.eye(2),
                        lambda n: 8.0 ** n * np.diag([1.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lim = extract_periodic_limits(fam, 1, 300)
    assert not lim.converged
    assert all(np.isfinite(m).all() for m in lim.T + lim.Q + lim.R + lim.C)
    assert lim.Q[0][0, 0] == pytest.approx(4.0 ** 299, rel=1e-12)


# ---- exact asymptotics and the Christoffel ratio ----


def test_exact_asymptotics_sqrt_growth():
    fam = sqrt_growth()
    lim = extract_periodic_limits(fam, 1, 20000)
    assert lim.converged
    assert lim.D is not None
    assert op_norm(lim.D[0] - X_OP / XN) < 1e-8
    rng = np.random.default_rng(17)
    alphas = _seed_alphas(rng, 3, 2)
    rep = exact_asymptotics(fam, lim, 0.0, alphas, 20000)
    assert op_norm(rep.C - adj(rep.C)) < 1e-12
    assert op_norm(rep.C - X_OP / XN) < 1e-8
    for entry in rep.per_alpha:
        assert entry["gap"] < 1e-3 * abs(entry["g"])


def test_exact_asymptotics_checks_hypotheses():
    fam = sqrt_growth()
    alphas = [np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)]

    def free(R, C):
        zero = np.zeros((2, 2))
        return make_periodic_limits(1, [zero], [zero], [R], [C])

    with pytest.raises(HypothesisViolatedError):
        exact_asymptotics(fam, free(2.0 * np.eye(2), X_OP / XN), 0.0, alphas, 500)
    with pytest.raises(HypothesisViolatedError):
        nonherm = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        exact_asymptotics(fam, free(np.eye(2), nonherm), 0.0, alphas, 500)
    with pytest.raises(HypothesisViolatedError):
        zero = np.zeros((2, 2))
        even = make_periodic_limits(2, [zero] * 2, [zero] * 2, [np.eye(2)] * 2,
                                    [X_OP / XN] * 2)
        exact_asymptotics(fam, even, 0.0, alphas, 500)


def test_exact_asymptotics_weights_by_d_for_n_3_mod_4():
    # a_n = (n+1)^2 X, b_n = 0: T = Q = 0, R = Id, and for N = 3 the window
    # forms are -diag(sym C, sym C), so the weighted trace must use D = -sym C
    # (weighting by +sym C gives the wrong sign and a gap of 2|g|).
    fam = scaled_periodic_family(1, PowerWeight(2.0), ConstantWeight(0.0),
                                 [X_OP], [np.zeros((2, 2))])
    lim = extract_periodic_limits(fam, 3, 2000)
    assert lim.D is not None
    alphas = [np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
              np.array([0.3, -0.2, 0.5, 1.0], dtype=complex)]
    rep = exact_asymptotics(fam, lim, 0.0, alphas, 2000)
    assert op_norm(rep.C + X_OP / XN) < 1e-8
    for entry in rep.per_alpha:
        assert entry["gap"] < 1e-2 * abs(entry["g"])


def test_christoffel_ratio_sqrt_growth():
    fam = sqrt_growth()
    lim = extract_periodic_limits(fam, 1, 20000)
    rng = np.random.default_rng(18)
    alpha = rand_unit(rng, 4)
    rep = exact_asymptotics(fam, lim, 0.0, [alpha], 20000)
    g = rep.per_alpha[0]["g"]
    traj = propagate(fam, 0.0, alpha, 20000)
    chris = christoffel_limit(fam, rep.C, traj)
    assert abs(chris.limit_estimate - g / 2.0) < 0.02 * abs(g / 2.0)
    assert chris.residual < 0.02 * abs(g / 2.0)


def test_christoffel_ratio_needs_divergent_weights():
    fam = indeterminate_doubling()
    traj = propagate(fam, 0.0, np.array([1.0, 0.0, 0.0, 0.0], dtype=complex), 500)
    with pytest.raises(HypothesisViolatedError):
        christoffel_limit(fam, X_OP / XN, traj)


# ---- increment bound along slowly varying coefficients ----


def test_increment_bound_controls_s_n():
    # |S_{n+1} - S_n| normalized by ||u_{n-1}||^2 + ||u_n||^2 stays below the
    # window-norm times the one-step variation budget of the coefficients.
    rng = np.random.default_rng(11)
    from blockjacobi.recurrence import window_product

    worst = 0.0
    for _ in range(120):
        d = int(rng.integers(1, 4))
        N = int(rng.integers(1, 3))
        n = int(rng.integers(1, 5))
        fam = rand_family(rng, d, n + N + 5)
        if rng.integers(0, 2):
            z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        else:
            z = complex(rng.uniform(-2, 2), 0.0)
        alpha = rand_unit(rng, 2 * d)
        traj = propagate(fam, z, alpha, n + 2)
        s_now = turan_value(fam, N, n, z, alpha)
        s_next = turan_value(fam, N, n + 1, z, alpha)
        denom = np.linalg.norm(traj.u[n - 1]) ** 2 + np.linalg.norm(traj.u[n]) ** 2
        lhs = abs(s_next - s_now) / denom

        eye = np.eye(d)
        a_new, a_old = fam.a(n + N), fam.a(n)
        budget = (
            op_norm(fam.a_inv(n + N) @ adj(fam.a(n + N - 1)) - fam.a_inv(n) @ adj(fam.a(n - 1)))
            + abs(z) * op_norm(fam.a_inv(n + N) - fam.a_inv(n))
            + abs(z - np.conj(z)) * op_norm(fam.a_inv(n + N))
            + op_norm(fam.a_inv(n + N) @ fam.b(n + N) - fam.a_inv(n) @ fam.b(n))
        )
        rhs = op_norm(window_product(fam, z, n, N)) * fam.norm_a(n + N) * budget
        assert lhs <= rhs * (1.0 + 1e-6)
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    assert worst <= 1.0 + 1e-6
