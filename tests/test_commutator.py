"""Tests for weighted commutator functionals, their limits, and the packaged
summability criteria."""

import warnings

import numpy as np
import pytest

from conftest import rand_family, rand_invertible, rand_unit
from blockjacobi.coeffs import (
    LogProductWeight,
    RecipIterLogWeight,
    constant_family,
    custom_family,
    g_product,
)
from blockjacobi.commutator import (
    ANWeights,
    CustomWeights,
    IdentityWeights,
    LogWeights,
    boundary_form,
    c_limit,
    check_growth_criterion,
    check_log_weight_criterion,
    commutator_form,
    commutator_value,
    weight_conditions,
    weight_scale,
)
from blockjacobi.fixtures import (
    X_OP,
    Y_OP,
    indeterminate_doubling,
    paper_blockrepeat,
    paper_logweight,
)
from blockjacobi.opcore import (
    DomainError,
    NotConvergentError,
    adj,
    neg_part,
    op_norm,
    sym,
)
from blockjacobi.recurrence import propagate

ZERO2 = np.zeros((2, 2))


def test_strategy_alpha_values():
    fam = paper_logweight()
    assert IdentityWeights().name == "identity"
    assert np.abs(IdentityWeights().alpha(fam, 7) - np.eye(2)).max() == 0.0
    assert ANWeights().name == "an"
    assert np.abs(ANWeights().alpha(fam, 7) - fam.a(7)).max() == 0.0

    logw = LogWeights(1)
    assert np.abs(logw.alpha(fam, 5) - np.eye(2)).max() == 0.0  # below n_start
    n = 50
    want = n * g_product(1, float(n)) * adj(fam.a_inv(n))
    assert op_norm(logw.alpha(fam, n) - want) < 1e-12 * op_norm(want)

    custom = CustomWeights(lambda n: (n + 1.0) * np.eye(2), name="linear")
    assert custom.name == "linear"
    assert np.abs(custom.alpha(fam, 3) - 4.0 * np.eye(2)).max() == 0.0


def test_log_weights_validate_start_index():
    with pytest.raises(DomainError):
        LogWeights(1, n_start=1)
    with pytest.raises(DomainError):
        LogWeights(2, n_start=2)
    LogWeights(2, n_start=20)  # fine


def test_weight_scale_matches_norm():
    rng = np.random.default_rng(31)
    fam = rand_family(rng, 2, 6)
    strat = ANWeights()
    for n in range(5):
        want = op_norm(strat.alpha(fam, n) @ adj(fam.a(n)))
        assert abs(weight_scale(fam, strat, n) - want) < 1e-12 * want


def test_form_rejects_bad_index():
    fam = constant_family(X_OP, ZERO2)
    with pytest.raises(ValueError):
        commutator_form(fam, IdentityWeights(), 0, 0.0)
    with pytest.raises(ValueError):
        boundary_form(fam, IdentityWeights(), 0, 0.0)
    with pytest.raises(ValueError):
        commutator_value(fam, IdentityWeights(), 1, 0.0)
    with pytest.raises(ValueError):
        commutator_value(fam, IdentityWeights(), 1, 0.0,
                         alpha=np.ones(4), representation="sideways")


def test_interior_and_boundary_representations_agree():
    # Both form matrices represent the same functional along a generalised
    # eigenvector, one paired with (u_n, u_{n+1}), one with (u_{n-1}, u_n).
    rng = np.random.default_rng(9)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        fam = rand_family(rng, d, n + 4)
        lam = float(rng.uniform(-2, 2))
        weights = [rand_invertible(rng, d) for _ in range(n + 4)]
        strat = CustomWeights(lambda k, w=weights: w[k])
        traj = propagate(fam, lam, rand_unit(rng, 2 * d), n + 3)
        vi = commutator_value(fam, strat, n, lam, traj=traj,
                              representation="interior")
        vb = commutator_value(fam, strat, n, lam, traj=traj,
                              representation="boundary")
        assert abs(vi - vb) < 1e-9 * max(1.0, abs(vi))


def test_negative_increment_bound():
    # The decrease of S_n, normalized by ||u_n||^2 + ||u_{n+1}||^2, is
    # controlled by the negative part of the weight increment plus the drift
    # and commutator defects of the weight sequence.
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(120):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        fam = rand_family(rng, d, n + 5)
        lam = float(rng.uniform(-2, 2))
        weights = [rand_invertible(rng, d) for _ in range(n + 5)]
        strat = CustomWeights(lambda k, w=weights: w[k])
        traj = propagate(fam, lam, rand_unit(rng, 2 * d), n + 3)
        s_now = commutator_value(fam, strat, n, lam, traj=traj)
        s_next = commutator_value(fam, strat, n + 1, lam, traj=traj)
        denom = np.linalg.norm(traj.u[n]) ** 2 + np.linalg.norm(traj.u[n + 1]) ** 2
        lhs = max(0.0, -(s_next - s_now)) / denom

        cross = fam.a_inv(n - 1) @ weights[n - 1] @ fam.a(n)
        increment = weights[n + 1] @ adj(fam.a(n + 1)) - adj(fam.a(n)) @ cross
        rhs = (op_norm(neg_part(sym(increment)))
               + abs(lam) * op_norm(cross - weights[n])
               + op_norm(weights[n] @ fam.b(n + 1) - fam.b(n) @ cross))
        assert lhs <= rhs * (1.0 + 1e-6)
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    assert worst <= 1.0 + 1e-6


# ---- the limit form ----


def test_c_limit_commuting_constant_family():
    fam = constant_family(X_OP, ZERO2)
    rep = c_limit(fam, ANWeights(), 0.0, 2000)
    x2 = X_OP @ X_OP
    want = np.block([[x2, ZERO2], [ZERO2, x2]]) / op_norm(x2)
    assert rep.converged
    assert rep.definiteness.value == "strictly_positive"
    assert op_norm(rep.C_lambda - want) < 1e-12


def test_c_limit_log_weight_family():
    # Slow convergence: the limit is reached only to a few times 1e-5 at this
    # horizon, which is below the strict convergence residual but well within
    # the settle standard, so no complaint is raised.
    rep = c_limit(paper_logweight(), LogWeights(1), 0.7, 20000)
    assert not rep.converged
    assert rep.residual < 1e-4
    assert rep.definiteness.value == "strictly_positive"
    assert op_norm(rep.C_lambda - np.eye(4)) < 1e-3


def test_c_limit_rejects_oscillating_forms():
    alt = custom_family(1, lambda n: np.eye(1), lambda n: (-1.0) ** n * np.eye(1))
    with pytest.raises(NotConvergentError):
        c_limit(alt, IdentityWeights(), 0.0, 2000)


# ---- weight conditions ----


def test_weight_conditions_commuting_constant():
    # a_n = X, b_n = 0 with alpha_n = a_n: every defect vanishes identically
    # and the inverse weights sum like n / ||X||^2.
    rep = weight_conditions(constant_family(X_OP, ZERO2), ANWeights(), 1000)
    assert rep.all_hold
    assert rep.neg_part_sum.verdict == "converges"
    assert rep.drift_sum.verdict == "converges"
    assert rep.commutator_sum.verdict == "converges"
    assert rep.inverse_weight_sum.verdict == "diverges"


def test_weight_conditions_blockrepeat():
    rep = weight_conditions(paper_blockrepeat(), ANWeights(), 4000)
    assert rep.all_hold
    assert rep.strategy == "an"
    assert set(rep.traces) == {"neg_part", "drift", "commutator", "inverse_weight"}


def test_weight_conditions_log_weight_family():
    rep = weight_conditions(paper_logweight(), LogWeights(1), 10000)
    assert rep.all_hold


# ---- packaged criteria ----


def test_growth_criterion_accepts_blockrepeat():
    rep = check_growth_criterion(paper_blockrepeat(), 4000)
    assert rep.passed
    names = [it.name for it in rep.items]
    assert names == ["inverse_vanishes", "inverse_b_vanishes", "neg_part_summable",
                     "commutator_summable", "norm_square_sum_diverges",
                     "direction_converges"]
    assert "partial_sum" in rep.item("neg_part_summable").evidence
    assert "partial_sum" in rep.item("norm_square_sum_diverges").evidence
    with pytest.raises(KeyError):
        rep.item("no_such_check")


def test_growth_criterion_rejects_bounded_weights():
    from blockjacobi.fixtures import paper_constant
    rep = check_growth_criterion(paper_constant(), 4000)
    assert not rep.passed
    assert not rep.item("inverse_vanishes").ok


def test_growth_criterion_terms_do_not_overflow():
    # ||a_n|| = 2^n: products of two a_n overflow from n of about 510, while
    # the directions a_n/||a_n|| and the ratios ||a_{n+1}||/||a_n|| = 2 do not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_growth_criterion(indeterminate_doubling(), 1000)
    for it in rep.items:
        for key, v in it.evidence.items():
            if isinstance(v, float):
                assert np.isfinite(v), (it.name, key, v)
    for name in ("neg_part_summable", "commutator_summable"):
        ev = rep.item(name).evidence
        assert (ev["verdict"], ev["partial_sum"]) == ("converges", 0.0)
        assert rep.item(name).ok
    assert np.isfinite(rep.traces["neg_part"]).all()
    assert np.isfinite(rep.traces["commutator"]).all()


def test_nested_log_domain_errors_name_their_argument():
    for make, msg in ((lambda: LogProductWeight(2, 2), "offset 2 too small for 2 nested logs"),
                      (lambda: RecipIterLogWeight(1, 1), "offset 1 too small for 1 nested logs"),
                      (lambda: LogWeights(2, n_start=2), "n_start 2 too small for 2 nested logs"),
                      (lambda: check_log_weight_criterion(paper_logweight(), 3, n_start=10,
                                                          horizon=500),
                       "n_start 10 too small for 3 nested logs")):
        with pytest.raises(DomainError, match=f"^{msg}$"):
            make()


def test_growth_criterion_rejects_unbounded_b_over_a():
    fam = custom_family(2, lambda n: (n + 1.0) * np.eye(2),
                        lambda n: (n + 1.0) * Y_OP)
    rep = check_growth_criterion(fam, 4000)
    assert not rep.passed
    assert not rep.item("inverse_b_vanishes").ok


def test_log_weight_criterion_accepts_log_weight_family():
    rep = check_log_weight_criterion(paper_logweight(), 1, horizon=10000)
    assert rep.passed
    names = [it.name for it in rep.items]
    assert names == ["inverse_vanishes", "envelope_slack_summable", "b_bounded",
                     "twisted_commutator_summable", "weighted_inverse_summable"]
    assert "partial_sum" in rep.item("envelope_slack_summable").evidence


def test_log_weight_criterion_rejects_fast_growth():
    # Doubling weights overshoot the iterated-log envelope immediately.
    fam = custom_family(2, lambda n: 2.0 ** n * np.eye(2), lambda n: ZERO2)
    rep = check_log_weight_criterion(fam, 1, horizon=600)
    assert not rep.passed
    assert not rep.item("envelope_slack_summable").ok


def test_log_weight_criterion_rejects_unbounded_b():
    w = LogProductWeight(1, 10)
    fam = custom_family(2, lambda n: w(n) * X_OP,
                        lambda n: np.sqrt(n + 1.0) * Y_OP)
    rep = check_log_weight_criterion(fam, 1, horizon=4000)
    assert not rep.passed
    assert not rep.item("b_bounded").ok


def test_log_weight_criterion_validates_start_index():
    with pytest.raises(DomainError):
        check_log_weight_criterion(paper_logweight(), 2, n_start=2, horizon=500)
