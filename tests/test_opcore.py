"""Operator primitives: symmetrization, signed parts, definiteness, inversion
and the 2x2 block builder."""

import numpy as np
import pytest

from blockjacobi.opcore import (
    Definiteness,
    NotHermitianError,
    SingularError,
    abs_val,
    adj,
    as_operator,
    block2x2,
    classify_definiteness,
    condition_estimate,
    herm_defect,
    hermitian_extremes,
    invert,
    neg_part,
    op_norm,
    quad_form,
    require_hermitian,
    sym,
)

from conftest import rand_hermitian, rand_operator, rand_unit

X = np.array([[1.0, 1.0], [1.0, 2.0]])
Y = np.array([[2.0, 1.0], [1.0, 1.0]])


def test_as_operator_validates():
    m = as_operator([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    with pytest.raises(ValueError):
        as_operator([[1, 2, 3]])
    with pytest.raises(ValueError):
        as_operator([[np.nan, 0], [0, 1]])


def test_sym_is_hermitian_half_sum():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        m = rand_operator(rng, d)
        s = sym(m)
        assert np.abs(s - adj(s)).max() < 1e-12
        assert np.abs(s - (m + adj(m)) / 2).max() < 1e-14
        assert herm_defect(s) < 1e-12


def test_sym_is_additive():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        a, b = rand_operator(rng, d), rand_operator(rng, d)
        assert np.abs(sym(a + b) - (sym(a) + sym(b))).max() < 1e-12


def test_sym_respects_congruence():
    # conjugating by any operator commutes with symmetrization
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        x, y = rand_operator(rng, d), rand_operator(rng, d)
        lhs = adj(y) @ sym(x) @ y
        rhs = sym(adj(y) @ x @ y)
        assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())


def test_sym_contracts_the_norm():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        x = rand_operator(rng, d)
        assert op_norm(sym(x)) <= op_norm(x) + 1e-12


def test_neg_part_known_value():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalues +-1
    want = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.abs(neg_part(m) - want).max() < 1e-12
    assert np.abs(neg_part(np.eye(2))).max() == 0.0


def test_neg_part_compensates():
    rng = np.random.default_rng(4)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        h = rand_hermitian(rng, d)
        np_ = neg_part(h)
        assert np.linalg.eigvalsh(np_).min() >= -1e-10
        assert np.linalg.eigvalsh(h + np_).min() >= -1e-10


def test_abs_val_known_value():
    m = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert np.abs(abs_val(m) - np.diag([0.0, 2.0])).max() < 1e-12


def test_abs_val_squares_to_mstar_m():
    rng = np.random.default_rng(5)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        m = rand_operator(rng, d)
        v = abs_val(m)
        err = op_norm(v @ v - adj(m) @ m)
        assert err <= 1e-9 * (1.0 + op_norm(m) ** 2)


def test_op_norm_known_value():
    # largest singular value of [[1,1],[1,2]] is its top eigenvalue
    assert abs(op_norm(X) - (3 + np.sqrt(5)) / 2) < 1e-12


def test_invert_known_value():
    assert np.abs(invert(X) - np.array([[2.0, -1.0], [-1.0, 1.0]])).max() < 1e-12


def test_invert_random_roundtrip():
    rng = np.random.default_rng(6)
    for _ in range(60):
        d = int(rng.integers(1, 5))
        m = rand_operator(rng, d)
        cond = condition_estimate(m)
        if cond > 1e8:
            continue
        assert np.abs(m @ invert(m) - np.eye(d)).max() < 1e-9 * cond


def test_invert_rejects_singular():
    with pytest.raises(SingularError):
        invert(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_require_hermitian():
    assert np.abs(require_hermitian(Y) - Y).max() == 0.0
    with pytest.raises(NotHermitianError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_classify_definiteness():
    assert classify_definiteness(np.diag([1.0, 2.0])) is Definiteness.STRICTLY_POSITIVE
    assert classify_definiteness(np.diag([-1.0, -2.0])) is Definiteness.STRICTLY_NEGATIVE
    assert classify_definiteness(np.diag([1.0, -1.0])) is Definiteness.INDEFINITE
    assert classify_definiteness(np.diag([1.0, 1e-12]), eps=1e-9) is Definiteness.DEGENERATE


def test_hermitian_extremes():
    lo, hi = hermitian_extremes(np.diag([3.0, -1.0, 0.5]))
    assert lo == pytest.approx(-1.0)
    assert hi == pytest.approx(3.0)


def test_block_helpers_roundtrip():
    rng = np.random.default_rng(7)
    blocks = [rand_operator(rng, 3) for _ in range(4)]
    m = block2x2(*blocks)
    back = m[:3, :3], m[:3, 3:], m[3:, :3], m[3:, 3:]
    for b, c in zip(blocks, back):
        assert np.abs(b - c).max() == 0.0
    # scalars broadcast against the matrix blocks
    m = block2x2(np.eye(2), 0.0, 0.0, 2.0)
    assert np.abs(m - np.diag([1.0, 1.0, 2.0, 2.0])).max() == 0.0
    with pytest.raises(ValueError):
        block2x2(1.0, 0.0, 0.0, 2.0)


def test_quad_form_matches_symmetrized_inner_product():
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        m = rand_operator(rng, d)
        v = rand_unit(rng, d)
        q = quad_form(m, v)
        assert isinstance(q, float)
        assert q == pytest.approx(float(np.vdot(v, sym(m) @ v).real), abs=1e-12)
