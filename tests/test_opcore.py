"""Operator primitives: symmetrization, signed parts, definiteness, inversion,
the 2x2 singular-value kernel and the stacked product."""

import numpy as np
import pytest

from blockjacobi.opcore import (
    Definiteness,
    NotHermitianError,
    SingularError,
    adj,
    as_operator,
    classify_definiteness,
    condition_estimate,
    conditioning,
    herm_defect,
    hermitian_extremes,
    invert,
    neg_part,
    op_norm,
    quad_form,
    require_hermitian,
    singular_extremes,
    stack_mul,
    sym,
)

from blockjacobi.fixtures import paper_constant
from blockjacobi.turan import extract_periodic_limits, lambda_scan, limit_form
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
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 2, 2\)$"):
        as_operator(np.zeros((2, 2, 2)))


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


def test_quad_form_matches_symmetrized_inner_product():
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        m = rand_operator(rng, d)
        v = rand_unit(rng, d)
        q = quad_form(m, v)
        assert isinstance(q, float)
        assert q == pytest.approx(float(np.vdot(v, sym(m) @ v).real), abs=1e-12)


def test_one_matrix_and_a_stack_agree():
    rng = np.random.default_rng(9)
    mats = [rand_operator(rng, 3) for _ in range(4)] + [rand_hermitian(rng, 3) for _ in range(4)]
    mats += [np.outer([1.0, 2.0, 0.5], [1.0, -1.0, 3.0]), np.zeros((3, 3))]  # singular
    stack = np.stack(mats)
    for f in (adj, sym, op_norm, herm_defect, condition_estimate):
        one = [f(m) for m in stack]
        np.testing.assert_array_equal(f(stack), np.array(one))
    for f in (op_norm, herm_defect, condition_estimate):
        assert all(type(f(m)) is float for m in stack)

    forms = np.stack([np.diag([1.0, 2.0]), np.diag([-1.0, -2.0]), np.diag([1.0, -1.0]),
                      np.diag([1.0, 1e-12])] + [rand_hermitian(rng, 2) for _ in range(8)])
    one = [classify_definiteness(f) for f in forms]
    assert classify_definiteness(forms) == one
    assert set(one[:4]) == set(Definiteness)
    assert all(isinstance(c, Definiteness) for c in one)

    bad = np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]], [[0.0, 5.0], [0.0, 0.0]]])
    with pytest.raises(NotHermitianError) as from_stack:
        require_hermitian(bad)
    with pytest.raises(NotHermitianError) as from_one:
        require_hermitian(bad[1])
    assert str(from_stack.value) == str(from_one.value)
    with pytest.raises(ValueError, match="non-finite"):
        classify_definiteness(np.stack([np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]]))


def _svd_calls(monkeypatch) -> list:
    """Spy on np.linalg.svd: the stacks it is called on, each as (n, d, d)."""
    calls, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(np.array(a).reshape(-1, *np.shape(a)[-2:]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def test_classifying_exactly_hermitian_forms_runs_no_svd(monkeypatch):
    # sym() makes the limit forms Hermitian entry for entry, so neither their
    # defect nor their norm is needed; the forms are 4x4, past the 2x2 closed
    # form, so a singular value would cost a LAPACK call
    lim = extract_periodic_limits(paper_constant(), 1, 2000)
    forms = limit_form(lim, np.linspace(-5.0, 10.0, 201))
    assert forms.shape == (201, 4, 4) and np.array_equal(forms, adj(forms))
    calls = _svd_calls(monkeypatch)
    classify_definiteness(forms)
    assert len(lambda_scan(lim, (-5.0, 10.0)).intervals) == 1
    assert calls == []


def test_require_hermitian_takes_the_norm_of_the_offending_matrix_only(monkeypatch):
    rng = np.random.default_rng(12)
    x = np.stack([rand_hermitian(rng, 4) for _ in range(9)])
    x[2] += 1e-14 * rand_operator(rng, 4)  # a defect within the allowance
    x[6] += 1e-3 * rand_operator(rng, 4)  # the one matrix that offends
    calls = _svd_calls(monkeypatch)
    with pytest.raises(NotHermitianError):
        require_hermitian(x)
    seen = np.concatenate(calls)
    defect = np.array([np.array_equal(m, -adj(m)) for m in seen])
    # the defects x - x^* of the two matrices not Hermitian entry for entry,
    # and otherwise the norm of x[6] alone
    assert sorted(k for m in seen[defect] for k in (2, 6)
                  if np.array_equal(m, x[k] - adj(x[k]))) == [2, 6]
    assert len(seen[defect]) == 2 and (~defect).any()
    assert all(np.array_equal(m, x[6]) for m in seen[~defect])


# ---- the 2x2 singular-value kernel ----

EPS = np.finfo(np.float64).eps


def _kernel_cases():
    """Seeded 2x2 matrices: random ones at scales 1 and 1e+-150, 1e+-200, and
    near-unitary, rank-one, zero, diagonal and anti-Hermitian ones."""
    rng = np.random.default_rng(21)
    cases = [s * rand_operator(rng, 2) for s in (1.0, 1e150, 1e-150, 1e200, 1e-200)
             for _ in range(30)]
    for _ in range(20):
        q = np.linalg.qr(rand_operator(rng, 2))[0]
        cases += [q, q + 1e-9 * rand_operator(rng, 2), 1e-200 * q]
        u, v = rand_operator(rng, 2)
        cases += [np.outer(u, v), 1e200 * np.outer(u, v)]
        cases.append(np.diag(rand_operator(rng, 2)[0]))
        h = rand_operator(rng, 2)
        cases.append(h - adj(h))
    cases += [np.zeros((2, 2)), np.diag([3.0, 0.0]), np.diag([0.0, -2.0j]),
              np.array([[1.0, 2.0], [2.0, 4.0]])]
    return np.stack(cases).astype(np.complex128)


def test_singular_extremes_agree_with_mpmath_at_stated_tolerances():
    # sigma_max within 4 eps relative, sigma_min within 4 eps sigma_max absolute
    mpmath = pytest.importorskip("mpmath")
    cases = _kernel_cases()
    s_max, s_min = singular_extremes(cases)
    with mpmath.workdps(50):
        for m, hi, lo in zip(cases, s_max.tolist(), s_min.tolist()):
            exact = mpmath.svd_c(mpmath.matrix([[mpmath.mpc(complex(x)) for x in row]
                                                for row in m]), compute_uv=False)
            top, bottom = max(exact), min(exact)
            assert abs(mpmath.mpf(hi) - top) <= 4 * EPS * top, m
            assert abs(mpmath.mpf(lo) - bottom) <= 4 * EPS * top, m


def test_singular_extremes_of_one_matrix_equal_its_stack_row_bit_for_bit():
    cases = _kernel_cases()
    s_max, s_min = singular_extremes(cases)
    grid = singular_extremes(cases[:280].reshape(20, 14, 2, 2))
    np.testing.assert_array_equal(grid[0], s_max[:280].reshape(20, 14))
    np.testing.assert_array_equal(grid[1], s_min[:280].reshape(20, 14))
    cond = condition_estimate(cases)
    for k, m in enumerate(cases):
        one = singular_extremes(m)
        assert one[0].shape == one[1].shape == ()
        assert (one[0], one[1]) == (s_max[k], s_min[k])
        assert op_norm(m) == s_max[k] and type(op_norm(m)) is float
        assert condition_estimate(m) == cond[k]
    assert singular_extremes(np.zeros((0, 2, 2)))[0].shape == (0,)


def test_rank_one_matrices_have_condition_inf_and_do_not_invert():
    for m in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.outer([1.0, 2.0j], [3.0, -1.0]),
              np.outer([0.5, -3.0], [1e-170j, 2e-170])):
        assert singular_extremes(m)[1] == 0.0
        assert condition_estimate(m) == np.inf
        with pytest.raises(SingularError):
            invert(m)
    assert singular_extremes(np.zeros((2, 2))) == (0.0, 0.0)


def test_non_finite_stacks_keep_lapack_outcomes():
    # inf in a stack gives its norm nan, NaN makes LAPACK raise; conditioning
    # refuses both before any decomposition
    for d in (2, 3):
        inf, nan = np.stack([np.eye(d), np.eye(d)]), np.stack([np.eye(d), np.eye(d)])
        inf[1, 0, 0], nan[1, 0, 0] = np.inf, np.nan
        norms = op_norm(inf.astype(np.complex128))
        assert norms[0] == 1.0 and np.isnan(norms[1])
        with pytest.raises(np.linalg.LinAlgError):
            op_norm(nan)
        for bad in (inf, nan):
            with pytest.raises(ValueError, match="non-finite"):
                conditioning(bad)


EPS_F64 = np.finfo(np.float64).eps


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", ["square", 1, 3])
@pytest.mark.parametrize("n", [0, 1, 7, 1000])
@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
@pytest.mark.parametrize("kind", [float, complex])
def test_stack_mul_matches_matmul_within_the_dot_product_bound(d, k, n, scale, kind):
    # |fl(AB) - AB| <= gamma_d |A||B| entrywise for either way of forming the
    # product, so the two lie within twice that of each other
    rng = np.random.default_rng([d, n, int(np.log10(scale)) + 200])
    cols = d if k == "square" else k

    def draw(shape):
        x = rng.uniform(-1.0, 1.0, shape)
        if kind is complex:
            x = x + 1j * rng.uniform(-1.0, 1.0, shape)
        return scale * x

    a, b = draw((n, d, d)), draw((n, d, cols))
    out = stack_mul(a, b)
    assert out.shape == (n, d, cols) and out.dtype == (a @ b).dtype
    bound = 4 * d * EPS_F64 * (np.abs(a) @ np.abs(b))
    assert np.all(np.abs(out - a @ b) <= bound)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stack_mul_is_exact_on_integer_valued_stacks(d):
    rng = np.random.default_rng(d)
    a = rng.integers(-1000, 1000, (500, d, d)) + 1j * rng.integers(-1000, 1000, (500, d, d))
    b = rng.integers(-1000, 1000, (500, d, 3)).astype(float)
    np.testing.assert_array_equal(stack_mul(a, b), a @ b)
    np.testing.assert_array_equal(stack_mul(a.real, b), a.real @ b)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stack_mul_of_one_matrix_equals_its_stack_row_bit_for_bit(d):
    rng = np.random.default_rng(10 + d)
    a = rng.normal(size=(257, d, d)) + 1j * rng.normal(size=(257, d, d))
    b = rng.normal(size=(257, d, d)) + 1j * rng.normal(size=(257, d, d))
    out = stack_mul(a, b)
    for i in range(len(a)):
        np.testing.assert_array_equal(stack_mul(a[i:i + 1], b[i:i + 1])[0], out[i])
    # rows of a strided view (every third row, a transposed operand) too
    np.testing.assert_array_equal(stack_mul(a[::3], adj(b)[::3]), stack_mul(a, adj(b))[::3])


def _index_innermost(x: np.ndarray) -> np.ndarray:
    """x's values in a stack whose buffer holds the index innermost, as a
    family's stores do."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0)


def _same_bits(x, y) -> bool:
    """Equal shapes, dtypes and bytes, so NaN and -0.0 count too."""
    x, y = np.asarray(x), np.asarray(y)
    return (x.shape, x.dtype) == (y.shape, y.dtype) and \
        np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_the_layout_of_a_stack_never_shows_in_its_values(d, k):
    rng = np.random.default_rng([d, k])
    a = rng.normal(size=(300, d, d)) + 1j * rng.normal(size=(300, d, d))
    b = rng.normal(size=(300, d, k)) + 1j * rng.normal(size=(300, d, k))
    h = a + adj(a)
    ap, bp, hp = _index_innermost(a), _index_innermost(b), _index_innermost(h)
    assert ap.strides[0] == ap.itemsize and not ap.flags.c_contiguous
    out = stack_mul(a, b)
    for x, y in ((ap, bp), (ap, b), (a, bp)):
        assert _same_bits(stack_mul(x, y), out)
    for f in (singular_extremes, conditioning):
        assert all(_same_bits(p, c) for p, c in zip(f(ap), f(a)))
    assert _same_bits(np.linalg.inv(ap), np.linalg.inv(a))
    assert _same_bits(np.linalg.eigvalsh(hp), np.linalg.eigvalsh(h))
    # a non-finite entry sends singular_extremes to LAPACK: an inf gives its
    # values, a NaN its error, on either layout
    c = a.copy()
    c[7, 0, d - 1] = np.inf
    assert all(_same_bits(p, q) for p, q in
               zip(singular_extremes(_index_innermost(c)), singular_extremes(c)))
    c[7, 0, d - 1] = np.nan
    for x in (c, _index_innermost(c)):
        with pytest.raises(np.linalg.LinAlgError):
            singular_extremes(x)
