"""Three-term recurrence propagation: transfer matrices, batched stacks,
trajectory invariants and square-summability diagnostics."""

import csv

import numpy as np
import pytest

from blockjacobi import fixtures, recurrence
from blockjacobi.coeffs import constant_family, custom_family, tabulated_family
from blockjacobi.fixtures import X_OP, Y_OP, indeterminate_doubling, paper_constant
from blockjacobi.opcore import adj
from blockjacobi.recurrence import (
    NOT_SQUARE_SUMMABLE,
    OVERFLOW_LIMIT,
    SQUARE_SUMMABLE,
    UNDECIDED,
    Trajectory,
    coefficient_stacks,
    formal_eigenvector_start,
    fundamental_matrix,
    l2_tail_diagnostic,
    norm_stack,
    propagate,
    propagate_block,
    trajectory_table,
    transfer,
    transfer_inv,
    transfer_stack,
    weighted_norm_trace,
    window_product,
)
from blockjacobi.table import write_csv

from conftest import formal_rank, rand_family, rand_unit


def scalar_family(a=1.0, b=0.0):
    return custom_family(1, lambda n: a * np.eye(1), lambda n: b * np.eye(1),
                         "scalar family")


def test_transfer_known_block():
    # constant entries a = [[1,1],[1,2]], b = [[2,1],[1,1]], z = 0:
    # a^{-1} = [[2,-1],[-1,1]] gives -a^{-1}a* = -Id and -a^{-1}b = [[-3,-1],[1,0]]
    fam = paper_constant()
    m = transfer(fam, 1, 0.0)
    want = np.zeros((4, 4))
    want[:2, 2:] = np.eye(2)
    want[2:, :2] = -np.eye(2)
    want[2:, 2:] = np.array([[-3.0, -1.0], [1.0, 0.0]])
    assert np.abs(m - want).max() < 1e-12


def test_transfer_starts_at_one():
    fam = paper_constant()
    with pytest.raises(ValueError):
        transfer(fam, 0, 0.0)
    with pytest.raises(ValueError):
        transfer_inv(fam, 0, 0.0)


def test_transfer_inverse_constant_example():
    fam = paper_constant()
    prod = transfer(fam, 1, 0.0) @ transfer_inv(fam, 1, 0.0)
    assert np.abs(prod - np.eye(4)).max() < 1e-12


def test_transfer_inverse_random_families():
    rng = np.random.default_rng(10)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        fam = rand_family(rng, d, 6)
        n = int(rng.integers(1, 5))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        prod = transfer(fam, n, z) @ transfer_inv(fam, n, z)
        assert np.abs(prod - np.eye(2 * d)).max() < 1e-9


def test_window_product_empty_and_composed():
    rng = np.random.default_rng(11)
    fam = rand_family(rng, 2, 12)
    z = 0.3 + 0.1j
    assert np.abs(window_product(fam, z, 3, 0) - np.eye(4)).max() == 0.0
    with pytest.raises(ValueError, match=r"^window length must be >= 0$"):
        window_product(fam, z, 1, -1)
    whole = window_product(fam, z, 1, 7)
    split = window_product(fam, z, 4, 4) @ window_product(fam, z, 1, 3)
    assert np.abs(whole - split).max() < 1e-9 * max(1.0, np.abs(whole).max())


def test_transfer_stack_matches_loop():
    rng = np.random.default_rng(12)
    fam = rand_family(rng, 3, 10)
    z = 1.5 - 0.4j
    st = transfer_stack(fam, z, 1, 8)
    for k in range(8):
        assert np.abs(st[k] - transfer(fam, 1 + k, z)).max() < 1e-13
    with pytest.raises(ValueError):
        transfer_stack(fam, z, 0, 3)


ONE_KERNEL_FAMILIES = {
    **fixtures.FIXTURES,
    "sqrt-growth": fixtures.sqrt_growth,
    "complex-custom": lambda: custom_family(
        2, lambda n: (n + 1.0) ** 0.5 * (X_OP + 0.3j * Y_OP),
        lambda n: np.cos(n) * Y_OP + 0.2 * np.array([[0, 1j], [-1j, 0]]), "complex custom"),
}


@pytest.mark.parametrize("z", [0.75, 0.5 + 0.5j])
@pytest.mark.parametrize("name", sorted(ONE_KERNEL_FAMILIES))
def test_transfer_stack_and_window_product_are_the_engine_kernel_bit_for_bit(
        monkeypatch, name, z):
    # One builder of lower halves: transfer_stack holds the very lower halves
    # that _chunk_products starts from, and window_product is the whole
    # product of one chunk.  A product by `@` rounds differently on every
    # family here but paper-constant, so a second formula shows.
    fam = ONE_KERNEL_FAMILIES[name]()
    d = fam.dim
    built, build = [], recurrence._lower_halves

    def spy(fam, z, start, out):
        build(fam, z, start, out)
        built.append((start, out.copy()))

    with monkeypatch.context() as m:
        m.setattr(recurrence, "_lower_halves", spy)
        recurrence._chunk_products(fam, z, 3, 3 + 40, 7)
    assert [start for start, _ in built] == [3]
    lower = transfer_stack(fam, z, 3, 40)[:, d:]
    assert lower.shape == built[0][1].shape
    assert np.ascontiguousarray(lower).tobytes() == built[0][1].tobytes()
    for n, N in [(1, 1), (3, 7), (10, 40)]:
        want = recurrence._chunk_products(fam, z, n, n + N, N)[0, N:].reshape(2 * d, 2 * d)
        assert window_product(fam, z, n, N).tobytes() == want.tobytes()


def test_coefficient_stacks_periodic_fast_path_agrees():
    fam = paper_constant()  # scaled periodic under the hood
    A, AINV, B, NRM = coefficient_stacks(fam, 2, 5)
    for k in range(5):
        assert np.abs(A[k] - fam.a(2 + k)).max() == 0.0
        assert np.abs(AINV[k] - fam.a_inv(2 + k)).max() == 0.0
        assert np.abs(B[k] - fam.b(2 + k)).max() == 0.0
        assert NRM[k] == pytest.approx(fam.norm_a(2 + k))
    assert np.allclose(norm_stack(fam, 2, 5), NRM)


def test_formal_start_constant_example():
    fam = paper_constant()
    alpha = formal_eigenvector_start(fam, 0.0, np.array([1.0, 0.0]))
    assert np.allclose(alpha, [1.0, 0.0, -3.0, 1.0])


def test_formal_start_is_the_c_order_matrix_vector_product_bit_for_bit():
    # a matrix read from the index-innermost store is strided, and numpy's own
    # loop for it rounds complex products differently from BLAS's gemv
    rng = np.random.default_rng(14)
    fam = rand_family(rng, 2, 3)
    for _ in range(20):
        z, u0 = complex(rng.uniform(-2, 2), rng.uniform(-1, 1)), rand_unit(rng, 2)
        want = fam.a_inv(0).copy() @ (z * u0 - fam.b(0).copy() @ u0)
        np.testing.assert_array_equal(formal_eigenvector_start(fam, z, u0)[2:], want, strict=True)


def test_formal_start_satisfies_index_zero_relation():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        fam = rand_family(rng, d, 3)
        z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        u0 = rand_unit(rng, d)
        alpha = formal_eigenvector_start(fam, z, u0)
        # b_0 u_0 + a_0 u_1 = z u_0 (the boundary row with a_{-1} = 0)
        res = fam.b(0) @ alpha[:d] + fam.a(0) @ alpha[d:] - z * alpha[:d]
        assert np.linalg.norm(res) < 1e-10


def test_propagate_scalar_constant_solution():
    # a=1, b=0, z=2: u_{n+1} = 2 u_n - u_{n-1}, so (1,1) stays 1 forever
    traj = propagate(scalar_family(), 2.0, np.array([1.0, 1.0]), 50)
    assert np.allclose(traj.u, 1.0)
    assert traj.residuals.max(initial=0.0) < 1e-12


def test_propagate_scalar_period_four():
    # a=1, b=0, z=0: u_{n+1} = -u_{n-1}
    traj = propagate(scalar_family(), 0.0, np.array([0.0, 1.0]), 9)
    assert np.allclose(traj.u.ravel().real, [0, 1, 0, -1, 0, 1, 0, -1, 0, 1])


def test_propagate_is_linear_in_the_initial_data():
    rng = np.random.default_rng(14)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        fam = rand_family(rng, d, 12)
        z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        a1 = rand_unit(rng, 2 * d)
        a2 = rand_unit(rng, 2 * d)
        t1 = propagate(fam, z, a1, 10)
        t2 = propagate(fam, z, a2, 10)
        t12 = propagate(fam, z, a1 + a2, 10)
        scale = max(1.0, np.abs(t12.u).max())
        assert np.abs(t12.u - (t1.u + t2.u)).max() < 1e-9 * scale


def test_propagate_residuals_track_the_recurrence():
    rng = np.random.default_rng(15)
    fam = rand_family(rng, 2, 40)
    z = 0.7 + 0.2j
    traj = propagate(fam, z, rand_unit(rng, 4), 38)
    for n in range(1, traj.last_index):
        defect = (adj(fam.a(n - 1)) @ traj.u[n - 1] + fam.b(n) @ traj.u[n]
                  + fam.a(n) @ traj.u[n + 1] - z * traj.u[n])
        local = max(np.linalg.norm(traj.u[k]) for k in (n - 1, n, n + 1))
        assert np.linalg.norm(defect) <= 1e-8 * max(1.0, local)
        assert traj.residuals[n] <= 1e-8 * max(1.0, local)


@pytest.mark.parametrize("layout", ["stack", "engine", "column-major", "one step"])
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_defect_norms_equal_numpy_norm_bit_for_bit(d, k, layout):
    # rows scaled over 1e-250 .. 1e250, so squares underflow and overflow,
    # and some entries inf or nan in either part
    rng = np.random.default_rng(10 * d + k)
    shape = (400, d, k)
    scale = 10.0 ** rng.uniform(-250, 250, (400, 1, 1))
    x = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale
    x.flat[rng.choice(x.size, 12, replace=False)] = [
        np.inf, -np.inf, np.nan, complex(0, np.inf), complex(np.nan, 1), complex(1, -np.inf),
        complex(np.inf, np.nan), 1e200, 1e-200, complex(1e200, 1e200), 1e-320, 0.0]
    if layout == "engine":  # the engine's samples, index innermost, read as (n, d, k)
        x = np.ascontiguousarray(x.transpose(2, 1, 0)).transpose(2, 1, 0)
    if layout == "column-major":  # one (n, d) block per column, read as (n, d, k)
        x = np.ascontiguousarray(x.transpose(2, 0, 1)).transpose(1, 2, 0)
    with np.errstate(all="ignore"):
        if layout == "one step":  # the sequential step's (d, k), row by row
            got = np.array([recurrence._norms(row) for row in x])
            want = np.array([np.linalg.norm(row, axis=0) for row in x])
        else:
            got, want = recurrence._norms(x), np.linalg.norm(x, axis=1)
    assert got.shape == want.shape == (400, k)
    assert np.isnan(got).any() and np.isinf(got).any() and (got == 0).any()
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_array_equal(got[~np.isnan(got)].view(np.uint64),
                                  want[~np.isnan(want)].view(np.uint64))


def test_transfer_advances_propagated_pairs():
    rng = np.random.default_rng(16)
    fam = rand_family(rng, 2, 12)
    z = -0.9
    traj = propagate(fam, z, rand_unit(rng, 4), 10)
    for n in range(1, 9):
        v = np.concatenate([traj.u[n - 1], traj.u[n]])
        w = transfer(fam, n, z) @ v
        want = np.concatenate([traj.u[n], traj.u[n + 1]])
        assert np.abs(w - want).max() < 1e-9 * max(1.0, np.abs(want).max())


def test_propagate_rejects_bad_input():
    fam = scalar_family()
    with pytest.raises(ValueError):
        propagate(fam, 0.0, np.zeros(2), 10)
    with pytest.raises(ValueError):
        propagate(fam, 0.0, np.array([1.0, 0.0]), 0)


def test_propagate_block_matches_single_runs():
    rng = np.random.default_rng(17)
    fam = rand_family(rng, 2, 30)
    z = 0.4 - 0.6j
    alphas = [rand_unit(rng, 4) for _ in range(5)]
    batch = propagate_block(fam, z, alphas, 28)
    for alpha, traj in zip(alphas, batch):
        single = propagate(fam, z, alpha, 28)
        scale = max(1.0, np.abs(single.u).max())
        assert np.abs(traj.u - single.u).max() < 1e-12 * scale
        # residuals are defect norms at rounding level; they only need to
        # agree to the same relative noise scale
        assert np.abs(traj.residuals - single.residuals).max() < 1e-12 * scale
        assert traj.overflow == single.overflow


def test_overflow_truncates_growing_trajectories():
    # z far outside the spectrum of the free scalar family: growth ~ 9.9^n
    traj = propagate(scalar_family(), 10.0, np.array([1.0, 1.0]), 300)
    assert traj.overflow
    assert traj.truncated_at is not None
    assert traj.last_index == traj.truncated_at < 300
    assert traj.norms()[-1] > OVERFLOW_LIMIT
    assert l2_tail_diagnostic(traj).verdict == NOT_SQUARE_SUMMABLE


def test_propagate_block_truncates_the_batch_together():
    grow = np.array([1.0, 1.0])
    small = np.array([1.0, 0.09901951358])  # close to the decaying direction
    batch = propagate_block(scalar_family(), 10.0, [grow, small], 300)
    assert batch[0].overflow
    assert batch[0].truncated_at == batch[1].truncated_at
    assert batch[0].last_index == batch[1].last_index


def test_weighted_norm_trace_values():
    rng = np.random.default_rng(18)
    fam = rand_family(rng, 2, 12)
    traj = propagate(fam, 0.5, rand_unit(rng, 4), 10)
    s = weighted_norm_trace(fam, traj.u)
    assert len(s) == traj.last_index - 1
    for k in range(len(s)):
        n = k + 1
        want = fam.norm_a(n) * (np.linalg.norm(traj.u[n - 1]) ** 2
                                + np.linalg.norm(traj.u[n]) ** 2)
        assert s[k] == pytest.approx(want, rel=1e-12)


def test_l2_diagnostic_decaying_and_flat_tails():
    fam = indeterminate_doubling()
    for traj in fundamental_matrix(fam, 1j, 400).columns:
        assert l2_tail_diagnostic(traj).verdict == SQUARE_SUMMABLE
    # constant self-adjoint entries at a non-real z: solutions grow
    for traj in fundamental_matrix(paper_constant(), 1j, 800).columns:
        assert l2_tail_diagnostic(traj).verdict == NOT_SQUARE_SUMMABLE


def test_l2_diagnostic_at_window_ratios_one_half_and_nine_tenths():
    def traj(norms):
        u = np.zeros((len(norms), 2))
        u[:, 0] = norms
        return Trajectory(0.0, u[0], u, np.zeros(len(norms) - 1))

    # squared norms 1 (16 times), then previous tenth 4 + 4, last tenth 4 + 0
    rep = l2_tail_diagnostic(traj([1.0] * 16 + [2.0, 2.0, 2.0, 0.0]))
    assert rep.verdict == UNDECIDED
    assert rep.evidence == {"count": 20, "window_ratio": 0.5, "tail_estimate": 4.0}
    small = 2.0 ** -15
    rep = l2_tail_diagnostic(traj([1.0] * 16 + [small] * 3 + [0.0]))
    assert rep.verdict == SQUARE_SUMMABLE
    assert rep.evidence == {"count": 20, "window_ratio": 0.5, "tail_estimate": 2.0 ** -30}
    # previous tenth 9 + 1, last tenth 9 + 0
    rep = l2_tail_diagnostic(traj([1.0] * 16 + [3.0, 1.0, 3.0, 0.0]))
    assert rep.verdict == NOT_SQUARE_SUMMABLE
    assert rep.evidence == {"count": 20, "window_ratio": 0.9}
    assert rep.partial_sum == 35.0


def test_l2_diagnostic_zero_tenths_and_the_band_between_the_ratios():
    def traj(norms):
        u = np.zeros((len(norms), 2))
        u[:, 0] = norms
        return Trajectory(0.0, u[0], u, np.zeros(len(norms) - 1))

    # last tenth 0 + 0 after a previous tenth 1 + 1
    rep = l2_tail_diagnostic(traj([1.0] * 18 + [0.0, 0.0]))
    assert rep.verdict == SQUARE_SUMMABLE
    assert rep.evidence == {"count": 20, "window_ratio": 0.0}
    # previous tenth 0 + 0, last tenth 1 + 1
    rep = l2_tail_diagnostic(traj([1.0] * 16 + [0.0, 0.0, 1.0, 1.0]))
    assert rep.verdict == UNDECIDED
    assert rep.evidence == {"count": 20, "window_ratio": None}
    # previous tenth 4 + 4, last tenth 4 + 1: ratio 0.625
    rep = l2_tail_diagnostic(traj([1.0] * 16 + [2.0, 2.0, 2.0, 1.0]))
    assert rep.verdict == UNDECIDED
    assert rep.evidence == {"count": 20, "window_ratio": 0.625}


def _flat_then_zero(count):
    """A trajectory of `count` samples, norms 1 up to a last one of 0: at 20
    samples the two tenths are [1, 1] and [1, 0], ratio 0.5."""
    u = np.zeros((count, 2))
    u[:-1, 0] = 1.0
    return Trajectory(0.0, u[0], u, np.zeros(count - 1))


def test_l2_diagnostic_is_undecided_below_20_samples():
    # at 19 samples each tenth is one entry: last 0 after 1 would read as
    # square-summable, from two samples
    rep = l2_tail_diagnostic(_flat_then_zero(19))
    assert rep.verdict == UNDECIDED
    assert rep.evidence == {"count": 19}
    rep = l2_tail_diagnostic(_flat_then_zero(20))
    assert rep.verdict == UNDECIDED
    assert rep.evidence == {"count": 20, "window_ratio": 0.5, "tail_estimate": 1.0}


def test_l2_diagnostic_reports_overflow_below_20_samples():
    # u_n grows like (3e30)^(n-1): u_6 passes the guard, and its square is finite
    traj = propagate(scalar_family(), 3e30, np.array([1.0, 1.0]), 10)
    assert traj.overflow and traj.last_index == 6
    assert l2_tail_diagnostic(traj).verdict == NOT_SQUARE_SUMMABLE


@pytest.mark.parametrize("alphas", [[], np.zeros((0, 4))], ids=["list", "array"])
def test_an_empty_batch_is_refused(alphas):
    with pytest.raises(ValueError, match="empty batch"):
        propagate_block(paper_constant(), 0.5, alphas, 50)


def test_fundamental_matrix_columns_seed_the_canonical_vectors():
    fam = paper_constant()
    basis = fundamental_matrix(fam, 0.0, 5).columns
    assert len(basis) == 4
    for k, traj in enumerate(basis):
        want = np.zeros(4)
        want[k] = 1.0
        assert np.allclose(traj.alpha, want)


def test_solution_space_dimension_full_for_doubling():
    assert formal_rank(indeterminate_doubling(), 0.0, 300) == 2


def test_trajectory_csv_roundtrip(tmp_path):
    fam = paper_constant()
    traj = propagate(fam, 1.0, np.array([1.0, 0.0, 0.0, 1.0]), 20)
    path = tmp_path / "traj.csv"
    write_csv(trajectory_table(traj, fam), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,re_u0,im_u0,re_u1,im_u1,norm,s_n,residual"
    assert len(lines) == traj.u.shape[0] + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0


def _rows_oracle(traj, fam):
    """The trace rows as Python lists, built the way the CSV export built
    them with csv.writer before traces became arrays."""
    d = traj.u.shape[1]
    L = traj.last_index
    vals = np.zeros((L + 1, 2 * d + 3))
    vals[:, :2 * d] = np.ascontiguousarray(traj.u).view(np.float64)
    vals[:, 2 * d] = traj.norms()
    vals[1:L, 2 * d + 1] = weighted_norm_trace(fam, traj.u)
    vals[1:L, 2 * d + 2] = traj.residuals[1:]
    rows = [[n] + row for n, row in enumerate(vals.tolist())]
    for row in (rows[0], rows[L]):
        row[-2:] = [None, None]
    return rows


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES) + ["sqrt-growth"])
@pytest.mark.parametrize("z", [0.75, 0.5 + 0.5j])
@pytest.mark.parametrize("horizon", [2, 3, 500])
def test_trajectory_csv_bytes_match_csv_writer_rows(tmp_path, name, z, horizon):
    fam = fixtures.sqrt_growth() if name == "sqrt-growth" else fixtures.FIXTURES[name]()
    traj = propagate(fam, z, np.array([0.6, 0.2j, -0.3, 0.5 + 0.1j]), horizon)
    table = trajectory_table(traj, fam)
    want = _rows_oracle(traj, fam)
    assert table.rows == want
    path = tmp_path / "want.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(table.columns)
        w.writerows(want)
    write_csv(trajectory_table(traj, fam), tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_bytes() == path.read_bytes()
