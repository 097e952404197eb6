"""Three-term recurrence propagation: transfer matrices, batched stacks,
trajectory invariants and square-summability diagnostics."""

import csv

import numpy as np
import pytest

from blockjacobi import fixtures
from blockjacobi.coeffs import constant_family, custom_family, tabulated_family
from blockjacobi.fixtures import X_OP, Y_OP, indeterminate_doubling, paper_constant
from blockjacobi.opcore import adj
from blockjacobi.recurrence import (
    NOT_SQUARE_SUMMABLE,
    OVERFLOW_LIMIT,
    SQUARE_SUMMABLE,
    UNDECIDED,
    Trajectory,
    basis_trajectories,
    coefficient_stacks,
    formal_eigenvector_start,
    l2_tail_diagnostic,
    norm_stack,
    propagate,
    propagate_block,
    solution_space_dimension,
    trajectory_table,
    trajectory_to_csv,
    transfer,
    transfer_inv,
    transfer_stack,
    weighted_norm_trace,
    window_product,
)

from conftest import rand_family, rand_unit


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
    s = weighted_norm_trace(fam, traj)
    assert len(s) == traj.last_index - 1
    for k in range(len(s)):
        n = k + 1
        want = fam.norm_a(n) * (np.linalg.norm(traj.u[n - 1]) ** 2
                                + np.linalg.norm(traj.u[n]) ** 2)
        assert s[k] == pytest.approx(want, rel=1e-12)


def test_l2_diagnostic_decaying_and_flat_tails():
    fam = indeterminate_doubling()
    for traj in basis_trajectories(fam, 1j, 400):
        assert l2_tail_diagnostic(traj).verdict == SQUARE_SUMMABLE
    # constant self-adjoint entries at a non-real z: solutions grow
    for traj in basis_trajectories(paper_constant(), 1j, 800):
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


def test_basis_trajectories_seed_the_canonical_vectors():
    fam = paper_constant()
    basis = basis_trajectories(fam, 0.0, 5)
    assert len(basis) == 4
    for k, traj in enumerate(basis):
        want = np.zeros(4)
        want[k] = 1.0
        assert np.allclose(traj.alpha, want)


def test_solution_space_dimension_full_for_doubling():
    assert solution_space_dimension(indeterminate_doubling(), 0.0, 300) == 2


def test_trajectory_csv_roundtrip(tmp_path):
    fam = paper_constant()
    traj = propagate(fam, 1.0, np.array([1.0, 0.0, 0.0, 1.0]), 20)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, fam, path)
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
    vals[1:L, 2 * d + 1] = weighted_norm_trace(fam, traj)
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
    trajectory_to_csv(traj, fam, tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_bytes() == path.read_bytes()
