"""Turan values read off the stored samples.  Along a solution the window
product only shifts the state, so `_traces_from` evaluates

    S_n = Re(<a u_n, u_{n+N-1}> - <u_{n-1}, a u_{n+N}>),  a = a_{n+N-1},

from the samples phi alpha alone.  Here it is checked against the window
product formula it replaced, Re <v, diag(a, a^*) E X_n(z) v> with
v = (u_{n-1}, u_n) and X_n(z) = B_{n+N-1}(z) ... B_n(z), written out below:
on every fixture and sqrt-growth, N = 1, 2, 3, inside the band (z = 0.75),
off the real axis (0.75 + 0.1i) and outside the band, where paper-constant's
fundamental matrix is cut at L = 126 (z = 7).  The two agree to TOL times
the Lemma scale ||a_{n+N-1}|| (||u_{n-1}||^2 + ||u_n||^2) on every row both
define, and the new path defines exactly the rows 1 .. L - N.

A start's samples phi alpha keep their bits whatever other starts share the
batch, so none of the numbers read from them depends on the batch either;
and forming them SAMPLE_ROWS rows at a time leaves the bits of the one
formula over all rows.
"""

import numpy as np
import pytest

from blockjacobi.fixtures import FIXTURES, paper_constant, sqrt_growth
from blockjacobi.recurrence import SAMPLE_ROWS, fundamental_matrix, initial_data, transfer_stack
from blockjacobi.turan import _traces_from
from conftest import rand_unit

TOL = 1e-12
H = 2000
FAMILIES = {**FIXTURES, "sqrt-growth": sqrt_growth}


def _window_traces(fam, N, z, u, horizon):
    """S_n for n = 1 .. min(horizon - 1, L) by the window product formula,
    for samples u (k, L + 1, d) from u_0; rows past that are NaN."""
    d = fam.dim
    count = horizon - 1
    avail = min(count, u.shape[1] - 1)
    bst = transfer_stack(fam, z, 1, avail + N - 1)
    x = bst[:avail]
    for k in range(1, N):
        x = bst[k:k + avail] @ x  # X_n(z), highest index leftmost
    a = fam.stacks(N, avail, inverse=False)[0]  # a_{n+N-1}
    w = np.zeros((avail, 2 * d, 2 * d), dtype=complex)
    w[:, :d, d:] = -a
    w[:, d:, :d] = a.conj().transpose(0, 2, 1)
    v = np.concatenate([u[:, :avail], u[:, 1:avail + 1]], axis=2)  # (k, avail, 2d)
    vals = np.full((len(u), count), np.nan)
    vals[:, :avail] = np.einsum("kni,nij,knj->kn", v.conj(), w @ x, v).real
    return vals


@pytest.fixture(scope="module")
def phis():
    cache = {}

    def get(name, z):
        if (name, z) not in cache:
            fam = FAMILIES[name]()
            cache[name, z] = fam, fundamental_matrix(fam, z, H)
        return cache[name, z]
    return get


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("z", [0.75, 0.75 + 0.1j, 7.0])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_samples_path_matches_the_window_product_formula(phis, name, z, N):
    fam, phi = phis(name, z)
    rng = np.random.default_rng([sorted(FAMILIES).index(name), N])
    u = phi.samples([rand_unit(rng, 4) for _ in range(3)])
    L = phi.last_index
    got = _traces_from(fam, N, u, H)
    want = _window_traces(fam, N, z, u, H)
    assert np.array_equal(np.flatnonzero(~np.isnan(got).any(axis=0)) + 1, np.arange(1, L - N + 1))
    assert np.isnan(got[:, L - N:]).all()
    both = ~np.isnan(got) & ~np.isnan(want)
    assert both[:, :L - N].all()
    norms2 = np.linalg.norm(u, axis=2) ** 2
    scale = fam.stacks(N, L - N, inverse=False)[3] * (norms2[:, :L - N] + norms2[:, 1:L - N + 1])
    assert np.all(np.abs(got[:, :L - N] - want[:, :L - N]) <= TOL * scale)


def test_paper_constant_outside_the_band_is_cut_at_126(phis):
    assert phis("paper-constant", 7.0)[1].last_index == 126


@pytest.mark.parametrize("make, z", [(paper_constant, 0.75 + 0.1j), (sqrt_growth, 0.3 + 0.2j)])
def test_a_start_keeps_its_sample_bits_in_any_batch(make, z):
    phi = fundamental_matrix(make(), z, H)
    rng = np.random.default_rng(12)
    starts = [rand_unit(rng, 4) for _ in range(8)]
    alone = [phi.samples([a])[0] for a in starts]
    for k in (2, 3, 8):
        batch = phi.samples(starts[:k])
        for j in range(k):
            assert np.array_equal(batch[j], alone[j])
    late = phi.samples(starts[:3], 1500)
    for j in range(3):
        assert np.array_equal(late[j], alone[j][1500:])


def test_row_blocks_keep_the_bits_of_the_whole_formula():
    # the one-pass formula, multiply-adds over every row at once; the starts
    # put both ends of the rows on both sides of a block edge
    phi = fundamental_matrix(sqrt_growth(), 0.3 + 0.2j, 3 * SAMPLE_ROWS)
    rows = phi.last_index + 1
    rng = np.random.default_rng(13)
    starts = [rand_unit(rng, 4) for _ in range(3)]
    al = initial_data(starts, 2)
    for start in (0, 1, SAMPLE_ROWS - 1, SAMPLE_ROWS, SAMPLE_ROWS + 1,
                  rows - 2 * SAMPLE_ROWS - 1, rows - 2 * SAMPLE_ROWS, rows - 2 * SAMPLE_ROWS + 1,
                  rows - SAMPLE_ROWS - 1, rows - SAMPLE_ROWS, rows - SAMPLE_ROWS + 1,
                  rows - 1):
        want = al[:, 0, None, None] * phi.columns[0].u[start:]
        for j in range(1, 4):
            want += al[:, j, None, None] * phi.columns[j].u[start:]
        np.testing.assert_array_equal(phi.samples(starts, start), want, strict=True)
