"""Sequence limits of many sequences at once against one at a time.

`stack_limits` reads every sequence of a batch through shared norm and
extrapolant stacks; each outcome must be the one the per-sequence rules
give that sequence alone, bit for bit, or the same exception.  The oracle
is a copy of the per-sequence `stack_limit` as it stood before the batched
path, with the extrapolation stage that accepted, and of the derived limit
data (the norm ratios r and the weighted-trace reduction D) taken one period
index at a time.
"""

import warnings

import numpy as np
import pytest

from blockjacobi import fixtures
from blockjacobi.coeffs import custom_family, stack_limit, stack_limits, tabulated_family
from blockjacobi.opcore import SingularError, adj, invert, op_norm
from blockjacobi.turan import (
    EXTRACTION_TOL,
    REDUCTION_TOL,
    extract_periodic_limits,
    limit_form,
    make_periodic_limits,
)

X = fixtures.X_OP
Y = fixtures.Y_OP


# ---- the per-sequence oracle ----


def _aitken(s1, s2, s3):
    d1 = s2 - s1
    d2 = s3 - s2
    denom = d2 - d1
    scale = max(float(np.abs(s3).max()), 1.0)
    out = s3.astype(np.complex128).copy()
    with np.errstate(all="ignore"):
        ext = s3 - d2 ** 2 / denom
    ok = (np.abs(denom) > 1e-14 * scale) & np.isfinite(ext)
    out[ok] = ext[ok]
    return out


def _neville_at_zero(ts, ys):
    cur = [np.asarray(y, dtype=np.complex128) for y in ys]
    for m in range(1, len(cur)):
        cur = [
            (ts[i] * cur[i + 1] - ts[i + m] * cur[i]) / (ts[i] - ts[i + m])
            for i in range(len(cur) - 1)
        ]
    return cur[0]


def oracle(take, indices, tol=1e-8):
    """(value, residual, converged, method, stage): stage 0 for the
    Cauchy rule or none, 1 to 3 for the extrapolation stage that accepted."""
    idx = np.asarray(indices)
    if len(idx) < 16:
        return take(idx[-1:])[0], float("inf"), False, "none", 0
    cut = max(2, len(idx) // 10)
    vals = np.asarray(take(idx[-cut:]), dtype=np.complex128)
    raw_res = float(op_norm(vals - vals[-1]).max())
    scale = max(1.0, op_norm(vals[-1]))
    if raw_res < tol * scale:
        return vals[-1], raw_res, True, "cauchy", 0
    k = len(idx) - 1
    picks = sorted({k // 32, k // 16, k // 8, k // 4, k // 2, k})
    if len(picks) == 6 and picks[0] >= 1:
        s = list(np.asarray(take(idx[picks]), dtype=np.complex128))
        a = [_aitken(s[i], s[i + 1], s[i + 2]) for i in range(4)]
        ext_scale = max(1.0, op_norm(a[3]))
        first_res = op_norm(a[3] - a[2])
        if first_res < tol * ext_scale:
            return a[3], first_res, True, "extrapolated", 1
        b1 = _aitken(a[0], a[1], a[2])
        b2 = _aitken(a[1], a[2], a[3])
        second_res = op_norm(b2 - b1)
        if second_res < tol * max(1.0, op_norm(b2)):
            return b2, second_res, True, "extrapolated", 2
        ts = [1.0 / idx[j] for j in picks]
        v_full = _neville_at_zero(ts, s)
        v_part = _neville_at_zero(ts[1:], s[1:])
        rich_res = op_norm(v_full - v_part)
        if rich_res < tol * max(1.0, op_norm(v_full)):
            return v_full, rich_res, True, "extrapolated", 3
    return vals[-1], raw_res, False, "none", 0


def _outcome(take, indices, tol=1e-8):
    try:
        return oracle(take, indices, tol)
    except Exception as exc:  # the outcome compared is the exception itself
        return exc


def _same(got, want):
    """A stack_limits entry against an oracle outcome, bit for bit."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return
    assert not isinstance(got, Exception), got
    value, residual, converged, method, _ = want
    assert got.value.shape == np.shape(value)
    assert np.asarray(got.value).tobytes() == np.asarray(value).tobytes()
    assert np.float64(got.residual).tobytes() == np.float64(residual).tobytes()
    assert (got.converged, got.method) == (converged, method)


def _getter(fn):
    return lambda ns: np.stack([np.asarray(fn(int(n)), dtype=np.complex128) for n in ns])


# ---- one mixed batch ----


def _singular_at(pick, H):
    """a_n^{-1} of a_n = (n+1) X, whose last decade is clean and whose a_pick
    is singular: the Cauchy rule refuses the 1/n drift, so the extrapolation
    samples read a_pick."""
    sing = np.array([[1.0, 2.0], [2.0, 4.0]])
    fam = custom_family(2, lambda n: sing if n == pick else (n + 1.0) * X,
                        lambda n: np.zeros((2, 2)))
    return fam.a_inv_rows, np.arange(1, H)


def _with_term(fn, at, value):
    return _getter(lambda n: np.diag([value, value]) if n == at else fn(n))


def _slow(n):
    """A 1/n tail: its last decade drifts past the Cauchy tolerance."""
    return (1.0 + 1.0 / (n + 1)) * np.eye(2)


def _batch():
    """(label, take, indices) of every case of the mixed batch."""
    rng = np.random.default_rng(3)
    herm = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    pert = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return [
        ("cauchy", _getter(lambda n: (1.0 + 2.0 ** (-n)) * np.eye(2)), range(200)),
        ("cauchy-complex", _getter(lambda n: herm + pert * 3.0 ** (-n)), range(100)),
        # c / sqrt(n) at exactly doubling sample indices: Aitken is exact
        ("aitken", _getter(lambda n: np.eye(2) + herm / np.sqrt(n) if n else np.eye(2)),
         range(3201)),
        ("second-stage", _getter(_slow), range(1, 20001)),
        ("richardson", _getter(lambda n: np.eye(2) + herm / (n + 1) + pert / (n + 1) ** 2
                               + herm.T / (n + 1) ** 3), range(1, 3000, 3)),
        ("none", _getter(lambda n: np.sin(float(n)) * np.eye(2)), range(500)),
        ("none-geometric", _getter(lambda n: np.eye(2) + 0.999 ** n * herm), range(1, 3000)),
        ("short", _getter(lambda n: float(n) * np.eye(2)), range(10)),
        ("one-term", _getter(lambda n: float(n) * np.eye(2)), [7]),
        ("no-picks", _getter(lambda n: np.sin(float(n)) * np.eye(2)), range(20)),
        ("steps", _getter(lambda n: np.eye(2) * (2.0 + 1.0 / n)), range(3, 5000, 7)),
        ("steps-even", _getter(lambda n: np.cos(n / 50.0) * herm), range(0, 300, 2)),
        ("overflow", _getter(lambda n: 8.0 ** n * np.diag([1.0, 0.0])), range(300)),
        ("nan-in-decade", _with_term(_slow, 1990, np.nan), range(1, 2000)),
        ("inf-in-decade", _with_term(_slow, 1990, np.inf), range(1, 2000)),
        ("nan-last", _with_term(_slow, 1999, np.nan), range(1, 2000)),
        ("inf-at-pick", _with_term(_slow, 1 + 1998 // 2, np.inf), range(1, 2000)),
        ("nan-at-first-pick", _with_term(_slow, 1 + 1998 // 32, np.nan), range(1, 2000)),
        ("inf-short", _with_term(_slow, 5, np.inf), range(1, 6)),
        ("singular-pick", *_singular_at(1 + 998 // 4, 1000)),
    ]


def test_batch_covers_every_rule():
    outcomes = {label: _outcome(take, idx) for label, take, idx in _batch()}
    stages = {o[4] for o in outcomes.values() if not isinstance(o, Exception)}
    methods = {o[3] for o in outcomes.values() if not isinstance(o, Exception)}
    errors = {type(o).__name__ for o in outcomes.values() if isinstance(o, Exception)}
    assert stages == {0, 1, 2, 3} and methods == {"cauchy", "extrapolated", "none"}
    assert errors == {"LinAlgError", "ValueError", "SingularError"}
    assert [outcomes[k][4] for k in ("aitken", "second-stage", "richardson")] == [1, 2, 3]
    assert isinstance(outcomes["singular-pick"], SingularError)


def test_mixed_batch_matches_one_sequence_at_a_time():
    cases = _batch()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the oracle's inf arithmetic
        want = [_outcome(take, idx) for _, take, idx in cases]
        got = stack_limits([t for _, t, _ in cases], [i for _, _, i in cases])
    assert len(got) == len(cases)
    for (label, _, _), g, w in zip(cases, got, want):
        try:
            _same(g, w)
        except AssertionError as exc:
            raise AssertionError(label) from exc


def test_no_outcome_depends_on_the_other_sequences():
    cases = _batch()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        whole = stack_limits([t for _, t, _ in cases], [i for _, _, i in cases])
        for k in (0, 5, len(cases) - 1):
            part = stack_limits([t for _, t, _ in cases[k:]], [i for _, _, i in cases[k:]])
            for g, w in zip(part, whole[k:]):
                if isinstance(w, Exception):
                    assert type(g) is type(w) and str(g) == str(w)
                else:
                    assert g.value.tobytes() == w.value.tobytes()
                    assert (g.residual, g.method) == (w.residual, w.method)


def test_stack_limit_raises_what_the_batch_returns():
    for label, take, idx in _batch():
        want = _outcome(take, idx)
        if isinstance(want, Exception):
            with pytest.raises(type(want)) as err:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    stack_limit(take, idx)
            assert str(err.value) == str(want), label
        else:
            _same(stack_limit(take, idx), want)


@pytest.mark.parametrize("d", [1, 3])
def test_batches_of_other_sizes_take_lapack_norms_with_the_same_bits(d):
    rng = np.random.default_rng(d)
    target = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    pert = rng.standard_normal((d, d))
    cases = [
        (_getter(lambda n: target + pert * 3.0 ** (-n)), range(100)),
        (_getter(lambda n: target + pert / (n + 1.0)), range(1, 4000)),
        (_getter(lambda n: target + pert / (n + 1.0) ** 0.5), range(1, 4000, 2)),
        (_getter(lambda n: np.sin(float(n)) * target), range(400)),
    ]
    got = stack_limits([t for t, _ in cases], [i for _, i in cases])
    for g, (take, idx) in zip(got, cases):
        _same(g, oracle(take, idx))


def test_empty_batch():
    assert stack_limits([], []) == []


# ---- periodic limit extraction ----


def _oracle_limit_data(N, T, R, C, singular_ok=True):
    """The norm ratios r, one period index at a time."""
    r = []
    for j in range(N):
        try:
            r.append(op_norm(invert(C[j]) @ adj(C[j - 1]) @ invert(R[j])))
        except SingularError:
            if not singular_ok:
                raise
            r.append(float("nan"))
    return r


def _oracle_reduction(lim):
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
        out.append(br)
    return out


def _oracle_extraction(fam, N, horizon):
    A, _, B, NRM = fam.stacks(0, horizon, inverse=False)
    takes = {
        "T": fam.a_inv_rows,
        "Q": lambda ns: fam.a_inv_rows(ns) @ B[ns],
        "R": lambda ns: fam.a_inv_rows(ns) @ adj(A[ns - 1]),
        "C": lambda ns: A[ns] / NRM[ns, None, None],
    }
    return {name: [oracle(take, np.arange(j if j >= (name == "R") else j + N, horizon, N),
                          tol=EXTRACTION_TOL) for j in range(N)]
            for name, take in takes.items()}


FAMILIES = {
    **{name: (make, 1000) for name, make in fixtures.FIXTURES.items()},
    "sqrt-growth": (fixtures.sqrt_growth, 100_000),
}


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_extraction_matches_a_loop_of_the_oracle(name, N):
    make, horizon = FAMILIES[name]
    lim = extract_periodic_limits(make(), N, horizon)
    want = _oracle_extraction(make(), N, horizon)
    for key, seqs in want.items():
        assert len(getattr(lim, key)) == N
        for j, (value, residual, converged, _, _) in enumerate(seqs):
            assert getattr(lim, key)[j].tobytes() == value.tobytes(), (key, j)
            assert lim.residuals[key][j] == residual or np.isnan(residual)
    assert lim.converged == all(w[2] for seqs in want.values() for w in seqs)
    r = _oracle_limit_data(N, lim.T, lim.R, lim.C)
    assert np.array(lim.r).tobytes() == np.array(r).tobytes()
    D = None if np.isnan(r).any() else _oracle_reduction(lim)
    assert (lim.D is None) == (D is None)
    if D is not None:
        assert all(g.tobytes() == w.tobytes() for g, w in zip(lim.D, D))


def test_extraction_raises_the_first_failing_sequence():
    # a singular a_n read by T_1, Q_1 and R_1 at N = 2: T_1 comes first
    H = 1000
    pick = 1 + 2 * ((H // 2 - 1) // 4)
    sing = np.array([[1.0, 2.0], [2.0, 4.0]])
    fam = custom_family(2, lambda n: sing if n == pick else (n + 1.0) * X,
                        lambda n: np.zeros((2, 2)))
    with pytest.raises(SingularError, match=f"a_{pick}"):
        extract_periodic_limits(fam, 2, H)
    with pytest.raises(ValueError, match="horizon too small"):
        extract_periodic_limits(tabulated_family([X] * 4, [Y] * 4), 4, 3)


def _period_data(N, **at):
    """T = 0, Q = 0, R = C = Id over the period, with the entries named in
    `at` ("C1" is C_1) replaced."""
    data = {k: [np.zeros((2, 2)) if k in "TQ" else np.eye(2) for _ in range(N)] for k in "TQRC"}
    for key, m in at.items():
        data[key[0]][int(key[1:])] = m
    return data


@pytest.mark.parametrize("N, at", [
    (2, {}),
    (3, {"R1": np.diag([2.0, 0.5]), "C2": np.array([[1.0, 0.5], [0.0, 1.0]])}),
    # R_0 past the condition limit before the worse C_1: R_0 is named
    (2, {"R0": np.diag([1.0, 1e-13]), "C1": np.diag([1.0, 1e-14])}),
    # C_0 and R_0 both past it: C_0 is named
    (2, {"C0": np.diag([1.0, 1e-14]), "R0": np.diag([1.0, 1e-13])}),
    # C_0^{-1} C_1^* overflows at j = 0, before the singular R_1
    (2, {"C0": 1e-200 * np.eye(2), "C1": 1e200 * np.eye(2), "R1": np.diag([1.0, 1e-13])}),
])
def test_limit_data_matches_the_period_loop(N, at):
    data = _period_data(N, **at)
    try:
        want = _oracle_limit_data(N, data["T"], data["R"], data["C"], singular_ok=False)
    except Exception as exc:  # a RuntimeWarning too, where warnings are errors
        with pytest.raises(type(exc)) as err:
            make_periodic_limits(N, data["T"], data["Q"], data["R"], data["C"])
        assert str(err.value) == str(exc)
        return
    lim = make_periodic_limits(N, data["T"], data["Q"], data["R"], data["C"])
    assert np.array(lim.r).tobytes() == np.array(want).tobytes()
    D = _oracle_reduction(lim)
    assert (lim.D is None) == (D is None)
    if D is not None:
        assert all(g.tobytes() == w.tobytes() for g, w in zip(lim.D, D))
