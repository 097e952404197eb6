"""exact_asymptotics reads each limit from the last tenth of its trace's
rows: S_n has rows 1 .. L - N and the weighted trace rows 1 .. L - 1, L
the last index of the fundamental matrix, where every trajectory phi alpha
ends.  It evaluates both traces once, from the first row of either tenth.
Every reported number is compared bit for bit with the last tenth of the
full traces from row 1, on ordinary families, on a fundamental matrix cut
before the horizon, on huge coefficients, and with a NaN in the skipped
rows.  The fundamental matrix comes in through the `phi` argument,
hand-made where a test needs it.  A NaN inside a tenth, or a fundamental
matrix that ends at L <= N, refuses with NotConvergentError, here and in
turan_convergence, and the runner records that refusal as an error entry.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import rand_unit
from blockjacobi import runner, turan
from blockjacobi.coeffs import (
    ConstantWeight,
    PowerWeight,
    custom_family,
    scaled_periodic_family,
)
from blockjacobi.config import parse_config
from blockjacobi.fixtures import X_OP, paper_constant, sqrt_growth
from blockjacobi.opcore import NotConvergentError, op_norm
from blockjacobi.recurrence import FundamentalMatrix, fundamental_matrix, norm_stack
from blockjacobi.runner import run
from blockjacobi.turan import (
    _traces_from,
    exact_asymptotics,
    extract_periodic_limits,
    make_periodic_limits,
    turan_convergence,
)

XN = op_norm(X_OP)
ZERO = np.zeros((2, 2))
KEYS = ("g", "weighted_trace_limit", "gap", "last_decade_spread")


def _free_limits():
    """T = Q = 0, R = Id, C = X / ||X||: the limits of sqrt_growth, with
    D = C."""
    return make_periodic_limits(1, [ZERO], [ZERO], [np.eye(2)], [X_OP / XN])


def _alphas(seed, count):
    rng = np.random.default_rng(seed)
    return [rand_unit(rng, 4) for _ in range(count)]


def _last_tenth(values):
    """Mean of the last tenth (at least one) of all the rows of a trace, and
    the largest deviation from it there."""
    tail = values[-max(1, len(values) // 10):]
    mean = float(tail.mean())
    return mean, float(np.abs(tail - mean).max())


def _oracle(fam, lim, z, phi, alphas, horizon):
    """The reported numbers from the full traces of phi alpha: S_n for
    n = 1 .. L - N, the weighted trace for n = 1 .. L - 1."""
    D = lim.D[0]
    L = phi.last_index
    u = phi.samples(alphas)
    out = []
    for vals, ua in zip(_traces_from(fam, lim.N, u, horizon, start=1), u):
        q = np.einsum("nd,de,ne->n", ua.conj(), D, ua).real
        w = norm_stack(fam, 1, L - 1)
        g = _last_tenth(vals[:L - lim.N])[0]
        west, spread = _last_tenth(w * (q[:-2] + q[1:-1]))
        out.append({"g": g, "weighted_trace_limit": west, "gap": abs(west - g),
                    "last_decade_spread": spread})
    return out


def _bits(entries):
    return [[np.float64(e[k]).tobytes() for k in KEYS] for e in entries]


def _check(fam, lim, z, phi, alphas, horizon, monkeypatch):
    """exact_asymptotics on the given fundamental matrix against the oracle;
    the rows its traces were evaluated from, in order."""
    starts = []

    def traces_from(*args):
        starts.append(args[-1])
        return _traces_from(*args)

    monkeypatch.setattr(turan, "_traces_from", traces_from)
    rep = exact_asymptotics(fam, lim, z, alphas, horizon, phi=phi)
    assert rep.phi is phi
    assert _bits(rep.per_alpha) == _bits(_oracle(fam, lim, z, phi, alphas, horizon))
    return starts


def _cut(phi, last):
    """The fundamental matrix phi ended at index `last`, as a cut there
    leaves it."""
    return FundamentalMatrix(phi.z, [replace(t, u=t.u[:last + 1], residuals=t.residuals[:last],
                                             truncated_at=last) for t in phi.columns])


def _with_nan(phi, index):
    """phi with a NaN row at `index`: every combination is NaN there."""
    cols = [replace(t, u=t.u.copy()) for t in phi.columns]
    for t in cols:
        t.u[index] = np.nan
    return FundamentalMatrix(phi.z, cols)


@pytest.mark.parametrize("horizon", [2, 3, 5, 11, 12, 13, 21, 101, 3000])
def test_sqrt_growth_n1_reads_the_same_tail(horizon, monkeypatch):
    fam = sqrt_growth()
    phi = fundamental_matrix(fam, 0.0, horizon)
    starts = _check(fam, _free_limits(), 0.0, phi, _alphas(1, 3), horizon, monkeypatch)
    assert len(starts) == 1 and (starts[0] > 1) == (horizon >= 3)


def test_sqrt_growth_n1_extracted_limits(monkeypatch):
    fam = sqrt_growth()
    lim = extract_periodic_limits(fam, 1, 20000)
    phi = fundamental_matrix(fam, 0.3, 20000)
    assert _check(fam, lim, 0.3, phi, _alphas(2, 4), 20000, monkeypatch) == [18001]


def test_square_growth_n3_weights_by_d(monkeypatch):
    fam = scaled_periodic_family(1, PowerWeight(2.0), ConstantWeight(0.0),
                                 [X_OP], [ZERO])
    lim = extract_periodic_limits(fam, 3, 2000)
    assert lim.N == 3 and lim.D is not None
    alphas = [np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
              np.array([0.3, -0.2, 0.5, 1.0], dtype=complex)]
    phi = fundamental_matrix(fam, 0.0, 2000)
    # S_n's last tenth, rows 1799 .. 1997, starts before the weighted
    # trace's, rows 1801 .. 1999
    assert _check(fam, lim, 0.0, phi, alphas, 2000, monkeypatch) == [1799]


def test_fundamental_matrix_cut_by_overflow(monkeypatch):
    # u_n grows like 10^n: the fundamental matrix is cut near n = 150, and
    # each combination that passed the overflow limit there is flagged
    fam = custom_family(2, lambda n: np.eye(2), lambda n: ZERO)
    phi = fundamental_matrix(fam, 10.0, 1000)
    alphas = _alphas(3, 2)
    assert phi.last_index == phi.truncated_at < 200
    assert phi.overflow(phi.samples(alphas)).any()
    K = phi.last_index - 1
    assert _check(fam, _free_limits(), 10.0, phi, alphas, 1000,
                  monkeypatch) == [K - K // 10 + 1]


def test_fundamental_matrix_that_ends_before_the_horizon(monkeypatch):
    fam = sqrt_growth()
    phi = _cut(fundamental_matrix(fam, 0.2, 2000), 1500)
    # the last tenth of the weighted trace, rows 1 .. 1499
    assert _check(fam, _free_limits(), 0.2, phi, _alphas(4, 3), 2000,
                  monkeypatch) == [1499 - 149 + 1]


@pytest.mark.parametrize("scale", [1e299, 1e297])
def test_huge_coefficients_read_the_same_rows(scale, monkeypatch):
    # with 1e299 X, a bound on the skipped rows cannot rule out an overflow
    # there, but those rows are not read, so both start at the last tenth
    fam = custom_family(2, lambda n: scale * X_OP, lambda n: ZERO)
    phi = fundamental_matrix(fam, 0.5, 400)
    assert phi.truncated_at is None
    assert _check(fam, _free_limits(), 0.5, phi, _alphas(6, 2), 400, monkeypatch) == [361]


def test_nan_in_the_skipped_rows_is_not_read(monkeypatch):
    fam = sqrt_growth()
    lim = _free_limits()
    alphas = _alphas(7, 2)
    clean = fundamental_matrix(fam, 0.0, 1001)
    phi = _with_nan(clean, 5)  # S_4, S_5, S_6 and the weighted trace there
    assert np.isnan(_traces_from(fam, 1, phi.samples(alphas), 1001)[0]).sum() == 3
    assert _check(fam, lim, 0.0, phi, alphas, 1001, monkeypatch) == [901]
    got = exact_asymptotics(fam, lim, 0.0, alphas, 1001, phi=phi)
    want = exact_asymptotics(fam, lim, 0.0, alphas, 1001, phi=clean)
    assert _bits(got.per_alpha) == _bits(want.per_alpha)


@pytest.mark.parametrize("index, refused", [(899, False), (900, True), (998, True)])
def test_nan_in_the_last_tenth_of_s_n_refuses(index, refused, monkeypatch):
    # S_n and the weighted trace have rows 1 .. 999 and read u_{n-1} first:
    # their last tenth is rows 901 .. 999, which first reads u_900
    fam = sqrt_growth()
    alphas = _alphas(5, 2)
    phi = _with_nan(fundamental_matrix(fam, 0.2, 1000), index)
    if not refused:
        assert _check(fam, _free_limits(), 0.2, phi, alphas, 1000, monkeypatch) == [901]
        return
    with pytest.raises(NotConvergentError,
                       match=r"Turan sequence S_n is NaN in its last tenth, rows 901 \.\. 999"):
        exact_asymptotics(fam, _free_limits(), 0.2, alphas, 1000, phi=phi)


def test_nan_in_the_last_tenth_of_the_weighted_trace_refuses(monkeypatch):
    # the weighted trace of a fundamental matrix cut at L = 800 has rows 1 .. 799
    fam = sqrt_growth()
    phi = _cut(fundamental_matrix(fam, 0.2, 1000), 800)

    def nan_last(fam, start, count):
        w = norm_stack(fam, start, count).copy()
        w[-1] = np.nan
        return w

    monkeypatch.setattr(turan, "norm_stack", nan_last)
    with pytest.raises(NotConvergentError,
                       match=r"weighted trace is NaN in its last tenth, rows 721 \.\. 799"):
        exact_asymptotics(fam, _free_limits(), 0.2, _alphas(5, 2), 1000, phi=phi)


def test_runner_records_the_refusal(monkeypatch):
    engine = runner.fundamental_matrix
    monkeypatch.setattr(runner, "fundamental_matrix",
                        lambda *args: _with_nan(engine(*args), -2))
    doc = parse_config({"family": {"kind": "scaled_periodic", "period": 1,
                                   "x": {"kind": "power", "exponent": 0.5},
                                   "y": {"kind": "constant", "value": 0.0},
                                   "X": [[[1.0, 1.0], [1.0, 2.0]]], "Y": [[[0.0, 0.0], [0.0, 0.0]]]},
                        "analyses": [{"kind": "exact_asymptotics", "z": 0.0},
                                     {"kind": "christoffel", "z": 0.0}],
                        "horizon": 2000})
    results = run(doc).results
    for key in ("00_exact_asymptotics", "01_christoffel"):
        assert results[key] == {
            "error": "NotConvergentError",
            "message": "Turan sequence S_n is NaN in its last tenth, rows 1801 .. 1999"}


def test_turan_convergence_refuses_a_nan_in_its_last_tenth():
    fam = paper_constant()
    phi = _with_nan(fundamental_matrix(fam, 1.0, 400), 380)
    with pytest.raises(NotConvergentError,
                       match=r"Turan sequence S_n is NaN in its last tenth, rows 361 \.\. 399"):
        turan_convergence(fam, 1, 1.0, _alphas(9, 2), 400, phi=phi)


def test_turan_convergence_ends_every_combination_at_the_cut():
    # _traces_from pads the rows past L - N with NaN: those rows are not
    # counted, so every combination's tenth ends at row 249 of a cut at 250
    fam = paper_constant()
    alphas = _alphas(10, 3)
    phi = _cut(fundamental_matrix(fam, 1.0, 400), 250)
    rep = turan_convergence(fam, 1, 1.0, alphas, 400, phi=phi)
    values = _traces_from(fam, 1, phi.samples(alphas), 400)
    for s, vals in zip(rep.per_alpha, values):
        assert not np.isnan(vals[:249]).any() and np.isnan(vals[249:]).all()
        assert (s.g, s.residual) == _last_tenth(vals[:249])


def test_horizon_below_2_is_refused():
    fam = sqrt_growth()
    with pytest.raises(ValueError, match="horizon must be >= 2"):
        exact_asymptotics(fam, _free_limits(), 0.0, _alphas(8, 1), 1)


@pytest.mark.parametrize("N, last", [(1, 1), (3, 2), (3, 3)])
def test_fundamental_matrix_that_ends_at_l_le_n_refuses(N, last):
    # S_n reads u_{n+N}, so phi ending at L <= N leaves no S_n row and no
    # tenth to average: both analyses say so rather than take an empty mean
    fam = paper_constant()
    phi = _cut(fundamental_matrix(fam, 1.0, 400), last)
    lim = make_periodic_limits(N, [ZERO] * N, [ZERO] * N, [np.eye(2)] * N,
                               [X_OP / XN] * N)
    msg = rf"ends at L = {last}, which leaves no Turan value S_n for N = {N}"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NotConvergentError, match=msg):
            turan_convergence(fam, N, 1.0, _alphas(11, 2), 400, phi=phi)
        with pytest.raises(NotConvergentError, match=msg):
            exact_asymptotics(fam, lim, 1.0, _alphas(11, 2), 400, phi=phi)
