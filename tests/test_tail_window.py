"""exact_asymptotics reads each limit from the last tenth of its trace's
rows: S_n has rows 1 .. min(horizon - 1, L) and the weighted trace rows
1 .. L - 1, L a column's last index.  It evaluates both traces once, from
the row where the shortest column's tenth starts.  Every reported number is
compared bit for bit with the last tenth of the full traces from row 1, on
ordinary families, on batches whose columns end at different indices, on
huge coefficients, and with a NaN in the skipped rows.  A NaN inside a tenth
refuses with NotConvergentError, here and in turan_convergence, and the
runner records that refusal as an error entry.
"""

import numpy as np
import pytest

from conftest import rand_unit
from blockjacobi import turan
from blockjacobi.coeffs import (
    ConstantWeight,
    PowerWeight,
    custom_family,
    scaled_periodic_family,
)
from blockjacobi.config import parse_config
from blockjacobi.fixtures import X_OP, paper_constant, sqrt_growth
from blockjacobi.opcore import NotConvergentError, op_norm
from blockjacobi.recurrence import Trajectory, norm_stack, propagate, propagate_block
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


def _oracle(fam, lim, z, trajs, horizon):
    """The reported numbers from the full traces: S_n for n = 1 ..
    min(horizon - 1, L), the weighted trace for n = 1 .. L - 1."""
    D = lim.D[0]
    out = []
    for tr, traj in zip(_traces_from(fam, lim.N, z, trajs, horizon, start=1), trajs):
        q = np.einsum("nd,de,ne->n", traj.u.conj(), D, traj.u).real
        w = norm_stack(fam, 1, traj.last_index - 1)
        g = _last_tenth(tr.values[:min(horizon - 1, traj.last_index)])[0]
        west, spread = _last_tenth(w * (q[:-2] + q[1:-1]))
        out.append({"g": g, "weighted_trace_limit": west, "gap": abs(west - g),
                    "last_decade_spread": spread})
    return out


def _bits(entries):
    return [[np.float64(e[k]).tobytes() for k in KEYS] for e in entries]


def _on(trajs, monkeypatch):
    """Make turan propagate to the given trajectories."""
    monkeypatch.setattr(turan, "propagate_block", lambda *args: trajs)


def _check(fam, lim, z, trajs, horizon, monkeypatch):
    """exact_asymptotics on the given trajectories against the oracle; the
    rows its traces were evaluated from, in order."""
    starts = []

    def traces_from(*args):
        starts.append(args[-1])
        return _traces_from(*args)

    _on(trajs, monkeypatch)
    monkeypatch.setattr(turan, "_traces_from", traces_from)
    rep = exact_asymptotics(fam, lim, z, [t.alpha for t in trajs], horizon)
    assert rep.trajectories == trajs
    assert _bits(rep.per_alpha) == _bits(_oracle(fam, lim, z, trajs, horizon))
    return starts


def _with_u(traj, u):
    return Trajectory(traj.z, traj.alpha, u, traj.residuals[:len(u) - 1])


def _with_nan(traj, index):
    u = traj.u.copy()
    u[index] = np.nan
    return _with_u(traj, u)


@pytest.mark.parametrize("horizon", [2, 3, 5, 11, 12, 13, 21, 101, 3000])
def test_sqrt_growth_n1_reads_the_same_tail(horizon, monkeypatch):
    fam = sqrt_growth()
    trajs = propagate_block(fam, 0.0, _alphas(1, 3), horizon)
    starts = _check(fam, _free_limits(), 0.0, trajs, horizon, monkeypatch)
    assert len(starts) == 1 and (starts[0] > 1) == (horizon >= 3)


def test_sqrt_growth_n1_extracted_limits(monkeypatch):
    fam = sqrt_growth()
    lim = extract_periodic_limits(fam, 1, 20000)
    trajs = propagate_block(fam, 0.3, _alphas(2, 4), 20000)
    assert _check(fam, lim, 0.3, trajs, 20000, monkeypatch) == [18001]


def test_square_growth_n3_weights_by_d(monkeypatch):
    fam = scaled_periodic_family(1, PowerWeight(2.0), ConstantWeight(0.0),
                                 [X_OP], [ZERO])
    lim = extract_periodic_limits(fam, 3, 2000)
    assert lim.N == 3 and lim.D is not None
    alphas = [np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
              np.array([0.3, -0.2, 0.5, 1.0], dtype=complex)]
    trajs = propagate_block(fam, 0.0, alphas, 2000)
    assert _check(fam, lim, 0.0, trajs, 2000, monkeypatch) == [1801]


def test_batch_cut_by_overflow(monkeypatch):
    # u_n grows like 10^n: the batch is cut near n = 150, with one column
    # past the overflow limit and the other only shortened
    fam = custom_family(2, lambda n: np.eye(2), lambda n: ZERO)
    trajs = propagate_block(fam, 10.0, _alphas(3, 2), 1000)
    assert trajs[0].last_index < 200 and any(t.overflow for t in trajs)
    K = trajs[0].last_index - 1
    assert _check(fam, _free_limits(), 10.0, trajs, 1000, monkeypatch) == [K - K // 10 + 1]


def test_columns_that_end_at_different_indices(monkeypatch):
    fam = sqrt_growth()
    alphas = _alphas(4, 3)
    trajs = [propagate(fam, 0.2, a, h) for a, h in zip(alphas, (2000, 1500, 1717))]
    # the last tenth of the shortest column's weighted trace
    assert _check(fam, _free_limits(), 0.2, trajs, 2000, monkeypatch) == [1499 - 149 + 1]


@pytest.mark.parametrize("scale", [1e299, 1e297])
def test_huge_coefficients_read_the_same_rows(scale, monkeypatch):
    # with 1e299 X, a bound on the skipped rows cannot rule out an overflow
    # there, but those rows are not read, so both start at the last tenth
    fam = custom_family(2, lambda n: scale * X_OP, lambda n: ZERO)
    trajs = propagate_block(fam, 0.5, _alphas(6, 2), 400)
    assert not any(t.overflow for t in trajs)
    assert _check(fam, _free_limits(), 0.5, trajs, 400, monkeypatch) == [361]


def test_nan_in_the_skipped_rows_is_not_read(monkeypatch):
    fam = sqrt_growth()
    lim = _free_limits()
    clean = propagate_block(fam, 0.0, _alphas(7, 2), 1001)
    trajs = [_with_nan(clean[0], 5), clean[1]]  # S_5, S_6 and the weighted trace there
    assert np.isnan(_traces_from(fam, 1, 0.0, trajs, 1001)[0].values).sum() == 2
    assert _check(fam, lim, 0.0, trajs, 1001, monkeypatch) == [901]
    got = exact_asymptotics(fam, lim, 0.0, [t.alpha for t in trajs], 1001)
    _on(clean, monkeypatch)
    want = exact_asymptotics(fam, lim, 0.0, [t.alpha for t in clean], 1001)
    assert _bits(got.per_alpha) == _bits(want.per_alpha)


@pytest.mark.parametrize("index, refused", [(899, False), (900, True), (998, True)])
def test_nan_in_the_last_tenth_of_s_n_refuses(index, refused, monkeypatch):
    # S_n and the weighted trace have rows 1 .. 999 and read u_{n-1}, u_n:
    # their last tenth is rows 901 .. 999, which first reads u_900
    fam = sqrt_growth()
    trajs = propagate_block(fam, 0.2, _alphas(5, 2), 1000)
    trajs[1] = _with_nan(trajs[1], index)
    if not refused:
        assert _check(fam, _free_limits(), 0.2, trajs, 1000, monkeypatch) == [901]
        return
    _on(trajs, monkeypatch)
    with pytest.raises(NotConvergentError,
                       match=r"Turan sequence S_n is NaN in its last tenth, rows 901 \.\. 999"):
        exact_asymptotics(fam, _free_limits(), 0.2, [t.alpha for t in trajs], 1000)


def test_nan_in_the_last_tenth_of_the_weighted_trace_refuses(monkeypatch):
    # the weighted trace of a column cut at L = 800 has rows 1 .. 799
    fam = sqrt_growth()
    trajs = propagate_block(fam, 0.2, _alphas(5, 2), 1000)
    trajs[0] = _with_u(trajs[0], trajs[0].u[:801])
    _on(trajs, monkeypatch)

    def nan_last(fam, start, count):
        w = norm_stack(fam, start, count).copy()
        w[-1] = np.nan
        return w

    monkeypatch.setattr(turan, "norm_stack", nan_last)
    with pytest.raises(NotConvergentError,
                       match=r"weighted trace is NaN in its last tenth, rows 721 \.\. 799"):
        exact_asymptotics(fam, _free_limits(), 0.2, [t.alpha for t in trajs], 1000)


def test_runner_records_the_refusal(monkeypatch):
    engine = turan.propagate_block
    monkeypatch.setattr(turan, "propagate_block",
                        lambda *args: [_with_nan(t, -2) for t in engine(*args)])
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


def test_turan_convergence_refuses_a_nan_in_its_last_tenth(monkeypatch):
    fam = paper_constant()
    trajs = propagate_block(fam, 1.0, _alphas(9, 2), 400)
    _on([trajs[0], _with_nan(trajs[1], 380)], monkeypatch)
    with pytest.raises(NotConvergentError,
                       match=r"Turan sequence S_n is NaN in its last tenth, rows 361 \.\. 399"):
        turan_convergence(fam, 1, 1.0, [t.alpha for t in trajs], 400)


def test_turan_convergence_reads_each_column_up_to_its_end(monkeypatch):
    # _traces_from pads a column past its end with NaN: those rows are not
    # counted, so each column's tenth ends at its own last row
    fam = paper_constant()
    trajs = [propagate(fam, 1.0, a, h) for a, h in zip(_alphas(10, 3), (400, 250, 333))]
    _on(trajs, monkeypatch)
    rep = turan_convergence(fam, 1, 1.0, [t.alpha for t in trajs], 400)
    for s, tr, traj in zip(rep.per_alpha, _traces_from(fam, 1, 1.0, trajs, 400), trajs):
        rows = min(399, traj.last_index)
        assert np.isnan(tr.values[rows:]).all()
        assert (s.g, s.residual) == _last_tenth(tr.values[:rows])


def test_horizon_below_2_is_refused():
    fam = sqrt_growth()
    with pytest.raises(ValueError, match="horizon must be >= 2"):
        exact_asymptotics(fam, _free_limits(), 0.0, _alphas(8, 1), 1)
