"""exact_asymptotics reads only the last tenth of S_n and of the weighted
trace, and evaluates both from the row where that tenth can start.  Every
reported number is compared bit for bit with the last tenth of the full
traces from row 1, on ordinary families, on batches whose columns end at
different indices or in undefined values, and where the no-overflow guard
refuses the skip: huge coefficients, and a prefix that makes S_n NaN.
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
from blockjacobi.fixtures import X_OP, sqrt_growth
from blockjacobi.opcore import op_norm
from blockjacobi.recurrence import Trajectory, norm_stack, propagate, propagate_block
from blockjacobi.turan import (
    _tail,
    _tail_start,
    _traces_from,
    exact_asymptotics,
    extract_periodic_limits,
    make_periodic_limits,
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


def _oracle(fam, lim, z, trajs, horizon):
    """The reported numbers from the full traces, n = 1 .. horizon-1."""
    D = lim.D[0]
    out = []
    for tr, traj in zip(_traces_from(fam, lim.N, z, trajs, horizon, start=1), trajs):
        q = np.einsum("nd,de,ne->n", traj.u.conj(), D, traj.u).real
        w = norm_stack(fam, 1, traj.last_index - 1)
        g = _tail(tr.values)[0]
        west, spread = _tail(w * (q[:-2] + q[1:-1]))
        out.append({"g": g, "weighted_trace_limit": west, "gap": abs(west - g),
                    "last_decade_spread": spread})
    return out


def _bits(entries):
    return [[np.float64(e[k]).tobytes() for k in KEYS] for e in entries]


def _check(fam, lim, z, trajs, horizon, monkeypatch):
    """exact_asymptotics on the given trajectories against the oracle; the
    rows its traces were evaluated from, in order."""
    starts = []

    def traces_from(*args):
        starts.append(args[-1])
        return _traces_from(*args)

    monkeypatch.setattr(turan, "propagate_block", lambda *args: trajs)
    monkeypatch.setattr(turan, "_traces_from", traces_from)
    rep = exact_asymptotics(fam, lim, z, [t.alpha for t in trajs], horizon)
    assert rep.trajectories == trajs
    assert _bits(rep.per_alpha) == _bits(_oracle(fam, lim, z, trajs, horizon))
    assert starts[0] == _tail_start(fam, lim.N, z, lim.D[0], trajs)
    return starts


def _with_u(traj, u):
    return Trajectory(traj.z, traj.alpha, u, traj.residuals[:len(u) - 1])


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


@pytest.mark.parametrize("undefined, short, starts",
                         [(3, True, [721]), (3, False, [901, 1]), (50, True, [721])])
def test_undefined_values_at_the_end(undefined, short, starts, monkeypatch):
    # NaN samples at the end of column 0 pull its last tenth ahead of the
    # evaluated rows, and the traces are evaluated again from row 1, unless
    # a shorter column 1 moved the shared start back far enough
    fam = sqrt_growth()
    trajs = propagate_block(fam, 0.2, _alphas(5, 2), 1000)
    u = trajs[0].u.copy()
    u[-undefined:] = np.nan
    trajs[0] = _with_u(trajs[0], u)
    if short:
        trajs[1] = _with_u(trajs[1], trajs[1].u[:801])
    assert _check(fam, _free_limits(), 0.2, trajs, 1000, monkeypatch) == starts


def test_huge_coefficients_take_the_row_1_path(monkeypatch):
    fam = custom_family(2, lambda n: 1e299 * X_OP, lambda n: ZERO)
    trajs = propagate_block(fam, 0.5, _alphas(6, 2), 400)
    assert not any(t.overflow for t in trajs)
    assert _check(fam, _free_limits(), 0.5, trajs, 400, monkeypatch) == [1]
    # a hundred times smaller, the bound holds and the prefix is skipped
    fam = custom_family(2, lambda n: 1e297 * X_OP, lambda n: ZERO)
    trajs = propagate_block(fam, 0.5, _alphas(6, 2), 400)
    assert _check(fam, _free_limits(), 0.5, trajs, 400, monkeypatch) == [361]


def test_nan_in_the_prefix_refuses_the_skip(monkeypatch):
    fam = sqrt_growth()
    lim = _free_limits()
    trajs = propagate_block(fam, 0.0, _alphas(7, 2), 1001)
    u = trajs[0].u.copy()
    u[5] = np.nan  # S_5, S_6 and the weighted trace at n = 5, 6 are NaN
    trajs[0] = _with_u(trajs[0], u)
    assert _check(fam, lim, 0.0, trajs, 1001, monkeypatch) == [1]
    # skipping the prefix would have miscounted the defined values
    full = _traces_from(fam, 1, 0.0, trajs, 1001)[0].values
    assert np.isnan(full).sum() == 2
    assert _tail(full[900:], 900) != _tail(full)


def test_horizon_below_2_is_refused():
    fam = sqrt_growth()
    with pytest.raises(ValueError, match="horizon must be >= 2"):
        exact_asymptotics(fam, _free_limits(), 0.0, _alphas(8, 1), 1)
