"""The fundamental matrix as the unit of propagation: every per-alpha number
that `asymptotic_band`, `turan_convergence`, `exact_asymptotics` and
`christoffel_limit` read from phi alpha matches the same number read from a
direct propagation of alpha through `propagate_block`; outside the band the
combinations share phi's cut and its overflow rule; and a run propagates
once per z for all the analyses at that z.  The property over random starts
is in test_fundamental_matrix_properties.py.

Inside the band every solution stays bounded, so phi alpha and the direct
trajectory differ by rounding: TOL relative for limits and band constants,
and TOL times |g| in absolute terms for the fields that come from a
cancellation (`gap`, the Christoffel residual).
"""

import numpy as np
import pytest

from blockjacobi import recurrence
from blockjacobi.config import parse_config
from blockjacobi.fixtures import FIXTURES, X_OP, paper_constant, sqrt_growth
from blockjacobi.recurrence import (
    OVERFLOW_LIMIT,
    fundamental_matrix,
    norm_stack,
    propagate_block,
    weighted_norm_trace,
)
from blockjacobi.runner import run
from blockjacobi.turan import (
    _traces_from,
    asymptotic_band,
    christoffel_limit,
    exact_asymptotics,
    extract_periodic_limits,
    turan_convergence,
)
from conftest import rand_unit

TOL = 1e-12
H = 2000
FAMILIES = {**FIXTURES, "sqrt-growth": sqrt_growth}


def _alphas(seed, count=3):
    rng = np.random.default_rng(seed)
    return [rand_unit(rng, 4) for _ in range(count)]


def _direct(fam, z, alpha, horizon=H):
    return propagate_block(fam, z, [alpha], horizon)[0]


def _last_tenth_mean(values):
    return float(values[-max(1, len(values) // 10):].mean())


def _close(got, want, tol=TOL):
    assert abs(got - want) <= tol * abs(want)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_band_and_turan_limits_match_direct_propagation(name):
    # z = 0.75 lies inside the band of every fixture
    fam, z, alphas = FAMILIES[name](), 0.75, _alphas(1)
    band = asymptotic_band(fam, 1, z, alphas, H)
    conv = turan_convergence(fam, 1, z, alphas, H)
    for alpha, b, c in zip(alphas, band.per_alpha, conv.per_alpha):
        traj = _direct(fam, z, alpha)
        s = weighted_norm_trace(fam, traj.u)[band.burn_in - 1:]
        _close(b.c1, s.min())
        _close(b.c2, s.max())
        assert not b.overflow
        values = _traces_from(fam, 1, traj.u[None], H)[0]
        _close(c.g, _last_tenth_mean(values))


@pytest.mark.parametrize("z", [0.0, 0.3])
def test_exact_asymptotics_and_christoffel_match_direct_propagation(z):
    fam = sqrt_growth()
    lim = extract_periodic_limits(fam, 1, H)
    D = lim.D[0]
    alphas = _alphas(2)
    rep = exact_asymptotics(fam, lim, z, alphas, H)
    trajs = [rep.phi.trajectory(d["alpha"]) for d in rep.per_alpha]
    for alpha, entry, traj in zip(alphas, rep.per_alpha, trajs):
        direct = _direct(fam, z, alpha)
        g = _last_tenth_mean(_traces_from(fam, 1, direct.u[None], H)[0])
        q = np.einsum("nd,de,ne->n", direct.u.conj(), D, direct.u).real
        west = _last_tenth_mean(norm_stack(fam, 1, H - 1) * (q[:-2] + q[1:-1]))
        _close(entry["g"], g)
        _close(entry["weighted_trace_limit"], west)
        assert abs(entry["gap"] - abs(west - g)) <= TOL * abs(g)
        got, want = christoffel_limit(fam, rep.C, traj), christoffel_limit(fam, rep.C, direct)
        _close(got.limit_estimate, want.limit_estimate)
        assert abs(got.residual - want.residual) <= TOL * abs(g)


def test_combinations_outside_the_band_share_the_cut_and_the_overflow_rule():
    # at z = 10, outside the band of paper-constant, solutions grow until the
    # first basis column passes OVERFLOW_LIMIT; every combination ends there
    fam, z = paper_constant(), 10.0
    phi = fundamental_matrix(fam, z, 600)
    assert phi.last_index == phi.truncated_at < 600
    cols = np.stack([t.u for t in phi.columns])
    assert np.abs(cols[:, -1]).max() > OVERFLOW_LIMIT >= np.abs(cols[:, :-1]).max()
    residuals = np.stack([t.residuals for t in phi.columns])
    alphas = _alphas(3, 8)
    flags = []
    for alpha in alphas:
        traj = phi.trajectory(alpha)
        assert traj.last_index == traj.truncated_at == phi.truncated_at
        assert traj.overflow == bool(np.abs(traj.u[-1]).max() > OVERFLOW_LIMIT)
        assert np.array_equal(traj.residuals, np.abs(alpha) @ residuals)
        flags.append(traj.overflow)
    assert any(flags) and not all(flags)
    band = asymptotic_band(fam, 1, z, alphas, 600)
    assert [s.overflow for s in band.per_alpha] == flags


def test_one_propagation_serves_every_analysis_at_one_z(monkeypatch):
    alphas = [[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, [0.5, 0.5], 0.0]]
    doc = parse_config({"family": {"kind": "scaled_periodic", "period": 1,
                                   "x": {"kind": "power", "exponent": 0.5},
                                   "y": {"kind": "constant", "value": 0.0},
                                   "X": [X_OP.real.tolist()], "Y": [[[0.0, 0.0], [0.0, 0.0]]]},
                        "analyses": [{"kind": "exact_asymptotics", "z": 0.0, "alphas": alphas},
                                     {"kind": "christoffel", "z": 0.0, "alpha": alphas[0]},
                                     {"kind": "band", "z": 0.0, "alphas": alphas},
                                     {"kind": "turan_convergence", "z": 0.0, "alphas": alphas}],
                        "horizon": H})
    calls = []
    engine = recurrence._propagate
    monkeypatch.setattr(recurrence, "_propagate",
                        lambda fam, z, *args: calls.append(z) or engine(fam, z, *args))
    results = run(doc).results
    assert calls == [0.0]
    monkeypatch.undo()

    fam = doc.family.build()
    starts = [np.array([complex(*x) if isinstance(x, list) else x for x in a]) for a in alphas]
    ea = exact_asymptotics(fam, extract_periodic_limits(fam, 1, H), 0.0, starts, H)
    chris = christoffel_limit(fam, ea.C, ea.phi.trajectory(ea.per_alpha[0]["alpha"]))
    band = asymptotic_band(fam, 1, 0.0, starts, H)
    conv = turan_convergence(fam, 1, 0.0, starts, H)
    assert results["00_exact_asymptotics"]["per_alpha"] == [
        {k: e[k] for k in ("g", "weighted_trace_limit", "gap")} for e in ea.per_alpha]
    g = ea.per_alpha[0]["g"]
    assert results["01_christoffel"] == {"limit_estimate": chris.limit_estimate,
                                         "residual": chris.residual, "g": g,
                                         "half_g_gap": abs(chris.limit_estimate - g / 2.0)}
    assert results["02_band"] == {"c1": band.c1, "c2": band.c2, "ratio": band.ratio,
                                  "alphas": 2, "burn_in": 10, "overflow": False}
    assert results["03_turan_convergence"]["g"] == conv.g_values
