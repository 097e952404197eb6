"""The boundary band of `coeffs.series_verdict` against the loop it
replaced: a flat fit and 31 shifted fits, each of which centred x and y
afresh, and a residual that centred both again.  The band now centres y
once and each shift's x once, and takes the flat fit as the shift-0 fit;
that keeps every bit, so the evidence is compared by `repr`, not within a
tolerance."""

import dataclasses

import numpy as np
import pytest

from blockjacobi import coeffs, commutator, fixtures
from blockjacobi.coeffs import CONVERGES, DIVERGES, UNDECIDED


def _fit_slope(xs, ys):
    x = xs - xs.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return None
    return float(np.dot(x, ys - ys.mean()) / denom)


def _reference_band(ev, terms, first_index):
    """`ev` with its band fields and verdict made afresh by the reference
    loop, and the number of shifts whose x is constant; None, 0 when the
    ladder decides before the band.  The fields set before the band come
    from `ev`: the rewrite left that code as it was."""
    if ev.slope is None or not -1.30 < ev.slope < -0.95:
        return None, 0
    t = np.asarray(terms, dtype=float)
    ns = first_index + np.arange(len(t), dtype=float)
    sel = (t > 0) & (ns >= 1)
    wide = sel & (ns >= max(10.0, ns[-1] / 100.0))
    want = dataclasses.replace(ev, verdict=UNDECIDED, log_exponent=None,
                               log_exponent_shifted=None)
    flat = 0
    if wide.sum() >= 10:
        ln = np.log(ns[wide])
        y = np.log(t[wide]) + ln
        p_flat = _fit_slope(np.log(ln), y)
        p_shift = None
        best_ssr = None
        for sft in np.linspace(0.0, 3.0, 31):
            x = np.log(sft + ln)
            p = _fit_slope(x, y)
            if p is None:
                flat += 1
                continue
            resid = (y - y.mean()) - p * (x - x.mean())
            ssr = float(np.dot(resid, resid))
            if best_ssr is None or ssr < best_ssr:
                best_ssr, p_shift = ssr, p
        ps = [-q for q in (p_flat, p_shift) if q is not None]
        want.log_exponent = -p_flat if p_flat is not None else None
        want.log_exponent_shifted = -p_shift if p_shift is not None else None
        if ps:
            if min(ps) <= 1.20:
                want.verdict = DIVERGES
            elif max(ps) >= 1.35:
                want.verdict = CONVERGES
    return want, flat


def _model_cases():
    """1/m^p and 1/(m log^q(m + s)) with m = n + 2, at three first indices
    for H = 1e3 and 1e4 and at one for H = 1e5 (its fits take most of the
    time), with every seventh term zero at H = 1e4."""
    for horizon, firsts in ((1_000, (0, 1, 21)), (10_000, (0, 1, 21)), (100_000, (1,))):
        for first in firsts:
            m = first + np.arange(horizon, dtype=float) + 2.0
            for p in (1.0, 1.05, 1.1, 1.2, 1.3):
                yield f"m^-{p} H={horizon} first={first}", m ** -p, first
            for q, s in ((0.8, 0.0), (1.0, 3.0), (1.2, 1.0), (1.35, 0.0),
                         (1.5, 2.0), (1.6, 3.0)):
                terms = 1.0 / (m * np.log(m + s) ** q)
                if horizon == 10_000:
                    terms[::7] = 0.0
                yield f"log^{q}(m+{s}) H={horizon} first={first}", terms, first


def _far_cases():
    """Windows far from n = 0.  From 1e9 and 1e10 on, log n spans so little
    that every shift fits n^-p to rounding level, where the residual's dot
    product and Syy - Sxy^2/Sxx rank the shifts differently.  Near 2^59,
    log n takes a few distinct values over the tail and log(s + log n) only
    one for many shifts s, the flat one among them, so those fits have a
    zero denominator; there the terms carry the slope -1.1 exactly, which
    log t near 0 resolves."""
    for first in (10 ** 9, 10 ** 10):
        ns = first + np.arange(10_000, dtype=float)
        for p in (1.1, 1.2):
            yield f"n^-{p} first={first}", ns ** -p, first
    for first, count in ((7 * 10 ** 17, 5_000), (2 ** 59, 10_000)):
        ns = first + np.arange(count, dtype=float)
        ln = np.log(ns)
        yield f"constant x, first={first}", np.exp(-1.1 * (ln - ln[0])), first


@pytest.fixture(scope="module")
def fixture_series():
    """Every series that the weight conditions (an and log weights), both
    criteria and the Carleman diagnostic hand to `series_verdict` on the
    four paper fixtures at H = 1e4."""
    got = []

    def record(terms, first_index=0):
        got.append((name, np.array(terms, dtype=float), first_index))
        return original(terms, first_index)

    original = coeffs.series_verdict
    patch = pytest.MonkeyPatch()
    patch.setattr(coeffs, "series_verdict", record)
    patch.setattr(commutator, "series_verdict", record)
    try:
        for name in ("paper-constant", "paper-unbounded", "paper-blockrepeat",
                     "paper-logweight"):
            fam = fixtures.FIXTURES[name]()
            coeffs.carleman_diagnostic(fam, 10_000)
            commutator.check_growth_criterion(fam, 10_000)
            commutator.check_log_weight_criterion(fam, 1, horizon=10_000)
            commutator.weight_conditions(fam, commutator.ANWeights(), 10_000)
            commutator.weight_conditions(fam, commutator.LogWeights(1), 10_000)
    finally:
        patch.undo()
    return got


def _compare(cases):
    reached = flat = 0
    for label, terms, first in cases:
        ev = coeffs.series_verdict(terms, first_index=first)
        want, skipped = _reference_band(ev, terms, first)
        if want is None:
            continue
        reached += 1
        flat += skipped
        assert repr(ev.to_dict()) == repr(want.to_dict()), label
    return reached, flat


def test_band_keeps_the_reference_bits_on_model_series():
    reached, _ = _compare(_model_cases())
    assert reached >= 70


def test_band_keeps_the_reference_bits_far_from_zero():
    reached, flat = _compare(_far_cases())
    assert reached == 6 and flat > 0
    first = 7 * 10 ** 17
    ns = first + np.arange(5_000, dtype=float)
    ev = coeffs.series_verdict(np.exp(-1.1 * (np.log(ns) - np.log(ns[0]))), first)
    assert ev.log_exponent is None and ev.log_exponent_shifted is not None


def test_band_keeps_the_reference_bits_on_fixture_series(fixture_series):
    assert len(fixture_series) == 60
    reached, _ = _compare(fixture_series)
    assert reached >= 7
