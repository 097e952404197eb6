"""Property test of the CLI: whatever the values of an analysis's keys, well
typed, ill typed or out of range, `blockjacobi analyze` exits 0 or 2 (3 on
an I/O error) and never raises."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from blockjacobi.cli import main  # noqa: E402
from blockjacobi.coeffs import WEIGHT_KINDS  # noqa: E402

X_JSON = [[1.0, 1.0], [1.0, 2.0]]
Y_JSON = [[2.0, 1.0], [1.0, 1.0]]

# kind -> (required keys, optional keys)
KEYS = {
    "validate": ((), ("upto",)),
    "carleman": ((), ()),
    "variation": (("sequence", "N"), ("window",)),
    "lambda_scan": (("range",), ("grid", "eps", "N")),
    "band": (("z",), ("N", "alphas", "burn_in")),
    "turan_convergence": (("z",), ("N", "alphas")),
    "commutator": (("strategy", "lambda"), ("depth", "n_start")),
    "growth_criterion": ((), ()),
    "log_weight_criterion": (("depth",), ("n_start",)),
    "indeterminacy": (("z_samples",), ("N", "range", "grid")),
    "exact_asymptotics": (("z",), ("N", "alphas")),
    "christoffel": (("z",), ("alpha",)),
    "trajectory": (("z", "alpha"), ()),
}

small = st.floats(-3.0, 3.0, allow_nan=False)
real_z = st.one_of(small, st.tuples(small, st.just(0.0)).map(list))
alpha = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4)

# values each key accepts (the family has d = 2)
WELL = {
    "upto": st.integers(1, 300),
    "N": st.integers(1, 3),
    "grid": st.integers(2, 40),
    "eps": st.floats(0.0, 1e-3),
    "burn_in": st.integers(1, 300),
    "depth": st.integers(0, 3),
    "n_start": st.integers(0, 300),
    "range": st.tuples(st.floats(-10.0, 0.0), st.floats(0.5, 10.0)).map(
        lambda t: [t[0], t[0] + t[1]]),
    "window": st.tuples(st.integers(1, 150), st.integers(1, 150)).map(
        lambda t: [t[0], t[0] + t[1]]),
    "sequence": st.sampled_from(["a", "b", "a_inv", "a_inv_b", "a_inv_a_prev"]),
    "strategy": st.sampled_from(["identity", "an", "log"]),
    "lambda": small,
    "z": real_z,
    "z_samples": st.lists(real_z, min_size=1, max_size=2),
    "alpha": alpha,
    "alphas": st.one_of(st.fixed_dictionaries({"random": st.integers(1, 3)}),
                        st.lists(alpha, min_size=1, max_size=2)),
}

# ill-typed and out-of-range values, bounded so that none asks for much work
BAD = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.integers(-1000, 1000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.one_of(st.integers(-400, 400), st.booleans(), st.floats(-5.0, 5.0)),
             max_size=5),
    st.fixed_dictionaries({"random": st.one_of(st.integers(-3, 3), st.booleans(),
                                               st.text(max_size=2))}),
)

FAMILIES = st.one_of(
    st.sampled_from(["paper-constant", "paper-unbounded", "paper-blockrepeat",
                     "paper-logweight"]),
    # tables shorter than most horizons: those analyses report an IndexError
    st.integers(1, 40).map(lambda n: {"kind": "tabulated", "a": [X_JSON] * n,
                                      "b": [Y_JSON] * n}),
)


@st.composite
def analysis(draw):
    """One analysis object and whether every key got a value it accepts."""
    kind = draw(st.sampled_from(sorted(KEYS)))
    required, optional = KEYS[kind]
    obj, valid = {"kind": kind}, True
    for key in required + optional:
        how = draw(st.sampled_from(["well", "well", "bad", "omit"]))
        if how == "omit":
            valid = valid and key in optional
        elif how == "well":
            obj[key] = draw(WELL[key])
        else:
            obj[key] = draw(BAD)
            valid = False
    if draw(st.integers(0, 9)) == 0:
        obj["bogus"] = 1
        valid = False
    return obj, valid


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(family=FAMILIES, entry=analysis(), horizon=st.integers(2, 300),
       seed=st.integers(0, 2**31))
def test_cli_exits_cleanly_on_any_analysis_values(family, entry, horizon, seed):
    obj, valid = entry
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({"family": family, "analyses": [obj],
                                   "horizon": horizon, "seed": seed}))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", str(cfg)])
    assert code in (0, 2, 3), err.getvalue()
    if valid:
        assert code == 0, err.getvalue()
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert err.getvalue().startswith("error: $"), err.getvalue()


# parameters each inline weight kind accepts; offsets 16 and up give every
# depth up to 3 positive nested logs
WEIGHT_PARAMS = {
    "constant": {"value": st.floats(0.0, 5.0)},
    "power": {"exponent": st.floats(-3.0, 3.0), "offset": st.integers(1, 5)},
    "tabulated": {"values": st.lists(st.floats(0.1, 5.0), min_size=1, max_size=40)},
    "log_product": {"depth": st.integers(0, 3), "offset": st.integers(16, 100)},
    "recip_iter_log": {"depth": st.integers(0, 3), "offset": st.integers(16, 100)},
    "block_sqrt_log": {},
    "block_recip_log": {},
}

WEIGHT = st.sampled_from(sorted(WEIGHT_KINDS)).flatmap(
    lambda kind: st.fixed_dictionaries({"kind": st.just(kind), **WEIGHT_PARAMS[kind]}))


def _weighted(x: dict, y: dict) -> dict:
    return {"kind": "scaled_periodic", "period": 1, "x": x, "y": y,
            "X": [X_JSON], "Y": [Y_JSON]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(family=st.builds(_weighted, WEIGHT, WEIGHT), entry=analysis(),
       horizon=st.integers(2, 300), seed=st.integers(0, 2**31))
# a_n that vanish or underflow to 0: the Carleman sum is +inf
@example(family=_weighted({"kind": "constant", "value": 0.0}, {"kind": "constant"}),
         entry=({"kind": "carleman"}, True), horizon=50, seed=0)
@example(family=_weighted({"kind": "power", "exponent": -400}, {"kind": "constant"}),
         entry=({"kind": "carleman"}, True), horizon=50, seed=0)
def test_cli_exits_cleanly_on_inline_weight_families(family, entry, horizon, seed):
    test_cli_exits_cleanly_on_any_analysis_values.hypothesis.inner_test(
        family, entry, horizon, seed)
