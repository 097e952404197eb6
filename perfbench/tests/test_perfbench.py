"""Tests of the benchmark's own code: generators, trace arithmetic, metric names."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def _bytes(inputs):
    return {name: data for name, data in sorted(inputs.files.items())}, inputs.jobs


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_same_seed_same_bytes(name):
    assert _bytes(generate(name, 7)) == _bytes(generate(name, 7))


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_other_seed_other_bytes(name):
    a, b = generate(name, 7), generate(name, 8)
    assert (a.files, [j.argv for j in a.jobs]) != (b.files, [j.argv for j in b.jobs])


def test_generated_configs_parse():
    from blockjacobi.config import parse_config

    for name in WORKLOADS:
        for fname, data in generate(name, 3).files.items():
            parse_config(data.decode())


def _synthetic_tracer():
    """root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9]; separate op d [11, 12]."""
    t = tracing.Tracer()
    t.names = ["runner.run", "turan.limit_form", "opcore.sym", "turan.extract_periodic_limits",
               "config.parse_config"]
    t.layer_of = ["runner", "turan", "opcore", "turan", "config"]
    rows = [(0, -1, 0, 0.0, 10.0), (1, 0, 0, 1.0, 4.0), (2, 1, 0, 2.0, 3.0),
            (3, 0, 0, 5.0, 9.0), (4, -1, 1, 11.0, 12.0)]
    for nid, parent, op, start, end in rows:
        t.name_id.append(nid)
        t.parent.append(parent)
        t.op.append(op)
        t.start.append(start)
        t.end.append(end)
    return t


def test_self_times_on_nested_trace():
    t = _synthetic_tracer()
    dur = [e - s for s, e in zip(t.start, t.end)]
    assert tracing.self_times(t.parent, dur) == [3.0, 2.0, 1.0, 4.0, 1.0]
    s = tracing.summarize(t)
    assert s["layer_self_s"]["runner"] == 3.0
    assert s["layer_self_s"]["turan"] == 6.0
    assert s["layer_self_s"]["opcore"] == 1.0
    assert s["names"]["turan.extract_periodic_limits"]["incl_s"] == 4.0
    assert sum(s["layer_self_s"].values()) == 10.0 + 1.0
    halved = tracing.summarize(t, lambda a, b: (b - a) / 2)
    assert halved["layer_self_s"]["turan"] == 3.0


def test_layer_metrics_from_synthetic_trace():
    t = _synthetic_tracer()
    t.counts.update({"opcore.linalg_calls": 4, "opcore.linalg_calls.matrices": 10})
    m = tracing.layer_metrics(tracing.summarize(t), t.counts, 123, 0.5)
    assert m["opcore.calls"] == 1
    assert m["turan.form_evals"] == 1
    assert m["turan.extract_s"] == 4.0
    assert m["config.parse_s"] == 1.0
    assert m["opcore.linalg_matrices_per_call"] == 2.5
    assert m["runner.bytes_written"] == 123


def test_tracer_counts_a_small_run_and_uninstalls():
    from blockjacobi import config, coeffs, recurrence, runner, turan

    original = (recurrence.propagate, turan.propagate, coeffs.CoefficientFamily.a)
    t = tracing.Tracer()
    t.install()
    try:
        assert turan.propagate is recurrence.propagate is not original[0]
        cfg = config.parse_config({"family": "paper-constant", "horizon": 60, "analyses": [
            {"kind": "lambda_scan", "range": [-5, 10]},
            {"kind": "trajectory", "z": 1.0, "alpha": [1, 0, 0, 0]}]})
        runner.run(cfg)
    finally:
        t.uninstall()
    assert (recurrence.propagate, turan.propagate, coeffs.CoefficientFamily.a) == original
    m = tracing.layer_metrics(tracing.summarize(t), t.counts, 0, 0.0)
    assert m["recurrence.steps"] == 60
    assert m["turan.form_evals"] > 0
    assert m["config.parse_s"] > 0
    assert m["opcore.linalg_calls"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layers == run.LAYER_UNITS
    assert set(tracing.layer_metrics(tracing.summarize(tracing.Tracer()),
                                     tracing.Counter(), 0, 0.0)) == set(layers)
    work = {"invocations": [0.1, 0.2], "pass_walls": [1.0], "peak_rss_mb": 50.0}
    assert set(run.e2e_metrics([0.3], work)) == set(e2e)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_speed_meter_scales_each_stretch_by_its_sample():
    ref = worker.REFERENCE_KERNEL_S
    meter = worker.SpeedMeter()
    assert meter.scaled(1.0, 3.0) == 2.0
    for t, k in ((0.0, ref), (1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref)):
        meter.t.append(t)
        meter.busy.append(k)
        meter.k.append(k)
    # full speed until the sample at 2, half speed after; sampling time removed
    assert meter.scaled(0.5, 3.5) == pytest.approx(2.25 - 3 * ref)
    assert meter.scaled(5.0, 6.0) == pytest.approx(0.5)


def test_speed_meter_ignores_one_preempted_sample():
    ref = worker.REFERENCE_KERNEL_S
    meter = worker.SpeedMeter()
    for t, k in ((0.0, ref), (1.0, 50 * ref), (2.0, ref)):
        meter.t.append(t)
        meter.busy.append(k)
        meter.k.append(k)
    assert meter.scaled(1.0 + 50 * ref, 2.0) == pytest.approx(1.0 - 50 * ref)


def test_percentile_interpolates():
    xs = [float(i) for i in range(1, 11)]
    assert run.percentile(xs, 50.0) == 5.5
    assert run.percentile(xs, 90.0) == pytest.approx(9.1)
    assert run.percentile([2.0, 4.0], 50.0) == 3.0


def test_checks_reject_nan_and_wrong_interval():
    with pytest.raises(ValueError):
        checks.load_report('{"x": NaN}')
    lo, hi = checks.CONSTANT_INTERVAL
    good = {"intervals": [{"lo": lo, "hi": hi, "sign": "strictly_positive"}]}
    bad = {"intervals": [{"lo": lo, "hi": hi + 1e-5, "sign": "strictly_positive"}]}
    report = {"results": {"00_lambda_scan": good, "01_lambda_scan": bad,
                          "02_band": {"error": "ValueError", "message": "x"}}}
    out = checks.check_report(report, "paper-constant", {})
    assert out["00_lambda_scan"] == []
    assert out["01_lambda_scan"] and out["02_band"]
