"""Tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench -q

They need neither the planner nor a daemon: every input is synthetic.
"""

from __future__ import annotations

import json
import math
import types
from pathlib import Path

import pytest

import host
import layers
from run import END_TO_END, PER_LAYER, WORKLOADS
from stats import (
    RESULT_FIELDS,
    Gate,
    geomean,
    iqr_share,
    percentile,
    reportable_percentile,
    split_job,
    suite_summary,
)

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
     (199, 90), (200, 95), (999, 95), (1000, 99)],
)
def test_reportable_percentile_needs_ten_samples_beyond(n, expected):
    assert reportable_percentile(n) == expected


def test_percentile_interpolates_between_order_statistics():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([4, 1, 3, 2], 75) == 3.25
    assert percentile([7.0], 75) == 7.0


def test_plan_and_suite_come_from_per_circuit_medians():
    samples = {"a": [1.0, 4.0, 2.0], "b": [8.0], "c": [3.0, 5.0]}
    plan_s, suite_s = suite_summary(samples)  # medians 2, 8, 4
    assert plan_s == pytest.approx(4.0)
    assert suite_s == pytest.approx(14.0)
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_split_job_record_into_phases():
    record = {
        "schema": "repro-job/1",
        "id": "j00000007-0a1b2c3d",
        "state": "done",
        "created": 100.0,
        "updated": 110.5,
        "worker": None,
        "result": {"seconds": 6.0},
    }
    phases = split_job(record, started=103.0)
    assert phases == {
        "latency_s": 10.5,
        "queue_wait_s": 3.0,
        "spawn_s": 1.5,
        "plan_s": 6.0,
    }
    assert phases["queue_wait_s"] + phases["spawn_s"] + phases["plan_s"] == phases["latency_s"]


def _reference():
    return json.loads((HERE / "reference.json").read_text())["circuits"]


def test_reference_result_passes_and_perturbed_reference_fails():
    reference = _reference()
    result = dict(reference["s298"])
    gate = Gate(reference)
    assert gate.record("s298", result, verified=True)
    assert gate.ok_ratio == 1.0

    perturbed = json.loads(json.dumps(reference))
    perturbed["s298"]["t_clk"] = math.nextafter(perturbed["s298"]["t_clk"], math.inf)
    gate = Gate(perturbed)
    assert gate.record("s386", dict(reference["s386"]), verified=True)
    assert not gate.record("s298", result, verified=True)
    assert gate.ok_ratio == 0.5
    assert gate.failures == {"reference_mismatch:s298": 1}


def test_gate_counts_repeat_mismatch_certificate_and_errors():
    gate = Gate()
    base = {k: 1 for k in RESULT_FIELDS}
    assert gate.record("x", base, verified=True)
    assert gate.record("x", dict(base), verified=True)
    assert not gate.record("x", dict(base, n_foa=2), verified=True)
    assert not gate.record("y", base, verified=False)
    gate.fail("shed:429")
    assert gate.attempted == 5
    assert gate.failed == 3
    assert set(gate.failures) == {"repeat_mismatch:x", "verify_failed:y", "shed:429"}
    assert gate.ok_ratio == pytest.approx(0.4)


def test_reference_covers_every_circuit_a_workload_plans():
    reference = _reference()
    circuits = {name.split(".")[0] for name, *_ in PER_LAYER if name.startswith("s")}
    circuits.discard("serve")
    assert circuits == set(reference)
    for fields in reference.values():
        assert set(fields) == set(RESULT_FIELDS)


def test_iqr_share():
    values = [float(v) for v in range(1, 11)]  # quartiles 2.75, 8.25
    assert iqr_share(values) == pytest.approx(5.5 / 5.5)


def test_benchmark_json_matches_the_metrics_run_py_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


class _Clock:
    def __init__(self):
        self.now = 0.0

    def process_time(self):
        return self.now


def test_layer_trace_records_self_time_and_counts(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(layers, "time", clock)
    owner = types.SimpleNamespace()

    def inner():
        clock.now += 2.0
        return [1, 2, 3]

    def outer():
        clock.now += 1.0
        owner.inner()
        clock.now += 4.0
        return "done"

    owner.inner, owner.outer = inner, outer
    trace = layers.LayerTrace()
    trace._wrap(owner, "inner", "constraints", lambda _a, r: {"constraints.count": len(r)})
    trace._wrap(owner, "outer", "lac")
    assert owner.outer() == "done"
    seconds, counts = trace.take()
    assert seconds == {"lac": 5.0, "constraints": 2.0}
    assert counts == {"constraints.count": 3}
    assert trace.take() == ({}, {})
    trace.uninstall()
    assert owner.inner is inner and owner.outer is outer


def test_job_trace_layer_self_time():
    def span(id_, name, parent, start, end, **attrs):
        return json.dumps({"type": "span", "id": id_, "name": name, "parent": parent,
                           "start": start, "end": end, "attrs": attrs})

    lines = [
        json.dumps({"schema": "repro-trace/1", "meta": {}, "spans": 7}),
        span(1, "plan", None, 0.0, 10.0, peak_rss_bytes=300),
        span(2, "iteration", 1, 1.0, 9.0),
        span(3, "compile", 2, 1.0, 3.0, peak_rss_bytes=200),
        span(4, "min_period", 2, 3.0, 6.0),
        span(5, "min_period/search", 4, 3.0, 5.5),
        span(6, "verify", 1, 9.0, 10.0),
        span(7, "verify/period", 6, 9.0, 9.5),
    ]
    seconds, plan_wall, peak = layers.trace_layer_seconds(lines)
    assert seconds == {"compile": 2.0, "min_period": 3.0, "verify": 1.0}
    assert plan_wall == 10.0
    assert peak == 300


def test_steal_share_and_host_speed_factor(monkeypatch):
    # user nice system idle iowait irq softirq steal guest guest_nice
    before = [100, 0, 50, 800, 10, 0, 0, 40, 0, 0]
    after = [170, 0, 70, 880, 10, 0, 0, 70, 30, 0]
    # 200 jiffies from user to steal, 30 of them stolen; guest time is
    # already counted in user, so it is not added again.
    assert host.steal_ratio(before, after) == pytest.approx(0.15)
    assert host.steal_ratio(None, after) == 0.0

    slices = iter([0.050, 0.020, 0.040, 0.060])  # the first one is discarded
    monkeypatch.setattr(host, "calibration_slice", lambda: next(slices))
    speed = host.HostSpeed()
    speed.sample(3)
    assert speed.slice_s == pytest.approx(0.040)
    assert speed.scale == pytest.approx(host.REF_SLICE_S / 0.040)
