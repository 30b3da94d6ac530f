"""Tests for repro.obs metrics/monitor/progress/flamegraph."""

import io
import json

import pytest

from repro.obs import (
    NOOP_METRICS,
    MetricsError,
    MetricsRegistry,
    NoopTracer,
    ProgressStream,
    ResourceSampler,
    Tracer,
    folded_stacks,
    metrics_lines,
    prometheus_lines,
    read_events,
    read_metrics,
    read_trace,
    validate_events,
    validate_metrics,
    write_flamegraph,
    write_metrics,
    write_trace,
)
from repro.errors import ReproError



class FakeClock:
    """Deterministic clock: each call advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


class ScriptedSamples:
    """sample_fn stub: returns scripted (rss, cpu, gc) tuples in order,
    repeating the last one when exhausted."""

    def __init__(self, samples):
        self.samples = list(samples)
        self.i = 0

    def __call__(self):
        s = self.samples[min(self.i, len(self.samples) - 1)]
        self.i += 1
        return s


class TestMetricsRegistry:
    def test_counter_accumulates_and_rejects_decrease(self):
        reg = MetricsRegistry()
        c = reg.counter("lac_rounds_total")
        c.inc()
        c.inc(3)
        assert reg.counter("lac_rounds_total") is c
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labels_fan_out_into_series(self):
        reg = MetricsRegistry()
        reg.counter("probes", verdict="feasible").inc(2)
        reg.counter("probes", verdict="infeasible").inc()
        assert reg.counter("probes", verdict="feasible").value == 2
        assert reg.counter("probes", verdict="infeasible").value == 1
        assert len(reg.instruments) == 2

    def test_gauge_tracks_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("rss")
        g.set(10)
        g.set(50)
        g.set(20)
        assert g.value == 20
        assert g.max_value == 50

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("t", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 99.0):
            h.observe(v)
        assert h.cumulative() == [(1.0, 2), (10.0, 3), ("+Inf", 4)]
        assert h.count == 4
        assert h.sum == pytest.approx(105.2)

    def test_kind_conflict_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("ok", **{"bad-label": 1})

    def test_snapshot_flattens_with_labels(self):
        reg = MetricsRegistry()
        reg.counter("c", stage="lac").inc(2)
        reg.gauge("g").set(7)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["c{stage=lac}"] == 2
        assert snap["g"] == 7
        assert snap["h_count"] == 1
        assert snap["h_sum"] == 0.5


class TestMetricsRoundTrip:
    def _registry(self):
        reg = MetricsRegistry(meta={"circuit": "toy"})
        reg.counter("rounds_total").inc(7)
        reg.gauge("rss", proc="self").set(123.5)
        h = reg.histogram("stage_seconds", buckets=(0.1, 1.0), stage="lac")
        h.observe(0.05)
        h.observe(0.5)
        h.observe(9.0)
        return reg

    def test_round_trip_is_byte_identical(self, tmp_path):
        reg = self._registry()
        path = write_metrics(reg, tmp_path / "m.jsonl")
        doc = read_metrics(path)
        assert doc.meta == {"circuit": "toy"}
        again = "\n".join(metrics_lines(doc.to_registry())) + "\n"
        assert again == path.read_text()

    def test_document_lookup(self, tmp_path):
        path = write_metrics(self._registry(), tmp_path / "m.jsonl")
        doc = read_metrics(path)
        assert doc.get("rounds_total").value == 7
        assert doc.get("rss", proc="self").value == 123.5
        hist = doc.get("stage_seconds", stage="lac")
        assert hist.count == 3
        assert hist.buckets[-1] == ("+Inf", 3)

    def test_validate_counts_samples(self, tmp_path):
        path = write_metrics(self._registry(), tmp_path / "m.jsonl")
        assert validate_metrics(path) == 3

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other/1", "samples": 0}\n')
        with pytest.raises(MetricsError, match="repro-metrics/1"):
            read_metrics(path)

    def test_duplicate_sample_rejected(self, tmp_path):
        line = json.dumps(
            {"type": "metric", "kind": "counter", "name": "c",
             "labels": {}, "value": 1}
        )
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"schema": "repro-metrics/1", "samples": 2}\n'
            + line + "\n" + line + "\n"
        )
        with pytest.raises(MetricsError, match="duplicate"):
            read_metrics(path)

    def test_non_monotone_buckets_rejected(self, tmp_path):
        record = {
            "type": "metric", "kind": "histogram", "name": "h",
            "labels": {}, "count": 2, "sum": 1.0,
            "buckets": [[1.0, 2], [0.5, 2], ["+Inf", 2]],
        }
        path = tmp_path / "hb.jsonl"
        path.write_text(
            '{"schema": "repro-metrics/1", "samples": 1}\n'
            + json.dumps(record) + "\n"
        )
        with pytest.raises(MetricsError, match="not increasing"):
            read_metrics(path)


class TestPrometheus:
    def test_exposition_shape(self):
        reg = MetricsRegistry()
        reg.describe("rounds_total", "solver rounds")
        reg.counter("rounds_total").inc(3)
        reg.histogram("t", buckets=(1.0,), stage="lac").observe(0.5)
        text = "\n".join(prometheus_lines(reg))
        assert "# HELP rounds_total solver rounds" in text
        assert "# TYPE rounds_total counter" in text
        assert "rounds_total 3" in text
        assert 't_bucket{stage="lac",le="1"} 1' in text
        assert 't_bucket{stage="lac",le="+Inf"} 1' in text
        assert 't_count{stage="lac"} 1' in text


class TestNoopSymmetry:
    def test_noop_metrics_is_shared_and_inert(self):
        c1 = NOOP_METRICS.counter("a", x=1)
        c2 = NOOP_METRICS.gauge("b")
        c3 = NOOP_METRICS.histogram("c")
        assert c1 is c2 is c3
        c1.inc()
        c1.set(5)
        c1.observe(1.0)
        assert NOOP_METRICS.instruments == []
        assert NOOP_METRICS.snapshot() == {}
        assert NOOP_METRICS.enabled is False

    def test_noop_tracer_carries_noop_metrics(self):
        tracer = NoopTracer()
        assert tracer.metrics is NOOP_METRICS
        tracer.add_listener(object())  # accepted, ignored
        tracer.remove_listener(object())
        with tracer.span("hot") as s:
            tracer.metrics.counter("x").inc()
            s.set(y=1)
        assert tracer.spans == []

    def test_enabled_tracer_defaults_to_noop_metrics(self):
        tracer = Tracer(clock=FakeClock())
        assert tracer.metrics is NOOP_METRICS
        with tracer.span("s"):
            tracer.metrics.counter("x").inc()
        assert NOOP_METRICS.instruments == []


class TestResourceSampler:
    def test_span_attribution_on_synthetic_tree(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        sampler = ResourceSampler(
            interval=1e-6,  # every cached lookup is stale -> scripted order
            clock=clock,
            sample_fn=ScriptedSamples(
                [
                    (100, 1.0, 0),  # open root
                    (200, 2.0, 1),  # open stage
                    (150, 5.0, 3),  # close stage
                    (120, 6.0, 2),  # close root (gc went "backwards")
                ]
            ),
            stamp_min_seconds=10.0,  # short plain spans stay unstamped
        )
        tracer.add_listener(sampler)
        with tracer.span("root"):
            with tracer.span("stage", kind="stage"):
                pass
        root = next(s for s in tracer.spans if s.name == "root")
        stage = next(s for s in tracer.spans if s.name == "stage")
        # Stage: opened at rss 200, closed at 150 -> peak 200; cpu 5-2.
        assert stage.attrs["peak_rss_bytes"] == 200
        assert stage.attrs["cpu_seconds"] == pytest.approx(3.0)
        assert stage.attrs["gc_collections"] == 2
        # Root saw the 200 peak while open; negative gc delta clamps to 0.
        assert root.attrs["peak_rss_bytes"] == 200
        assert root.attrs["cpu_seconds"] == pytest.approx(5.0)
        assert root.attrs["gc_collections"] == 2
        assert sampler.peak_rss_bytes == 200

    def test_short_plain_spans_are_not_stamped(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        sampler = ResourceSampler(
            interval=1e-6,
            clock=clock,
            sample_fn=ScriptedSamples([(100, 1.0, 0)]),
            stamp_min_seconds=10.0,
        )
        tracer.add_listener(sampler)
        with tracer.span("root"):
            with tracer.span("probe"):  # 1s elapsed < 10s threshold
                pass
        probe = next(s for s in tracer.spans if s.name == "probe")
        root = next(s for s in tracer.spans if s.name == "root")
        assert "peak_rss_bytes" not in probe.attrs
        assert "peak_rss_bytes" in root.attrs  # roots always stamped

    def test_sample_once_updates_metrics_and_summary(self):
        reg = MetricsRegistry()
        sampler = ResourceSampler(
            clock=FakeClock(),
            sample_fn=ScriptedSamples([(100, 1.5, 2), (300, 2.5, 2)]),
            metrics=reg,
        )
        sampler.sample_once()
        sampler.sample_once()
        assert reg.gauge("process_rss_bytes").value == 300
        assert reg.gauge("process_rss_bytes").max_value == 300
        assert reg.counter("monitor_samples_total").value == 2
        summary = sampler.summary()
        assert summary["peak_rss_bytes"] == 300
        assert summary["cpu_seconds"] == pytest.approx(2.5)
        assert summary["samples"] == 2

    def test_cached_sample_avoids_resampling_within_half_interval(self):
        fn = ScriptedSamples([(100, 1.0, 0)])
        clock = FakeClock(step=0.0)
        clock.t = 1.0
        sampler = ResourceSampler(interval=100.0, clock=clock, sample_fn=fn)
        sampler.sample_once()
        tracer = Tracer(clock=clock)
        tracer.add_listener(sampler)
        with tracer.span("a"):
            pass
        # open + close both hit the cache: one underlying read total
        assert fn.i == 1

    def test_background_thread_takes_samples(self):
        import time

        sampler = ResourceSampler(interval=0.001)
        with sampler:
            time.sleep(0.05)
        assert sampler.samples_taken > 0
        assert sampler.peak_rss_bytes > 0

    def test_real_sources_return_plausible_values(self):
        from repro.obs.monitor import (
            read_cpu_seconds,
            read_gc_collections,
            read_rss_bytes,
        )

        assert read_rss_bytes() > 1024 * 1024  # >1 MiB for any CPython
        assert read_cpu_seconds() >= 0.0
        assert read_gc_collections() >= 0

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            ResourceSampler(interval=0.0)


class TestProgressStream:
    def _stream_run(self):
        tracer = Tracer(clock=FakeClock(), meta={"circuit": "toy"})
        reg = MetricsRegistry()
        tracer.metrics = reg
        out = io.StringIO()
        stream = ProgressStream(out, meta={"who": "test"}).attach(tracer)
        with tracer.span("plan"):
            with tracer.span("stage", kind="stage"):
                reg.counter("work").inc()
        stream.close(spans=len(tracer.spans))
        return out.getvalue()

    def test_event_stream_shape(self, tmp_path):
        text = self._stream_run()
        lines = [json.loads(l) for l in text.splitlines()]
        header = lines[0]
        assert header["schema"] == "repro-events/1"
        assert header["meta"]["circuit"] == "toy"  # tracer meta merged in
        assert header["meta"]["who"] == "test"
        types = [l["type"] for l in lines[1:]]
        # open plan, open stage, close stage, metrics snapshot, close
        # plan, run_end
        assert types == [
            "span_open", "span_open", "span_close", "metrics",
            "span_close", "run_end",
        ]
        metrics_event = lines[4]
        assert metrics_event["samples"]["work"] == 1
        assert lines[-1]["spans"] == 2

    def test_file_round_trip_validates(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text(self._stream_run())
        events = read_events(path)
        assert validate_events(path) == len(events) == 6

    def test_run_end_spans_field_is_optional(self, tmp_path):
        out = io.StringIO()
        stream = ProgressStream(out)
        stream.close()
        path = tmp_path / "e.jsonl"
        path.write_text(out.getvalue())
        (end,) = read_events(path)
        assert end["type"] == "run_end"
        assert "spans" not in end

    def test_rejects_close_of_unopened_span(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"schema": "repro-events/1", "meta": {}}\n'
            '{"type": "span_close", "t": 1.0, "span_id": 9, "name": "x",'
            ' "elapsed": 1.0, "attrs": {}}\n'
        )
        with pytest.raises(ReproError, match="never opened"):
            read_events(path)

    def test_rejects_events_after_run_end(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"schema": "repro-events/1", "meta": {}}\n'
            '{"type": "run_end", "t": 1.0}\n'
            '{"type": "run_end", "t": 2.0}\n'
        )
        with pytest.raises(ReproError, match="after run_end"):
            read_events(path)

    def test_human_renderer_depth_limits(self):
        from repro.obs import HumanProgress

        tracer = Tracer(clock=FakeClock())
        out = io.StringIO()
        human = HumanProgress(out=out, max_depth=1).attach(tracer)
        with tracer.span("plan"):
            with tracer.span("stage"):
                with tracer.span("deep"):
                    pass
        human.close(spans=len(tracer.spans))
        text = out.getvalue()
        assert "> plan" in text and "> stage" in text
        assert "deep" not in text
        assert "run complete: 3 spans" in text


class TestFlamegraph:
    def test_folded_self_times(self, tmp_path):
        clock = FakeClock(step=0.0)
        tracer = Tracer(clock=lambda: clock.t)
        with tracer.span("outer"):
            clock.t = 1.0
            with tracer.span("child"):
                clock.t = 4.0
            clock.t = 10.0
        doc = read_trace(write_trace(tracer, tmp_path / "t.jsonl"))
        stacks = dict(
            (line.rsplit(" ", 1)[0], int(line.rsplit(" ", 1)[1]))
            for line in folded_stacks(doc)
        )
        assert stacks["outer"] == 7_000_000  # 10s total - 3s child
        assert stacks["outer;child"] == 3_000_000

    def test_write_flamegraph_merges_same_stacks(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root"):
            for _ in range(3):
                with tracer.span("round"):
                    pass
        trace = write_trace(tracer, tmp_path / "t.jsonl")
        out = tmp_path / "t.folded"
        count = write_flamegraph(trace, out)
        lines = out.read_text().splitlines()
        assert count == len(lines)
        merged = [l for l in lines if l.startswith("root;round ")]
        assert len(merged) == 1  # three rounds folded into one stack


class TestInstrumentedPlanner:
    """Acceptance: full telemetry on a real (tiny) planner run."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        from repro.core import planner
        from repro.netlist import s27_graph

        base = tmp_path_factory.mktemp("obs")
        p = {
            "trace": base / "s27.trace.jsonl",
            "metrics": base / "s27.metrics.jsonl",
            "events": base / "s27.events.jsonl",
        }
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(planner, "MONITOR_INTERVAL", 0.01)
            outcome = planner.plan_interconnect(
                s27_graph(),
                seed=1,
                whitespace=0.4,
                max_iterations=1,
                floorplan_iterations=60,
                trace_path=str(p["trace"]),
                metrics_path=str(p["metrics"]),
                progress_path=str(p["events"]),
            )
        p["outcome"] = outcome
        return p

    def test_all_three_artifacts_validate(self, paths):
        from repro.obs import validate_trace

        assert validate_trace(paths["trace"]) > 0
        assert validate_metrics(paths["metrics"]) > 0
        assert validate_events(paths["events"]) > 0

    def test_prometheus_sibling_written(self, paths):
        prom = paths["metrics"].with_suffix(".prom")
        text = prom.read_text()
        assert "# TYPE" in text
        assert "process_rss_bytes" in text

    def test_solver_metrics_recorded(self, paths):
        doc = read_metrics(paths["metrics"])
        assert doc.get("lac_rounds_total").value >= 1
        assert doc.by_name("feas_probes_total")
        assert doc.by_name("stage_seconds")
        assert doc.by_name("anneal_moves_total")

    def test_monitor_stamps_root_and_wall_start(self, paths):
        tdoc = read_trace(paths["trace"])
        (root,) = tdoc.roots()
        assert root.attrs.get("peak_rss_bytes", 0) > 0
        assert root.attrs.get("cpu_seconds") is not None
        assert isinstance(tdoc.meta.get("wall_start"), float)

    def test_summarize_gains_resource_columns(self, paths):
        from repro.obs.summarize import summarize

        text = summarize(read_trace(paths["trace"]))
        assert "peak rss" in text
        assert "cpu" in text

    def test_results_identical_without_instrumentation(self, paths):
        from repro.core.planner import plan_interconnect
        from repro.netlist import s27_graph

        plain = plan_interconnect(
            s27_graph(),
            seed=1,
            whitespace=0.4,
            max_iterations=1,
            floorplan_iterations=60,
        )
        inst = paths["outcome"]
        assert plain.converged == inst.converged
        assert plain.first.t_clk == inst.first.t_clk
        assert plain.first.min_area.report.n_foa == inst.first.min_area.report.n_foa
        assert plain.first.lac.report.n_foa == inst.first.lac.report.n_foa
        assert plain.first.lac.n_wr == inst.first.lac.n_wr


class TestTable1Telemetry:
    def test_trace_dir_writes_per_circuit_artifacts_and_summary(self, tmp_path):
        from repro.experiments.circuits import get_circuit
        from repro.experiments.table1 import run_table1_resilient

        trace_dir = tmp_path / "batch"
        batch = run_table1_resilient(
            [get_circuit("s298")],
            max_iterations=1,
            plan_overrides={"floorplan_iterations": 200},
            trace_dir=str(trace_dir),
        )
        assert batch.items[0].ok
        assert validate_metrics(trace_dir / "s298.metrics.jsonl") > 0
        summary = json.loads((trace_dir / "batch_summary.json").read_text())
        assert summary["schema"] == "repro-batch-summary/1"
        assert summary["n_ok"] == 1
        (entry,) = summary["circuits"]
        assert entry["name"] == "s298"
        assert entry["wall_seconds"] > 0
        assert entry["peak_rss_bytes"] > 0

    def test_progress_requires_serial_run(self):
        from repro.experiments.table1 import run_table1_resilient

        with pytest.raises(ValueError, match="serial"):
            run_table1_resilient([], jobs=2, progress=object())


class TestCLIObs:
    def test_trace_validate_dispatches_on_schema(self, tmp_path, capsys):
        from repro.__main__ import main

        reg = MetricsRegistry()
        reg.counter("c").inc()
        mpath = tmp_path / "m.jsonl"
        write_metrics(reg, mpath)
        assert main(["trace", "validate", str(mpath)]) == 0
        assert "valid repro-metrics/1" in capsys.readouterr().out

        tracer = Tracer(clock=FakeClock())
        out = io.StringIO()
        stream = ProgressStream(out).attach(tracer)
        with tracer.span("a"):
            pass
        stream.close(spans=1)
        epath = tmp_path / "e.jsonl"
        epath.write_text(out.getvalue())
        assert main(["trace", "validate", str(epath)]) == 0
        assert "valid repro-events/1" in capsys.readouterr().out

    def test_trace_flamegraph_command(self, tmp_path, capsys):
        from repro.__main__ import main

        tracer = Tracer(clock=FakeClock())
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
        trace = write_trace(tracer, tmp_path / "t.jsonl")
        out = tmp_path / "t.folded"
        assert main(["trace", "flamegraph", str(trace), "--out", str(out)]) == 0
        assert "folded stacks" in capsys.readouterr().out
        assert "root;leaf " in out.read_text()
