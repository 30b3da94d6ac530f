"""Tests for repro.obs: tracer, JSONL export, summarize, CLI."""

import json

import pytest

from repro.obs import (
    NOOP_TRACER,
    NoopTracer,
    TRACE_SCHEMA,
    TraceError,
    Tracer,
    read_trace,
    trace_lines,
    validate_trace,
    write_trace,
)
from repro.obs.summarize import rollup, summarize


class FakeClock:
    """Deterministic clock: each call advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


class TestTracer:
    def test_nesting_assigns_parents(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # finish order: children before parents
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_siblings_share_parent(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id
        assert a.span_id != b.span_id

    def test_attrs_events_counters(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("s", kind="stage") as span:
            span.set(status="OK")
            span.set_attr("n", 3)
            span.event("tick", value=1)
            span.count("probes")
            span.count("probes", 2)
        assert span.attrs == {"kind": "stage", "status": "OK", "n": 3}
        assert span.events[0][0] == "tick"
        assert span.events[0][2] == {"value": 1}
        assert span.counters == {"probes": 3}

    def test_exception_closes_span_and_records_error(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("broken"):
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span.end is not None
        assert span.attrs["error"] == "ValueError: boom"

    def test_current_returns_innermost_open_span(self):
        tracer = Tracer(clock=FakeClock())
        assert tracer.current.set(anything=1) is None  # no-op, no crash
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                tracer.current.set(marker=1)
        assert inner.attrs == {"marker": 1}

    def test_injectable_clock_gives_deterministic_times(self):
        tracer = Tracer(clock=FakeClock(step=0.5))
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        a = next(s for s in tracer.spans if s.name == "a")
        b = next(s for s in tracer.spans if s.name == "b")
        assert (a.start, a.end) == (0.5, 2.0)
        assert (b.start, b.end) == (1.0, 1.5)


class TestNoopTracer:
    def test_span_returns_shared_instance(self):
        s1 = NOOP_TRACER.span("a", x=1)
        s2 = NOOP_TRACER.span("b")
        assert s1 is s2
        assert s1 is NOOP_TRACER.current

    def test_noop_span_accepts_all_calls(self):
        with NOOP_TRACER.span("a", k=1) as span:
            span.set(x=1)
            span.set_attr("y", 2)
            span.event("e", z=3)
            span.count("c")
        assert span.attrs == {}
        assert span.events == []
        assert NOOP_TRACER.spans == []

    def test_enabled_flags(self):
        assert NOOP_TRACER.enabled is False
        assert NoopTracer().enabled is False
        assert Tracer().enabled is True

    def test_overhead_is_small(self):
        # Not a benchmark — an allocation-shape smoke test: the no-op
        # path must not accumulate state and must stay within a small
        # constant factor of an empty context manager.
        import time

        n = 20_000
        start = time.perf_counter()
        for _ in range(n):
            with NOOP_TRACER.span("hot", i=1) as s:
                s.set(x=2)
        elapsed = time.perf_counter() - start
        assert NOOP_TRACER.spans == []
        assert elapsed < 1.0  # ~5us/iteration is already 10x headroom


class TestExportRoundTrip:
    def _traced(self):
        tracer = Tracer(clock=FakeClock(), meta={"circuit": "toy"})
        with tracer.span("plan", circuit="toy"):
            with tracer.span("stage", kind="stage", scope="") as s:
                s.event("attempt", index=1)
                s.count("tries")
        return tracer

    def test_round_trip_preserves_structure(self, tmp_path):
        tracer = self._traced()
        path = write_trace(tracer, tmp_path / "t.jsonl")
        doc = read_trace(path)
        assert doc.meta == {"circuit": "toy"}
        assert len(doc.spans) == 2
        stage = doc.by_name("stage")[0]
        plan = doc.by_name("plan")[0]
        assert stage.parent_id == plan.span_id
        assert stage.attrs == {"kind": "stage", "scope": ""}
        assert stage.events == [("attempt", 3.0, {"index": 1})]
        assert stage.counters == {"tries": 1}
        assert doc.roots() == [plan]
        assert doc.children_of(plan) == [stage]

    def test_header_declares_schema_and_count(self, tmp_path):
        lines = list(trace_lines(self._traced()))
        header = json.loads(lines[0])
        assert header["schema"] == TRACE_SCHEMA
        assert header["spans"] == 2
        assert len(lines) == 3

    def test_deterministic_serialisation(self):
        a = "\n".join(trace_lines(self._traced()))
        b = "\n".join(trace_lines(self._traced()))
        assert a == b

    def test_numpy_attrs_serialise(self, tmp_path):
        np = pytest.importorskip("numpy")
        tracer = Tracer(clock=FakeClock())
        with tracer.span("s") as span:
            span.set(t=np.float64(1.5), n=np.int64(3), tags={"b", "a"})
        doc = read_trace(write_trace(tracer, tmp_path / "t.jsonl"))
        assert doc.spans[0].attrs == {"t": 1.5, "n": 3, "tags": ["a", "b"]}

    def test_validate_trace_counts_spans(self, tmp_path):
        path = write_trace(self._traced(), tmp_path / "t.jsonl")
        assert validate_trace(path) == 2

    def test_write_trace_of_failed_run_parses(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("plan"):
                with tracer.span("stage"):
                    raise RuntimeError("dead")
        doc = read_trace(write_trace(tracer, tmp_path / "t.jsonl"))
        assert {s.name for s in doc.spans} == {"plan", "stage"}
        assert all("error" in s.attrs for s in doc.spans)


class TestValidation:
    def _write(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceError, match="empty"):
            read_trace(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            read_trace(tmp_path / "nope.jsonl")

    def test_wrong_schema(self, tmp_path):
        path = self._write(tmp_path, ['{"schema": "other/9", "spans": 0}'])
        with pytest.raises(TraceError, match="repro-trace/1"):
            read_trace(path)

    def test_corrupt_span_line(self, tmp_path):
        path = self._write(
            tmp_path,
            [json.dumps({"schema": TRACE_SCHEMA, "spans": 1}), "{not json"],
        )
        with pytest.raises(TraceError, match="line 2"):
            read_trace(path)

    def test_missing_required_key(self, tmp_path):
        record = {"type": "span", "id": 1, "name": "x", "start": 0.0}
        path = self._write(
            tmp_path,
            [json.dumps({"schema": TRACE_SCHEMA, "spans": 1}), json.dumps(record)],
        )
        with pytest.raises(TraceError, match="'end'"):
            read_trace(path)

    def test_end_before_start(self, tmp_path):
        record = {
            "type": "span", "id": 1, "parent": None, "name": "x",
            "start": 2.0, "end": 1.0,
        }
        path = self._write(
            tmp_path,
            [json.dumps({"schema": TRACE_SCHEMA, "spans": 1}), json.dumps(record)],
        )
        with pytest.raises(TraceError, match="ends before"):
            read_trace(path)

    def test_duplicate_span_id(self, tmp_path):
        record = {
            "type": "span", "id": 1, "parent": None, "name": "x",
            "start": 0.0, "end": 1.0,
        }
        path = self._write(
            tmp_path,
            [
                json.dumps({"schema": TRACE_SCHEMA, "spans": 2}),
                json.dumps(record),
                json.dumps(record),
            ],
        )
        with pytest.raises(TraceError, match="duplicate"):
            read_trace(path)

    def test_dangling_parent(self, tmp_path):
        record = {
            "type": "span", "id": 1, "parent": 99, "name": "x",
            "start": 0.0, "end": 1.0,
        }
        path = self._write(
            tmp_path,
            [json.dumps({"schema": TRACE_SCHEMA, "spans": 1}), json.dumps(record)],
        )
        with pytest.raises(TraceError, match="unknown parent"):
            read_trace(path)

    def test_declared_count_mismatch(self, tmp_path):
        path = self._write(
            tmp_path, [json.dumps({"schema": TRACE_SCHEMA, "spans": 5})]
        )
        with pytest.raises(TraceError, match="declares 5"):
            read_trace(path)


class TestRollup:
    def test_self_time_arithmetic(self, tmp_path):
        clock = FakeClock(step=0.0)  # manual control below
        tracer = Tracer(clock=lambda: clock.t)
        with tracer.span("outer"):
            clock.t = 1.0
            with tracer.span("child"):
                clock.t = 4.0
            clock.t = 10.0
        doc = read_trace(write_trace(tracer, tmp_path / "t.jsonl"))
        rows = {r.name: r for r in rollup(doc)}
        assert rows["outer"].total == 10.0
        assert rows["child"].total == 3.0
        assert rows["outer"].self_time == 7.0  # 10 - 3
        assert rows["child"].self_time == 3.0
        assert rows["outer"].depth == 0
        assert rows["child"].depth == 1

    def test_merges_same_name_spans(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root"):
            for _ in range(3):
                with tracer.span("round"):
                    pass
        doc = read_trace(write_trace(tracer, tmp_path / "t.jsonl"))
        rows = {r.name: r for r in rollup(doc)}
        assert rows["round"].calls == 3


class TestPlannerTrace:
    """Acceptance: a traced plan run carries the convergence story."""

    @pytest.fixture(scope="class")
    def doc(self, tmp_path_factory):
        from repro.core.planner import plan_interconnect
        from repro.netlist import s27_graph

        path = tmp_path_factory.mktemp("trace") / "s27.jsonl"
        plan_interconnect(
            s27_graph(),
            seed=1,
            whitespace=0.4,
            max_iterations=1,
            floorplan_iterations=60,
            trace_path=str(path),
        )
        return read_trace(path)

    def test_every_planner_stage_has_a_span(self, doc):
        stage_names = {
            s.name for s in doc.spans if s.attrs.get("kind") == "stage"
        }
        assert {
            "partition", "floorplan", "tiles", "route", "repeater",
            "expand", "compile", "min_period", "retime",
        } <= stage_names

    def test_root_plan_span(self, doc):
        (plan,) = doc.roots()
        assert plan.name == "plan"
        assert plan.attrs["circuit"] == "s27"
        assert plan.attrs["iterations"] == 1
        assert isinstance(plan.attrs["converged"], bool)

    def test_lac_rounds_carry_convergence_attrs(self, doc):
        rounds = doc.by_name("lac/round")
        assert rounds
        for r in rounds:
            assert r.attrs["round"] >= 1
            assert r.attrs["n_foa"] >= 0
            assert r.attrs["n_f"] >= 0
            assert r.attrs["objective"] >= 0.0
            assert isinstance(r.attrs["violations"], dict)
            assert r.attrs["engine"] in ("highs", "ssp")
        lac = doc.by_name("retime/lac")[0]
        assert all(r.parent_id == lac.span_id for r in rounds)
        assert lac.attrs["n_wr"] == len(rounds)

    def test_feas_probe_spans(self, doc):
        (search,) = doc.by_name("min_period/search")
        assert search.attrs["t_min"] > 0
        assert search.attrs["n_candidates"] > 0
        probes = doc.by_name("feas/probe")
        assert probes
        for p in probes:
            assert p.attrs["t"] > 0
            assert p.attrs["verdict"] in ("feasible", "unverified", "infeasible")

    def test_anneal_and_fm_and_route_annotations(self, doc):
        (anneal,) = doc.by_name("floorplan/anneal")
        assert 0.0 <= anneal.attrs["acceptance_rate"] <= 1.0
        assert anneal.attrs["best_cost"] <= anneal.attrs["initial_cost"]
        for fm in doc.by_name("partition/fm"):
            assert fm.attrs["final_cut"] <= fm.attrs["initial_cut"]
        (route,) = doc.by_name("route/global")
        assert route.attrs["nets"] >= 0
        assert route.attrs["wirelength_tiles"] >= 0

    def test_iteration_span_wraps_stages(self, doc):
        (it,) = doc.by_name("iteration")
        assert it.attrs["index"] == 1
        scoped = [s for s in doc.spans if s.attrs.get("scope") == "iteration 1"]
        assert all(s.parent_id == it.span_id for s in scoped)
        assert scoped

    def test_summarize_renders_all_sections(self, doc):
        text = summarize(doc)
        assert "plan s27" in text
        assert "LAC convergence" in text
        assert "min-period search" in text
        (search,) = doc.by_name("min_period/search")
        assert search.attrs["engine"] in ("feas", "bellman-ford", "cache")
        assert f"engine={search.attrs['engine']}," in text
        assert "prober=" not in text
        assert "floorplan anneal" in text
        assert "stage" in text and "seconds" in text

    def test_stage_table_lists_every_folded_row(self, doc):
        # The stage table renders one line per row of the span fold,
        # with that row's wall time and call count.
        from repro.obs.summarize import _stage_rows

        lines = summarize(doc).splitlines()
        rows = _stage_rows(doc.spans)
        assert rows
        for row in rows:
            assert any(
                line.startswith(row.name)
                and f"{row.seconds:>8.3f}s  {row.calls:>5}" in line
                for line in lines
            ), row.name


class TestCLI:
    def test_plan_trace_validate_summarize(self, tmp_path, capsys):
        from repro.__main__ import main

        trace = tmp_path / "out.jsonl"
        rc = main(["plan", "s27", "--quick", "--trace", str(trace)])
        assert rc == 0
        assert trace.exists()
        capsys.readouterr()

        assert main(["trace", "validate", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "valid repro-trace/1" in out

        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "plan s27" in out
        assert "LAC convergence" in out

    def test_trace_validate_rejects_garbage(self, tmp_path, capsys):
        from repro.__main__ import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": "nope"}\n')
        assert main(["trace", "validate", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_verbose_flag_configures_logging(self, tmp_path, capsys):
        import logging

        from repro.__main__ import main

        root = logging.getLogger()
        before = list(root.handlers)
        try:
            rc = main(["-v", "trace", "validate", str(tmp_path / "x")])
            assert rc == 2
        finally:
            for h in root.handlers[:]:
                if h not in before:
                    root.removeHandler(h)
