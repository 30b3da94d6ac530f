"""Tests for the stage table ``trace summarize`` folds out of spans."""

from repro.obs import Tracer, read_trace
from repro.obs.summarize import _format_stage_table, _stage_rows, _stage_total


class FakeSpan:
    def __init__(self, name, attrs, elapsed):
        self.name = name
        self.attrs = attrs
        self.elapsed = elapsed


def _stage(name, elapsed, scope=None):
    attrs = {"kind": "stage"}
    if scope:
        attrs["scope"] = scope
    return FakeSpan(name, attrs, elapsed)


class TestStageFold:
    def test_fold_accumulates_repeated_stages(self):
        rows = {
            r.name: r
            for r in _stage_rows(
                [_stage("route", 1.0), _stage("route", 0.5), _stage("tiles", 0.25)]
            )
        }
        assert rows["route"].seconds == 1.5
        assert rows["route"].calls == 2
        assert rows["tiles"].calls == 1

    def test_total_excludes_nested_stages(self):
        rows = _stage_rows(
            [
                _stage("retime", 2.0),
                # a view into "retime", not extra time
                FakeSpan("retime/lac", {}, 1.5),
            ]
        )
        assert [r.name for r in rows] == ["retime", "retime/lac"]
        assert _stage_total(rows) == 2.0

    def test_rows_keep_first_seen_order(self):
        rows = _stage_rows([_stage("b", 1.0), _stage("a", 1.0)])
        assert [r.name for r in rows] == ["b", "a"]
        assert _stage_total(rows) == 2.0

    def test_fold_skips_structural_spans(self):
        rows = _stage_rows(
            [
                FakeSpan("plan", {}, 9.0),
                FakeSpan("iteration", {"index": 1}, 8.0),
                _stage("route", 1.0, scope="iteration 1"),
                FakeSpan("feas/probe", {"t": 2.0}, 0.5),
                FakeSpan("feas/exact", {"t": 1.5}, 0.5),
                FakeSpan("lac/round", {"round": 1}, 0.25),
            ]
        )
        assert {r.name for r in rows} == {
            "iteration 1 · route",
            "retime/lac/rounds",
        }

    def test_planner_stages_counted_exactly_once(self):
        """Each stage appears with exactly the call count of its actual
        executions."""
        from repro.core.planner import plan_interconnect
        from repro.netlist import s27_graph

        tracer = Tracer()
        outcome = plan_interconnect(
            s27_graph(),
            seed=1,
            whitespace=0.4,
            max_iterations=1,
            floorplan_iterations=60,
            tracer=tracer,
        )
        calls = {r.name: r.calls for r in _stage_rows(tracer.spans)}
        assert calls["partition"] == 1
        assert calls["floorplan"] == 1
        for stage in ("tiles", "route", "repeater", "expand", "compile",
                      "min_period", "retime"):
            assert calls[f"iteration 1 · {stage}"] == 1
        assert calls["retime/constraints"] == 1
        assert calls["retime/min_area"] == 1
        assert calls["retime/lac"] == 1
        # one row call per weighted min-area round, exactly
        assert calls["retime/lac/rounds"] == outcome.final.lac.n_wr


    def test_fixed_period_iteration_runs_no_search(self):
        """Iteration 2 retimes at iteration 1's T_clk: no min_period
        stage, and no search span under it."""
        from repro.core.planner import plan_interconnect
        from repro.experiments.circuits import load_circuit

        graph, kwargs = load_circuit("s386")
        tracer = Tracer()
        outcome = plan_interconnect(
            graph,
            max_iterations=2,
            floorplan_iterations=300,
            compile_cache="off",
            tracer=tracer,
            **kwargs,
        )
        assert len(outcome.iterations) == 2
        calls = {r.name: r.calls for r in _stage_rows(tracer.spans)}
        assert calls["iteration 1 · min_period"] == 1
        assert "iteration 2 · min_period" not in calls
        assert calls["iteration 2 · retime"] == 1
        searches = [s for s in tracer.spans if s.name == "min_period/search"]
        assert len(searches) == 1


class FakeDoc:
    def __init__(self, spans):
        self.spans = spans


class TestStageTableText:
    """The rendered table, pinned character for character."""

    def test_unmonitored_table(self):
        spans = [
            _stage("partition", 0.5),
            _stage("route", 0.25, scope="iteration 1"),
            FakeSpan("retime/lac", {}, 0.125),
            FakeSpan("lac/round", {}, 0.0625),
            FakeSpan("lac/round", {}, 0.0625),
        ]
        assert _format_stage_table(FakeDoc(spans)) == [
            "stage                  seconds  calls",
            "partition               0.500s      1",
            "iteration 1 · route     0.250s      1",
            "retime/lac              0.125s      1",
            "retime/lac/rounds       0.125s      2",
            "total                   0.750s",
        ]

    def test_monitored_table_takes_peak_not_sum(self):
        mib = 1048576
        spans = [
            FakeSpan(
                "partition",
                {"kind": "stage", "peak_rss_bytes": 50 * mib, "cpu_seconds": 0.4},
                0.5,
            ),
            FakeSpan(
                "route",
                {"kind": "stage", "scope": "iteration 1", "peak_rss_bytes": 80 * mib},
                0.25,
            ),
            FakeSpan(
                "partition",
                {"kind": "stage", "peak_rss_bytes": 60 * mib, "cpu_seconds": 0.1},
                0.5,
            ),
        ]
        assert _format_stage_table(FakeDoc(spans)) == [
            "stage                  seconds  calls   peak rss       cpu",
            "partition               1.000s      2      60.0M    0.500s",
            "iteration 1 · route     0.250s      1      80.0M         -",
            "total                   1.250s             80.0M",
        ]

    def test_no_stage_spans(self):
        assert _format_stage_table(FakeDoc([FakeSpan("plan", {}, 1.0)])) == [
            "(no stage spans)"
        ]


def test_stage_spans_cover_plan(tmp_path, capsys):
    """No wall time hides between stages: on s298 the stage spans cover
    at least 80% of the root ``plan`` span."""
    from repro.__main__ import main

    trace = tmp_path / "s298.jsonl"
    assert main(["plan", "s298", "--quick", "--trace", str(trace)]) == 0
    capsys.readouterr()
    doc = read_trace(trace)
    (plan,) = doc.roots()
    assert plan.name == "plan"
    staged = sum(s.elapsed for s in doc.spans if s.attrs.get("kind") == "stage")
    assert staged <= plan.elapsed
    assert staged >= 0.8 * plan.elapsed
