"""Tests for the ISCAS89 .bench parser and graph conversion."""

import pytest

from repro.errors import BenchParseError
from repro.netlist import (
    HOST_SNK,
    HOST_SRC,
    bench_to_graph,
    load_bench,
    parse_bench_text,
    s27_graph,
)

SIMPLE = """
# tiny circuit
INPUT(a)
OUTPUT(y)
b = DFF(x)
x = NAND(a, b)
y = NOT(x)
"""


class TestParser:
    def test_parses_sections(self):
        netlist = parse_bench_text(SIMPLE, name="tiny")
        assert netlist.inputs == ["a"]
        assert netlist.outputs == ["y"]
        assert set(netlist.gates) == {"x", "y"}
        assert netlist.dffs == {"b": "x"}

    def test_comments_and_blanks_ignored(self):
        netlist = parse_bench_text("# only a comment\n\nINPUT(z)\n")
        assert netlist.inputs == ["z"]

    def test_bad_line_raises_with_location(self):
        with pytest.raises(BenchParseError, match=":2"):
            parse_bench_text("INPUT(a)\nthis is not bench\n")

    def test_double_driver_rejected(self):
        text = "INPUT(a)\nx = NOT(a)\nx = NOT(a)\n"
        with pytest.raises(BenchParseError, match="driven twice"):
            parse_bench_text(text)

    def test_unknown_gate_rejected(self):
        with pytest.raises(BenchParseError, match="unknown gate"):
            parse_bench_text("INPUT(a)\nx = FROB(a)\n")

    def test_multi_input_dff_rejected(self):
        with pytest.raises(BenchParseError, match="DFF"):
            parse_bench_text("INPUT(a)\nINPUT(b)\nx = DFF(a, b)\n")


class TestGraphConversion:
    def test_dff_becomes_edge_weight(self):
        g = bench_to_graph(parse_bench_text(SIMPLE))
        weights = {cid[:2]: w for cid, w in g.connections()}
        # b = DFF(x) feeds gate x itself: edge x -> x carries one FF.
        assert weights[("x", "x")] == 1
        assert g.total_flip_flops() == 1

    def test_hosts_attached(self):
        g = bench_to_graph(parse_bench_text(SIMPLE))
        assert HOST_SRC in g
        assert HOST_SNK in g
        assert "a" in g.fanout(HOST_SRC)
        assert HOST_SNK in g.fanout("y")

    def test_chained_dffs_accumulate(self):
        text = """
        INPUT(a)
        OUTPUT(q2)
        q1 = DFF(a)
        q2 = DFF(q1)
        z = NOT(q2)
        OUTPUT(z)
        """
        g = bench_to_graph(parse_bench_text(text))
        weights = {cid[:2]: w for cid, w in g.connections()}
        assert weights[("a", "z")] == 2
        # q2 output: two FFs between input a and the sink host.
        assert weights[("a", HOST_SNK)] == 2

    def test_pure_dff_cycle_rejected(self):
        text = "INPUT(a)\nq1 = DFF(q2)\nq2 = DFF(q1)\nz = NOT(q1)\nOUTPUT(z)\n"
        with pytest.raises(BenchParseError, match="DFF cycle"):
            bench_to_graph(parse_bench_text(text))

    def test_undriven_net_rejected(self):
        text = "INPUT(a)\nz = NOT(ghost)\nOUTPUT(z)\n"
        with pytest.raises(BenchParseError, match="never driven"):
            bench_to_graph(parse_bench_text(text))

    def test_custom_delays(self):
        g = bench_to_graph(parse_bench_text(SIMPLE), delays={"NOT": 9.0})
        assert g.delay("y") == 9.0


class TestS27:
    def test_s27_shape(self):
        g = s27_graph()
        # 4 inputs + 10 gates + 2 hosts.
        assert g.num_units == 16
        assert g.total_flip_flops() == 3
        g.validate()

    def test_s27_has_registered_cycles(self):
        g = s27_graph()
        weights = {cid[:2]: w for cid, w in g.connections()}
        assert weights[("G10", "G11")] == 1  # through DFF G5


class TestLoadBench(object):
    def test_roundtrip_via_file(self, tmp_path):
        path = tmp_path / "tiny.bench"
        path.write_text(SIMPLE)
        g = load_bench(str(path), name="tiny")
        assert g.name == "tiny"
        assert g.total_flip_flops() == 1

    def test_missing_file_names_the_file(self, tmp_path):
        path = tmp_path / "nope.bench"
        with pytest.raises(BenchParseError, match="nope.bench"):
            load_bench(str(path))

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.bench"
        path.write_bytes(b"# caf\xe9\nINPUT(a)\n")
        with pytest.raises(BenchParseError, match="latin1.bench"):
            load_bench(str(path))


class TestBenchWriter:
    def test_round_trip(self):
        from repro.netlist import parse_bench_text, write_bench_text

        original = parse_bench_text(SIMPLE, name="tiny")
        back = parse_bench_text(write_bench_text(original), name="tiny")
        assert back.inputs == original.inputs
        assert back.outputs == original.outputs
        assert back.gates == original.gates
        assert back.dffs == original.dffs

    def test_retimed_netlist_exports(self, tmp_path):
        from repro.netlist import (
            parse_bench_text,
            retime_bench,
            save_bench,
            load_bench,
        )
        from repro.netlist.s27 import S27_BENCH

        netlist = parse_bench_text(S27_BENCH, name="s27")
        transformed = retime_bench(netlist, {"G10": 1})
        path = tmp_path / "s27_retimed.bench"
        save_bench(transformed, str(path))
        graph = load_bench(str(path))
        graph.validate()
