"""Tests for JSON circuit serialisation."""

import json

import pytest

from repro.errors import NetlistError
from repro.netlist import (
    graph_from_dict,
    graph_to_dict,
    load_graph,
    random_circuit,
    s27_graph,
    save_graph,
)


def _two_units(delay=1.0, area=1.0, weight=1):
    return {
        "name": "x",
        "units": [
            {"name": "a", "delay": delay, "area": area, "kind": "logic"},
            {"name": "b", "delay": 1.0, "area": 1.0, "kind": "logic"},
        ],
        "connections": [
            {"u": "a", "v": "b", "weight": 0},
            {"u": "b", "v": "a", "weight": weight},
        ],
    }


class TestRoundTrip:
    def test_s27_round_trips(self, tmp_path):
        g = s27_graph()
        path = tmp_path / "s27.json"
        save_graph(g, str(path))
        back = load_graph(str(path))
        assert back.name == g.name
        assert sorted(back.connections()) == sorted(g.connections())
        for u in g.units():
            assert back.delay(u) == g.delay(u)
            assert back.area(u) == g.area(u)
            assert back.kind(u) == g.kind(u)

    def test_parallel_connections_preserved(self):
        from repro.netlist import CircuitGraph

        g = CircuitGraph("par")
        g.add_unit("a")
        g.add_unit("b")
        g.add_connection("a", "b", weight=1)
        g.add_connection("a", "b", weight=3)
        back = graph_from_dict(graph_to_dict(g))
        weights = sorted(w for _c, w in back.connections())
        assert weights == [1, 3]

    def test_random_circuit_round_trips(self):
        g = random_circuit("rt", n_units=40, n_ffs=15, seed=3)
        back = graph_from_dict(graph_to_dict(g))
        assert back.total_flip_flops() == g.total_flip_flops()
        assert back.num_units == g.num_units

    def test_malformed_json_rejected(self):
        with pytest.raises(NetlistError, match="malformed"):
            graph_from_dict({"name": "x", "units": [{"name": "a"}]})
        # Corrupt numbers: json.loads parses NaN and Infinity, and a
        # fractional flip-flop count must not be truncated silently.
        for bad, problem in (
            (_two_units(delay=float("nan")), "non-finite delay"),
            (_two_units(delay=float("inf")), "non-finite delay"),
            (_two_units(area=float("nan")), "non-finite area"),
            (_two_units(area=float("inf")), "non-finite area"),
            (_two_units(weight=1.5), "non-integral weight"),
            (_two_units(weight=float("nan")), "non-integral weight"),
            (_two_units(weight=float("inf")), "non-integral weight"),
        ):
            with pytest.raises(NetlistError, match=problem):
                graph_from_dict(bad)

    def test_integral_numbers_accepted(self):
        import numpy as np

        for weight in (2.0, np.int64(2)):
            g = graph_from_dict(_two_units(weight=weight))
            assert sorted(w for _c, w in g.connections()) == [0, 2]

    def test_save_is_atomic_no_tmp_left(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(s27_graph(), str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["g.json"]

    def test_invalid_graph_rejected(self):
        data = {
            "name": "bad",
            "units": [
                {"name": "a", "delay": 1.0, "area": 1.0, "kind": "logic"},
                {"name": "b", "delay": 1.0, "area": 1.0, "kind": "logic"},
            ],
            "connections": [
                {"u": "a", "v": "b", "weight": 0},
                {"u": "b", "v": "a", "weight": 0},
            ],
        }
        with pytest.raises(NetlistError, match="cycle"):
            graph_from_dict(data)


class TestLoadGraphErrors:
    """Every load failure is a NetlistError naming file and problem."""

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(NetlistError, match="cannot read circuit JSON"):
            load_graph(str(path))

    def test_truncated_json_names_file(self, tmp_path):
        path = tmp_path / "cut.json"
        save_graph(s27_graph(), str(path))
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(NetlistError, match="cut.json.*not valid JSON"):
            load_graph(str(path))

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("}{ not json")
        with pytest.raises(NetlistError, match="garbage.json.*not valid JSON"):
            load_graph(str(path))

    def test_wrong_toplevel_type(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(
            NetlistError, match="list.json.*expected a JSON object.*got list"
        ):
            load_graph(str(path))

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "caf\xe9"}')
        with pytest.raises(NetlistError, match="latin1.json"):
            load_graph(str(path))

    def test_non_finite_number_names_the_file(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(_two_units(delay=float("nan"))))
        assert "NaN" in path.read_text()
        with pytest.raises(NetlistError, match="nan.json.*non-finite delay"):
            load_graph(str(path))

    def test_missing_fields_name_the_file(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"name": "x", "units": [{"name": "a"}]}')
        with pytest.raises(NetlistError, match="partial.json.*malformed"):
            load_graph(str(path))
