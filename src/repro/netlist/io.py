"""JSON serialisation for retiming graphs.

``.bench`` files carry logic functions, which a retiming graph does not
retain (only delays, areas, kinds and flip-flop weights matter here),
so round-tripping a graph needs its own format. The JSON schema is
deliberately boring::

    {
      "name": "s386",
      "units": [{"name": "u0", "delay": 1.0, "area": 16.0, "kind": "logic"}, ...],
      "connections": [{"u": "u0", "v": "u1", "weight": 2}, ...]
    }

Parallel connections appear as repeated entries; insertion order is
preserved, so a dump/load round trip reproduces connection ids.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.errors import NetlistError
from repro.ioutil import atomic_write
from repro.netlist.graph import CircuitGraph


def graph_to_dict(graph: CircuitGraph) -> Dict[str, Any]:
    """Plain-dict form of a graph (JSON-ready)."""
    return {
        "name": graph.name,
        "units": [
            {
                "name": u,
                "delay": graph.delay(u),
                "area": graph.area(u),
                "kind": graph.kind(u),
            }
            for u in graph.units()
        ],
        "connections": [
            {"u": u, "v": v, "weight": w}
            for (u, v, _k), w in graph.connections()
        ],
    }


def graph_from_dict(data: Dict[str, Any]) -> CircuitGraph:
    """Rebuild a graph from :func:`graph_to_dict` output."""
    try:
        graph = CircuitGraph(data["name"])
        for unit in data["units"]:
            graph.add_unit(
                unit["name"],
                delay=unit["delay"],
                area=unit["area"],
                kind=unit["kind"],
            )
        for conn in data["connections"]:
            graph.add_connection(conn["u"], conn["v"], weight=conn["weight"])
    except (KeyError, TypeError) as exc:
        raise NetlistError(f"malformed circuit JSON: {exc}") from exc
    graph.validate()
    return graph


def save_graph(graph: CircuitGraph, path: str) -> None:
    """Write a graph to ``path`` as JSON (atomically: a kill mid-write
    leaves the previous file, never a truncated one)."""
    atomic_write(path, json.dumps(graph_to_dict(graph), indent=1))


def load_graph(path: str) -> CircuitGraph:
    """Read a graph written by :func:`save_graph`.

    Raises:
        NetlistError: The file is unreadable, not UTF-8 text, not
            valid JSON (truncated or garbled), not a JSON object, or
            missing required fields — always naming the file and the
            problem, never leaking a raw ``JSONDecodeError``/``KeyError``.
    """
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise NetlistError(f"cannot read circuit JSON {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetlistError(
            f"{path}: not valid JSON (truncated or garbled file?): {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise NetlistError(
            f"{path}: expected a JSON object with units/connections, "
            f"got {type(data).__name__}"
        )
    try:
        return graph_from_dict(data)
    except NetlistError as exc:
        raise NetlistError(f"{path}: {exc}") from exc
