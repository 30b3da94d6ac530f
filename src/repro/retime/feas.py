"""Arrival times: the longest register-free path delay into each unit.

This is the inner step of Leiserson & Saxe's FEAS algorithm and the
basis of the planner's timing reports. The production feasibility
probe (:mod:`repro.retime.feas_probe`) vectorises the same recurrence;
classic host-contracted FEAS lives on as a test oracle in
``tests/oracles/feas.py``, which reuses :func:`_arrival` here.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

from repro.errors import RetimingError
from repro.netlist.graph import CircuitGraph


class ContractedCycleError(RetimingError):
    """The register-free subgraph is cyclic, so arrival times are
    undefined (for host-contracted FEAS: a combinational I/O path with
    unregistered hosts)."""


def _arrival(
    n: int,
    edges: List[Tuple[int, int, int]],
    delays: List[float],
    labels: List[int],
) -> List[float]:
    """Longest register-free path delay per vertex (endpoint included).

    Raises :class:`ContractedCycleError` if the zero-weight subgraph is
    cyclic.
    """
    zero_out: List[List[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v, w in edges:
        if w + labels[v] - labels[u] == 0:
            zero_out[u].append(v)
            indeg[v] += 1
    delta = list(delays)
    queue = deque(i for i in range(n) if indeg[i] == 0)
    visited = 0
    while queue:
        u = queue.popleft()
        visited += 1
        for v in zero_out[u]:
            cand = delta[u] + delays[v]
            if cand > delta[v]:
                delta[v] = cand
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if visited != n:
        raise ContractedCycleError("zero-weight cycle in (host-contracted) graph")
    return delta


def arrival_times(graph: CircuitGraph) -> Dict[str, float]:
    """Longest register-free path delay into each unit (no contraction).

    Raises :class:`RetimingError` on a combinational cycle.
    """
    units = list(graph.units())
    index = {v: i for i, v in enumerate(units)}
    edges = [
        (index[u], index[v], w) for (u, v, _k), w in graph.connections()
    ]
    delays = [graph.delay(v) for v in units]
    try:
        delta = _arrival(len(units), edges, delays, [0] * len(units))
    except ContractedCycleError as exc:
        raise RetimingError("combinational (zero-weight) cycle") from exc
    return dict(zip(units, delta))
