"""Period-feasibility references.

* :func:`feasible_labels` — any integral solution of a
  difference-constraint system, by networkx Bellman–Ford from a
  virtual source (the textbook construction);
* :func:`constraint_feasible_labels` — "is ``period`` achievable?"
  answered through explicit edge + clocking constraint objects and
  :func:`feasible_labels`; the auditable counterpart of
  :func:`repro.retime.minperiod.is_feasible_period`;
* :func:`feas_labels` — Leiserson & Saxe's FEAS on a host-contracted
  view of the circuit. Contracting the split hosts is sound but can be
  conservative on open circuits, and it can create a zero-weight cycle
  when the circuit has a combinational input-to-output path; that case
  falls back to :func:`constraint_feasible_labels`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx

from repro.errors import InfeasiblePeriodError
from repro.netlist.graph import CircuitGraph
from repro.retime.constraints import Constraint, build_constraint_system
from repro.retime.feas import ContractedCycleError, _arrival
from repro.retime.minarea import normalise_labels
from repro.retime.wd import WDMatrices, wd_matrices

_EPS = 1e-9

#: Virtual Bellman–Ford source; never collides with a unit name.
_SOURCE = object()

#: Synthetic name of the contracted host vertex.
_CONTRACTED = "__feas_host__"


def _constraint_digraph(constraints: Iterable[Constraint]) -> nx.DiGraph:
    """``r(u) - r(v) <= b`` as arc ``v -> u`` of weight ``b`` (tightest
    bound per pair)."""
    g = nx.DiGraph()
    for c in constraints:
        g.add_node(c.u)
        g.add_node(c.v)
        if g.has_edge(c.v, c.u):
            if c.bound < g.edges[c.v, c.u]["weight"]:
                g.edges[c.v, c.u]["weight"] = c.bound
        else:
            g.add_edge(c.v, c.u, weight=c.bound)
    return g


def feasible_labels(
    constraints: Iterable[Constraint],
) -> Optional[Dict[str, int]]:
    """Any integral solution of the constraints, or ``None`` if infeasible."""
    g = _constraint_digraph(constraints)
    nodes = list(g.nodes)
    g.add_node(_SOURCE)
    g.add_weighted_edges_from((_SOURCE, v, 0) for v in nodes)
    try:
        dist = nx.single_source_bellman_ford_path_length(g, _SOURCE)
    except nx.NetworkXUnbounded:
        return None
    return {v: int(dist[v]) for v in nodes}


def constraint_feasible_labels(
    graph: CircuitGraph, period: float, wd: Optional[WDMatrices] = None
) -> Optional[Dict[str, int]]:
    """Labels achieving ``period`` (hosts at 0) via constraint objects."""
    if wd is None:
        wd = wd_matrices(graph)
    if wd.max_vertex_delay() > period:
        return None
    try:
        system = build_constraint_system(graph, wd, period, prune=False)
    except InfeasiblePeriodError:
        return None
    labels = feasible_labels(system.constraints)
    if labels is None:
        return None
    labels = {v: labels.get(v, 0) for v in graph.units()}
    return normalise_labels(graph, labels)


def _contracted_view(
    graph: CircuitGraph,
) -> Tuple[List[str], Dict[str, int], List[Tuple[int, int, int]], List[float]]:
    """Vertices, index, edges ``(u, v, w)`` and delays with hosts merged."""
    hosts = set(graph.host_units())
    units = [v for v in graph.units() if v not in hosts]
    if hosts:
        units.append(_CONTRACTED)
    index = {v: i for i, v in enumerate(units)}

    def idx(v: str) -> int:
        return index[_CONTRACTED] if v in hosts else index[v]

    edges = [
        (idx(u), idx(v), w)
        for (u, v, _k), w in graph.connections()
        if not (u in hosts and v in hosts)
    ]
    delays = [0.0 if v == _CONTRACTED else graph.delay(v) for v in units]
    return units, index, edges, delays


def feas_labels(
    graph: CircuitGraph,
    period: float,
    max_iterations: Optional[int] = None,
    on_cycle_fallback: bool = True,
) -> Optional[Dict[str, int]]:
    """A retiming achieving ``period`` (hosts at 0), or ``None``.

    Repeats up to ``|V| - 1`` times: compute arrival times on the
    retimed graph and increment ``r(v)`` for every vertex whose arrival
    exceeds ``period``; accept iff the final arrivals meet it. When host
    contraction yields a zero-weight cycle and ``on_cycle_fallback`` is
    set, :func:`constraint_feasible_labels` answers instead (split hosts
    kept, exact); otherwise :class:`ContractedCycleError` propagates.
    """
    units, index, edges, delays = _contracted_view(graph)
    n = len(units)
    labels = [0] * n
    iterations = max_iterations if max_iterations is not None else max(1, n - 1)
    try:
        for _ in range(iterations):
            delta = _arrival(n, edges, delays, labels)
            violating = [i for i in range(n) if delta[i] > period + _EPS]
            if not violating:
                break
            for i in violating:
                labels[i] += 1
        delta = _arrival(n, edges, delays, labels)
    except ContractedCycleError:
        if not on_cycle_fallback:
            raise
        return constraint_feasible_labels(graph, period)
    if any(d > period + _EPS for d in delta):
        return None

    hosts = set(graph.host_units())
    shift = labels[index[_CONTRACTED]] if hosts else 0
    out = {v: labels[i] - shift for v, i in index.items() if v != _CONTRACTED}
    for h in hosts:
        out[h] = 0
    return out
