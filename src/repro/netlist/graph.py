"""The retiming graph: the central data structure of the library.

A sequential circuit is modelled, after Leiserson & Saxe, as a directed
graph ``G(V, E)`` in which each vertex is a *functional unit* with a
fixed combinational delay and each edge carries a non-negative integer
weight — the number of flip-flops on that connection. This module adds
the extensions the paper needs on top of the classic model:

* every vertex carries an *area* (functional units occupy floorplan
  capacity) and a *kind* (``logic``, ``interconnect`` or ``host``);
* interconnect units (Section 3.2 of the paper) are ordinary vertices
  with ``kind == "interconnect"`` and zero area — they model buffered
  wire segments and may receive relocated flip-flops;
* a *split host* models the environment: primary inputs are driven by
  the source host ``HOST_SRC`` and primary outputs feed the sink host
  ``HOST_SNK``. Retimings must keep ``r == 0`` on both so that I/O
  timing is preserved. Splitting the host (rather than using the single
  host vertex of Leiserson & Saxe) keeps the graph free of zero-weight
  cycles even when the circuit has combinational input-to-output paths,
  which is what makes the W/D matrices well defined on the ISCAS89
  netlists the paper evaluates.

Parallel connections between the same pair of units are allowed (a
netlist can wire two distinct signals between the same units), so
connections are identified by ``(u, v, key)`` triples.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Mapping, Optional, Tuple

import networkx as nx

from repro.errors import NetlistError

HOST_SRC = "__src__"
HOST_SNK = "__snk__"

LOGIC = "logic"
INTERCONNECT = "interconnect"
HOST_KIND = "host"

_VALID_KINDS = frozenset({LOGIC, INTERCONNECT, HOST_KIND})

ConnectionId = Tuple[str, str, int]


class CircuitGraph:
    """A weighted retiming graph with unit delays, areas and kinds.

    The graph may be built incrementally with :meth:`add_unit` and
    :meth:`add_connection`, or copied/derived from existing graphs.
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._g = nx.MultiDiGraph()
        # Cached weakly-connected components (topology-only; weight
        # edits don't invalidate). LAC re-normalises labels on a
        # structurally identical graph every round, so this is hot.
        self._wcc_cache: Optional[List[frozenset]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_unit(
        self,
        unit: str,
        delay: float = 1.0,
        area: float = 1.0,
        kind: str = LOGIC,
    ) -> str:
        """Add a functional, interconnect or host unit.

        Raises :class:`NetlistError` on duplicate names, negative or
        non-finite delay or area, or an unknown kind.
        """
        if unit in self._g:
            raise NetlistError(f"duplicate unit {unit!r}")
        if delay < 0:
            raise NetlistError(f"unit {unit!r} has negative delay {delay}")
        if not math.isfinite(delay):
            raise NetlistError(f"unit {unit!r} has non-finite delay {delay}")
        if area < 0:
            raise NetlistError(f"unit {unit!r} has negative area {area}")
        if not math.isfinite(area):
            raise NetlistError(f"unit {unit!r} has non-finite area {area}")
        if kind not in _VALID_KINDS:
            raise NetlistError(f"unit {unit!r} has unknown kind {kind!r}")
        self._g.add_node(unit, delay=float(delay), area=float(area), kind=kind)
        self._wcc_cache = None
        return unit

    def ensure_hosts(self) -> Tuple[str, str]:
        """Add the source/sink host vertices if missing; return their names."""
        for host in (HOST_SRC, HOST_SNK):
            if host not in self._g:
                self._g.add_node(host, delay=0.0, area=0.0, kind=HOST_KIND)
                self._wcc_cache = None
        return HOST_SRC, HOST_SNK

    def add_connection(self, u: str, v: str, weight: int = 0) -> ConnectionId:
        """Connect ``u -> v`` with ``weight`` flip-flops; return its id.

        Raises :class:`NetlistError` on an unknown endpoint or a
        negative or non-integral weight (``2.0`` is integral).
        """
        for endpoint in (u, v):
            if endpoint not in self._g:
                raise NetlistError(f"unknown unit {endpoint!r}")
        if weight < 0:
            raise NetlistError(f"connection {u!r}->{v!r} has negative weight {weight}")
        _check_integral(weight, f"connection {u!r}->{v!r}")
        key = self._g.add_edge(u, v, weight=int(weight))
        self._wcc_cache = None
        return (u, v, key)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def has_host(self) -> bool:
        return HOST_SRC in self._g or HOST_SNK in self._g

    def host_units(self) -> List[str]:
        """All host-kind vertices present in the graph."""
        return [v for v, k in self._g.nodes(data="kind") if k == HOST_KIND]

    def units(self) -> Iterator[str]:
        """All unit names, including the host if present."""
        return iter(self._g.nodes)

    def logic_units(self) -> Iterator[str]:
        return (v for v, k in self._g.nodes(data="kind") if k == LOGIC)

    def interconnect_units(self) -> Iterator[str]:
        return (v for v, k in self._g.nodes(data="kind") if k == INTERCONNECT)

    def connections(self) -> Iterator[Tuple[ConnectionId, int]]:
        """Yield ``((u, v, key), weight)`` for every connection."""
        for u, v, key, w in self._g.edges(keys=True, data="weight"):
            yield (u, v, key), w

    def connection_ids(self) -> Iterator[ConnectionId]:
        for u, v, key in self._g.edges(keys=True):
            yield (u, v, key)

    def weight(self, cid: ConnectionId) -> int:
        u, v, key = cid
        return self._g.edges[u, v, key]["weight"]

    def set_weight(self, cid: ConnectionId, weight: int) -> None:
        if weight < 0:
            raise NetlistError(f"connection {cid} assigned negative weight {weight}")
        _check_integral(weight, f"connection {cid}")
        u, v, key = cid
        self._g.edges[u, v, key]["weight"] = int(weight)

    def delay(self, unit: str) -> float:
        return self._g.nodes[unit]["delay"]

    def area(self, unit: str) -> float:
        return self._g.nodes[unit]["area"]

    def kind(self, unit: str) -> str:
        return self._g.nodes[unit]["kind"]

    def fanin(self, unit: str) -> List[str]:
        return list(self._g.predecessors(unit))

    def fanout(self, unit: str) -> List[str]:
        return list(self._g.successors(unit))

    def in_connections(self, unit: str) -> Iterator[Tuple[ConnectionId, int]]:
        for u, v, key, w in self._g.in_edges(unit, keys=True, data="weight"):
            yield (u, v, key), w

    def out_connections(self, unit: str) -> Iterator[Tuple[ConnectionId, int]]:
        for u, v, key, w in self._g.out_edges(unit, keys=True, data="weight"):
            yield (u, v, key), w

    def in_degree(self, unit: str) -> int:
        return self._g.in_degree(unit)

    def out_degree(self, unit: str) -> int:
        return self._g.out_degree(unit)

    @property
    def num_units(self) -> int:
        return self._g.number_of_nodes()

    @property
    def num_connections(self) -> int:
        return self._g.number_of_edges()

    def total_flip_flops(self) -> int:
        """Total flip-flop count ``N(G) = sum of edge weights``."""
        return sum(w for _, w in self.connections())

    def total_delay(self) -> float:
        return sum(d for _, d in self._g.nodes(data="delay"))

    def has_unit(self, unit: str) -> bool:
        return unit in self._g

    def __contains__(self, unit: str) -> bool:
        return unit in self._g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitGraph({self.name!r}, units={self.num_units}, "
            f"connections={self.num_connections}, ffs={self.total_flip_flops()})"
        )

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "CircuitGraph":
        out = CircuitGraph(name or self.name)
        out._g = self._g.copy()
        out._wcc_cache = self._wcc_cache  # same topology; frozensets shared
        return out

    def retimed(self, labels: Mapping[str, int], name: Optional[str] = None) -> "CircuitGraph":
        """Return a new graph with weights ``w_r(e) = w(e) + r(v) - r(u)``.

        Raises :class:`NetlistError` if any retimed weight would be
        negative or if any host label is nonzero.
        """
        for host in self.host_units():
            if labels.get(host, 0) != 0:
                raise NetlistError(f"retiming must keep r({host}) == 0")
        out = self.copy(name or f"{self.name}_retimed")
        for (u, v, key), w in self.connections():
            wr = w + labels.get(v, 0) - labels.get(u, 0)
            if wr < 0:
                raise NetlistError(
                    f"retiming makes connection {u!r}->{v!r} weight negative ({wr})"
                )
            out._g.edges[u, v, key]["weight"] = wr
        return out

    def weakly_connected_components(self) -> List[frozenset]:
        """Weakly-connected components of the unit graph, cached.

        Parallel connections and weights don't affect connectivity, so
        the cache survives weight edits (``set_weight``, ``retimed``)
        and is only dropped when units or connections are added.
        """
        if self._wcc_cache is None:
            self._wcc_cache = [
                frozenset(c) for c in nx.weakly_connected_components(self._g)
            ]
        return self._wcc_cache

    def nx_multigraph(self) -> nx.MultiDiGraph:
        """The underlying networkx graph (treat as read-only)."""
        return self._g

    def simple_min_weight_digraph(self) -> nx.DiGraph:
        """Collapse parallel connections, keeping the minimum weight.

        Path-weight computations (W/D matrices, feasibility) only care
        about the lightest parallel connection.
        """
        g = nx.DiGraph()
        g.add_nodes_from(self._g.nodes(data=True))
        for u, v, w in self._g.edges(data="weight"):
            if g.has_edge(u, v):
                if w < g.edges[u, v]["weight"]:
                    g.edges[u, v]["weight"] = w
            else:
                g.add_edge(u, v, weight=w)
        return g

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`NetlistError` if broken.

        * weights and delays non-negative;
        * every zero-weight cycle is illegal (a combinational loop);
        * host vertices have zero delay.
        """
        for (u, v, _k), w in self.connections():
            if w < 0:
                raise NetlistError(f"negative weight on {u!r}->{v!r}")
        for unit in self.units():
            if self.delay(unit) < 0:
                raise NetlistError(f"negative delay on {unit!r}")
        for host in self.host_units():
            if self.delay(host) != 0.0:
                raise NetlistError(f"host vertex {host} must have zero delay")
        self._check_no_combinational_cycle()

    def _check_no_combinational_cycle(self) -> None:
        zero = nx.DiGraph()
        zero.add_nodes_from(self._g.nodes)
        zero.add_edges_from(
            (u, v) for u, v, w in self._g.edges(data="weight") if w == 0
        )
        if not nx.is_directed_acyclic_graph(zero):
            cycle = nx.find_cycle(zero)
            raise NetlistError(f"combinational (zero-weight) cycle: {cycle}")


def _check_integral(weight, where: str) -> None:
    # int() would silently truncate 1.5 to 1 (and raise on NaN/inf).
    if not math.isfinite(weight) or weight != int(weight):
        raise NetlistError(f"{where} has non-integral weight {weight}")


def make_unit_names(prefix: str, count: int) -> List[str]:
    """Generate ``count`` unit names ``prefix0 .. prefix{count-1}``."""
    return [f"{prefix}{i}" for i in range(count)]


def relabeled(graph: CircuitGraph, mapping: Mapping[str, str]) -> CircuitGraph:
    """Return a copy of ``graph`` with units renamed through ``mapping``."""
    out = CircuitGraph(graph.name)
    out._g = nx.relabel_nodes(
        graph.nx_multigraph(),
        {v: mapping.get(v, v) for v in graph.units()},
        copy=True,
    )
    return out
