"""Van Ginneken buffer insertion on routed Steiner trees.

:mod:`repro.repeater.insertion` buffers each (driver, sink) path
independently — simple and exactly what interconnect-unit expansion
needs. For multi-fanout nets, the canonical algorithm (van Ginneken,
ISCAS 1990; the basis of Alpert et al.'s practical methodology, the
paper's reference [1]) does better: it walks the routed *tree*
bottom-up, keeping at every point the Pareto set of
``(downstream capacitance, required arrival time)`` candidates, so
buffers on a shared trunk serve several sinks at once.

This implementation adds the paper's ``L_max`` signal-integrity
constraint: every candidate also tracks the longest unbuffered
downstream span, and candidates whose span would exceed ``L_max`` are
discarded, so a buffer is *forced* before any run gets too long.

Output: buffer cells plus the achieved worst-sink delay. The planner
buffers per path (:mod:`repro.repeater.insertion`), because each path
maps onto the interconnect units that LAC-retiming moves; this module
backs the tree-vs-path comparison bench
(``benchmarks/test_tree_vs_path.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import RoutingError
from repro.route.router import RoutedNet
from repro.tech.params import DEFAULT_TECH, Technology
from repro.tiles.grid import Cell

_EPS = 1e-12


@dataclasses.dataclass(frozen=True)
class BufferType:
    """One buffer cell in the insertion library."""

    name: str
    intrinsic_delay: float  # ns
    resistance: float  # kOhm
    capacitance: float  # pF (input)
    area: float  # mm^2


def default_library(tech: Technology, sizes: Sequence[int] = (1, 2, 4)) -> List[BufferType]:
    """Scaled buffer library from the technology's unit repeater.

    A size-``k`` buffer has ``k`` times the drive (resistance / k),
    ``k`` times the input capacitance and area; intrinsic delay is
    size-independent to first order.
    """
    return [
        BufferType(
            name=f"buf_x{k}",
            intrinsic_delay=tech.repeater_delay,
            resistance=tech.r_repeater / k,
            capacitance=tech.c_repeater * k,
            area=tech.repeater_area * k,
        )
        for k in sizes
    ]


@dataclasses.dataclass(frozen=True)
class Candidate:
    """One non-dominated buffering option for a subtree.

    Attributes:
        cap: Capacitance seen looking into the subtree (pF).
        req: Required arrival time at this point (ns; higher = better,
            sinks start at 0, wire/buffer delays subtract).
        span: Longest unbuffered distance (mm) from this point down to
            the nearest buffer or sink on any path.
        buffers: Buffer locations chosen in this subtree.
    """

    cap: float
    req: float
    span: float
    buffers: frozenset


@dataclasses.dataclass
class TreeBuffering:
    """Result of buffering one net's routed tree.

    ``buffers`` holds ``(cell, buffer_name)`` pairs when a multi-size
    library is used (the default single-size library reports the plain
    unit repeater everywhere).
    """

    net_name: str
    buffers: Set[Tuple[Cell, str]]
    worst_delay: float  # driver-to-critical-sink Elmore delay

    @property
    def n_buffers(self) -> int:
        return len(self.buffers)

    @property
    def buffer_cells(self) -> Set[Cell]:
        return {cell for cell, _name in self.buffers}

    def total_area(self, library: Sequence["BufferType"]) -> float:
        by_name = {b.name: b.area for b in library}
        return sum(by_name[name] for _cell, name in self.buffers)


def _tree_structure(
    routed: RoutedNet,
) -> Tuple[Dict[Cell, List[Cell]], Cell, Dict[Cell, int]]:
    """Children map (rooted at the driver cell) + per-cell sink count.

    Maze-embedded per-sink paths can overlap and re-merge, so their
    union is not always a tree; a BFS spanning tree from the driver
    keeps every sink reachable and gives the bottom-up recursion a
    well-defined structure.
    """
    from collections import deque

    root = routed.net.driver_cell
    adjacency: Dict[Cell, Set[Cell]] = {}
    for path in routed.paths.values():
        for a, b in zip(path, path[1:]):
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
    children: Dict[Cell, List[Cell]] = {}
    seen = {root}
    queue = deque([root])
    while queue:
        cell = queue.popleft()
        for nxt in sorted(adjacency.get(cell, ())):
            if nxt not in seen:
                seen.add(nxt)
                children.setdefault(cell, []).append(nxt)
                queue.append(nxt)
    sink_count: Dict[Cell, int] = {}
    for _sink, path in routed.paths.items():
        sink_count[path[-1]] = sink_count.get(path[-1], 0) + 1
    return children, root, sink_count


def _prune(candidates: List[Candidate]) -> List[Candidate]:
    """Keep the (cap, req) Pareto frontier: lower cap, higher req."""
    candidates.sort(key=lambda c: (c.cap, -c.req))
    kept: List[Candidate] = []
    best_req = -float("inf")
    for cand in candidates:
        if cand.req > best_req + _EPS:
            kept.append(cand)
            best_req = cand.req
    return kept


def buffer_tree(
    routed: RoutedNet,
    tech: Technology = DEFAULT_TECH,
    tile_size: Optional[float] = None,
    library: Optional[Sequence[BufferType]] = None,
) -> TreeBuffering:
    """Van Ginneken buffering of one routed net under ``L_max``.

    ``library`` selects the buffer cells considered at each candidate
    position (default: the technology's unit repeater only; pass
    :func:`default_library` for multi-size insertion).

    Raises :class:`RoutingError` when no candidate satisfies ``L_max``
    (cannot happen for ``l_max >= tile_size``).
    """
    size = tile_size if tile_size is not None else tech.tile_size
    l_max = tech.l_max_tiles * size
    if library is None:
        library = default_library(tech, sizes=(1,))
    children, root, sink_count = _tree_structure(routed)

    def options(cell: Cell) -> List[Candidate]:
        # Merge children (each child contributes wire + its options).
        kids = children.get(cell, [])
        merged: List[Candidate] = [
            Candidate(cap=0.0, req=float("inf"), span=0.0, buffers=frozenset())
        ]
        for child in kids:
            child_opts = []
            for opt in options(child):
                # wire from cell to child (one tile)
                new_span = opt.span + size
                if new_span > l_max + _EPS:
                    continue
                delay = tech.r_wire * size * (tech.c_wire * size / 2.0 + opt.cap)
                child_opts.append(
                    Candidate(
                        cap=opt.cap + tech.c_wire * size,
                        req=opt.req - delay,
                        span=new_span,
                        buffers=opt.buffers,
                    )
                )
            if not child_opts:
                raise RoutingError(
                    f"no L_max-feasible buffering below cell {child}"
                )
            merged = [
                Candidate(
                    cap=a.cap + b.cap,
                    req=min(a.req, b.req),
                    span=max(a.span, b.span),
                    buffers=a.buffers | b.buffers,
                )
                for a in merged
                for b in _prune(child_opts)
            ]
            merged = _prune(merged)

        # Sink load at this cell (flip-flop / gate input pins).
        if cell in sink_count:
            merged = [
                Candidate(
                    cap=c.cap + sink_count[cell] * tech.c_repeater,
                    req=min(c.req, 0.0),
                    span=c.span,
                    buffers=c.buffers,
                )
                for c in merged
            ]

        # Option: place a buffer (of any library size) at this cell.
        with_buffer = []
        for c in merged:
            for buf in library:
                delay = buf.intrinsic_delay + buf.resistance * c.cap
                with_buffer.append(
                    Candidate(
                        cap=buf.capacitance,
                        req=c.req - delay,
                        span=0.0,
                        buffers=c.buffers | {(cell, buf.name)},
                    )
                )
        return _prune(merged + with_buffer)

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * len(routed.cells) + 100))
    try:
        root_opts = options(root)
    finally:
        sys.setrecursionlimit(old_limit)
    if not root_opts:
        raise RoutingError(f"net {routed.net.name}: no feasible buffering")
    # Driver drives the chosen option through its output resistance.
    best = max(root_opts, key=lambda c: c.req - tech.r_repeater * c.cap)
    worst_delay = -(best.req - tech.r_repeater * best.cap)
    return TreeBuffering(
        net_name=routed.net.name,
        buffers=set(best.buffers),
        worst_delay=max(0.0, worst_delay),
    )


def buffer_all_trees(
    routed_nets: Dict[str, RoutedNet],
    tech: Technology = DEFAULT_TECH,
) -> Dict[str, TreeBuffering]:
    """Van Ginneken buffering for every routed net."""
    return {
        name: buffer_tree(net, tech) for name, net in routed_nets.items()
    }

