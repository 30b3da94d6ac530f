"""Floorplan construction and the floorplan result object.

Ties partitioning to the annealer: circuit blocks are sized from the
functional units assigned to them, placed by the sequence-pair
annealer, and wrapped in a :class:`Floorplan` that later stages (tiling,
routing, LAC-retiming) query. Also implements the paper's *floorplan
expansion* step: "expand those congested soft blocks and channel, and
then perform another iteration of interconnect planning".
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import FloorplanError
from repro.floorplan.annealer import SequencePairAnnealer
from repro.floorplan.blocks import Block, Placement
from repro.floorplan.sequence_pair import pack
from repro.netlist.graph import CircuitGraph
from repro.obs import NOOP_TRACER
from repro.partition.multiway import Partition


@dataclasses.dataclass
class Floorplan:
    """A placed floorplan plus the block definitions that produced it.

    ``sequence_pair`` records the (gamma_plus, gamma_minus) encoding of
    the placement so the floorplan can be revised *incrementally*: the
    paper's second planning iteration expands congested blocks and
    re-packs the same sequence pair rather than re-floorplanning from
    scratch ("incremental change of the floorplan").
    """

    blocks: Dict[str, Block]
    placements: Dict[str, Placement]
    chip_width: float
    chip_height: float
    block_of_unit: Dict[str, str]
    sequence_pair: Optional[Tuple[List[str], List[str]]] = None

    @property
    def chip_area(self) -> float:
        return self.chip_width * self.chip_height

    @property
    def block_area(self) -> float:
        return sum(p.width * p.height for p in self.placements.values())

    @property
    def dead_area(self) -> float:
        """Chip area not covered by any block (dead space + channels)."""
        return self.chip_area - self.block_area

    def placement_of_unit(self, unit: str) -> Optional[Placement]:
        block = self.block_of_unit.get(unit)
        return self.placements.get(block) if block is not None else None

    def block_at(self, x: float, y: float) -> Optional[str]:
        for name, p in self.placements.items():
            if p.contains(x, y):
                return name
        return None


def blocks_from_partition(
    graph: CircuitGraph,
    partition: Partition,
    hard_blocks: Iterable[int] = (),
    whitespace: float = 0.25,
    hard_site_fraction: float = 0.02,
) -> Tuple[List[Block], Dict[str, str]]:
    """Create :class:`Block` objects (one per partition block).

    ``hard_blocks`` lists partition indices realised as hard blocks;
    they get a small pre-allocated site capacity instead of soft slack.
    """
    hard = set(hard_blocks)
    blocks: List[Block] = []
    block_of_unit: Dict[str, str] = {}
    for b in range(partition.n_blocks):
        units = partition.units_of(b)
        if not units:
            continue
        area = sum(graph.area(u) for u in units)
        name = f"B{b}"
        if b in hard:
            block = Block(
                name=name,
                unit_area=area,
                hard=True,
                whitespace=0.05,
                site_capacity=hard_site_fraction * area,
            )
        else:
            block = Block(name=name, unit_area=area, whitespace=whitespace)
        blocks.append(block)
        for u in units:
            block_of_unit[u] = name
    return blocks, block_of_unit


def net_pairs_from_graph(
    graph: CircuitGraph, block_of_unit: Mapping[str, str]
) -> List[Tuple[str, str, int]]:
    """Inter-block connectivity with multiplicities for the annealer."""
    counts: Dict[Tuple[str, str], int] = {}
    for (u, v, _k), _w in graph.connections():
        bu = block_of_unit.get(u)
        bv = block_of_unit.get(v)
        if bu is None or bv is None or bu == bv:
            continue
        key = (min(bu, bv), max(bu, bv))
        counts[key] = counts.get(key, 0) + 1
    return [(a, b, m) for (a, b), m in counts.items()]


def _anneal_floorplan(
    graph: CircuitGraph,
    blocks: Sequence[Block],
    block_of_unit: Mapping[str, str],
    seed: int,
    iterations: int,
    tracer,
) -> Floorplan:
    """Anneal a sequence pair for ``blocks`` and pack the best one."""
    net_pairs = net_pairs_from_graph(graph, block_of_unit)
    annealer = SequencePairAnnealer(blocks, net_pairs, seed=seed)
    annealer.run(iterations=iterations, tracer=tracer)
    gp, gm = annealer.best_sequences
    placements, w, h = pack(gp, gm, annealer.best_blocks)
    return Floorplan(
        blocks=dict(annealer.best_blocks),
        placements={p.name: p for p in placements},
        chip_width=w,
        chip_height=h,
        block_of_unit=dict(block_of_unit),
        sequence_pair=(gp, gm),
    )


def build_floorplan(
    graph: CircuitGraph,
    partition: Partition,
    seed: int = 0,
    hard_blocks: Iterable[int] = (),
    whitespace: float = 0.25,
    iterations: int = 2500,
    tracer=None,
) -> Floorplan:
    """Partition-aware floorplanning: size blocks, anneal, package.

    The sequence-pair annealer places the blocks; the winning pair is
    stored on the result so :func:`expand_floorplan` can re-pack it.
    """
    blocks, block_of_unit = blocks_from_partition(
        graph, partition, hard_blocks=hard_blocks, whitespace=whitespace
    )
    if not blocks:
        raise FloorplanError("no blocks to floorplan")
    return _anneal_floorplan(
        graph, blocks, block_of_unit, seed, iterations, tracer
    )


def expand_floorplan(
    plan: Floorplan,
    graph: CircuitGraph,
    congested_blocks: Sequence[str],
    factor: float = 1.5,
    seed: int = 1,
    iterations: int = 2500,
    tracer=None,
) -> Floorplan:
    """Expand congested soft blocks and revise the floorplan.

    The paper's second planning iteration makes an *incremental* change:
    over-utilised soft blocks get extra whitespace and the floorplan is
    re-packed with the **same sequence pair**, so block adjacencies (and
    hence routing and tile structure) stay as stable as possible. A full
    re-anneal only happens when the plan carries no sequence pair (e.g.
    hand-built floorplans).
    """
    if tracer is None:
        tracer = NOOP_TRACER
    new_blocks = {}
    for name, block in plan.blocks.items():
        if name in congested_blocks and not block.hard:
            new_blocks[name] = block.expanded(factor)
        else:
            new_blocks[name] = block
    if plan.sequence_pair is not None:
        gp, gm = plan.sequence_pair
        with tracer.span(
            "floorplan/repack", expanded=list(congested_blocks)
        ) as span:
            placements, w, h = pack(gp, gm, new_blocks)
            span.set(chip_width=w, chip_height=h)
        return Floorplan(
            blocks=new_blocks,
            placements={p.name: p for p in placements},
            chip_width=w,
            chip_height=h,
            block_of_unit=dict(plan.block_of_unit),
            sequence_pair=(list(gp), list(gm)),
        )
    return _anneal_floorplan(
        graph,
        list(new_blocks.values()),
        plan.block_of_unit,
        seed,
        iterations,
        tracer,
    )
