"""Sequence-pair floorplan representation and packing.

A sequence pair ``(gamma_plus, gamma_minus)`` encodes the relative
positions of all blocks (Murata et al.): block ``a`` is left of ``b``
iff ``a`` precedes ``b`` in both sequences, and below ``b`` iff ``a``
follows ``b`` in ``gamma_plus`` but precedes it in ``gamma_minus``.
Packing evaluates the longest-path equations over those constraints in
O(n^2), which is plenty for the tens of blocks a floorplan holds.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import FloorplanError
from repro.floorplan.blocks import Block, Placement


def pack(
    gamma_plus: Sequence[str],
    gamma_minus: Sequence[str],
    blocks: Mapping[str, Block],
) -> Tuple[List[Placement], float, float]:
    """Pack blocks according to a sequence pair.

    Returns ``(placements, chip_width, chip_height)``.
    """
    if set(gamma_plus) != set(gamma_minus) or set(gamma_plus) != set(blocks):
        raise FloorplanError("sequence pair must contain every block exactly once")
    pos_p = {b: i for i, b in enumerate(gamma_plus)}
    pos_m = {b: i for i, b in enumerate(gamma_minus)}

    # Evaluate in gamma_minus order: all left-of / below predecessors of
    # a block precede it in gamma_minus, so one sweep suffices.
    x: Dict[str, float] = {}
    y: Dict[str, float] = {}
    order = list(gamma_minus)
    for b in order:
        bx = 0.0
        by = 0.0
        for a in order:
            if a == b:
                break
            if pos_p[a] < pos_p[b]:  # a left of b
                bx = max(bx, x[a] + blocks[a].width)
            else:  # pos_p[a] > pos_p[b]: a below b
                by = max(by, y[a] + blocks[a].height)
        x[b] = bx
        y[b] = by

    placements = [
        Placement(
            name=b,
            x=x[b],
            y=y[b],
            width=blocks[b].width,
            height=blocks[b].height,
        )
        for b in gamma_plus
    ]
    chip_w = max((p.x2 for p in placements), default=0.0)
    chip_h = max((p.y2 for p in placements), default=0.0)
    return placements, chip_w, chip_h


class ArrayPacker:
    """Vectorised longest-path packing over a fixed block set.

    Mirrors :func:`pack` on flat numpy arrays indexed by block id
    (position in the sorted name list). The per-block maxima are exact,
    so coordinates, chip extents and hence anything derived from them
    are bit-identical to the reference sweep — the annealer relies on
    that to keep its trajectory equal to the object-path oracle's.

    The sweep can restart mid-sequence (``start``): a block's position
    only depends on blocks *earlier* in ``gamma_minus``, so after a
    move that first disturbs position ``k`` the prefix ``[:k]`` is
    reusable as-is. That is the annealer's delta evaluation.
    """

    def __init__(self, blocks: Mapping[str, Block]):
        self.names: List[str] = sorted(blocks)
        self.index: Dict[str, int] = {b: i for i, b in enumerate(self.names)}
        n = len(self.names)
        self.wid = np.empty(n, dtype=np.float64)
        self.hei = np.empty(n, dtype=np.float64)
        # Scalar mirrors of the dimension arrays for fill_lists: at the
        # ~10-block sizes floorplans actually have, per-element array
        # indexing costs more than the sweep itself.
        self.wid_list: List[float] = [0.0] * n
        self.hei_list: List[float] = [0.0] * n
        for name, i in self.index.items():
            self.set_dims(i, blocks[name])

    def set_dims(self, i: int, block: Block) -> None:
        w = block.width
        h = block.height
        self.wid[i] = w
        self.hei[i] = h
        self.wid_list[i] = w
        self.hei_list[i] = h

    def fill(
        self,
        gm_ids: np.ndarray,
        pos_p: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        start: int = 0,
    ) -> None:
        """Longest-path sweep in ``gamma_minus`` order from ``start``.

        ``pos_p`` maps block id -> position in ``gamma_plus``; ``xs``
        and ``ys`` (indexed by block id) are filled in place for the
        blocks at ``gamma_minus`` positions ``>= start``.
        """
        wid = self.wid
        hei = self.hei
        for k in range(start, len(gm_ids)):
            b = gm_ids[k]
            prefix = gm_ids[:k]
            left = pos_p[prefix] < pos_p[b]
            xs[b] = np.max(xs[prefix] + wid[prefix], initial=0.0, where=left)
            ys[b] = np.max(ys[prefix] + hei[prefix], initial=0.0, where=~left)

    def fill_lists(
        self,
        gm_ids: Sequence[int],
        pos_p: Sequence[int],
        xs: List[float],
        ys: List[float],
        start: int = 0,
    ) -> None:
        """Scalar variant of :meth:`fill` over plain Python lists.

        Same arithmetic, same results; the annealer's hot loop uses
        this because block counts are small enough that numpy
        per-element overhead dominates the vectorised sweep.
        """
        wid = self.wid_list
        hei = self.hei_list
        for k in range(start, len(gm_ids)):
            b = gm_ids[k]
            pb = pos_p[b]
            bx = 0.0
            by = 0.0
            for t in range(k):
                a = gm_ids[t]
                if pos_p[a] < pb:
                    v = xs[a] + wid[a]
                    if v > bx:
                        bx = v
                else:
                    v = ys[a] + hei[a]
                    if v > by:
                        by = v
            xs[b] = bx
            ys[b] = by

    def extents(self, xs: np.ndarray, ys: np.ndarray) -> Tuple[float, float]:
        if not xs.size:
            return 0.0, 0.0
        return float(np.max(xs + self.wid)), float(np.max(ys + self.hei))

    def placements(
        self, gp_ids: np.ndarray, xs: np.ndarray, ys: np.ndarray
    ) -> List[Placement]:
        """Materialise :class:`Placement` objects in ``gamma_plus`` order."""
        return [
            Placement(
                name=self.names[i],
                x=float(xs[i]),
                y=float(ys[i]),
                width=float(self.wid[i]),
                height=float(self.hei[i]),
            )
            for i in gp_ids
        ]


def pack_arrays(
    gamma_plus: Sequence[str],
    gamma_minus: Sequence[str],
    blocks: Mapping[str, Block],
) -> Tuple[List[Placement], float, float]:
    """Array-backed :func:`pack`: same contract, same results.

    The property suite checks this agrees with :func:`pack` placement
    for placement; it exists so the packing kernel is testable outside
    the annealer loop that embeds it.
    """
    if set(gamma_plus) != set(gamma_minus) or set(gamma_plus) != set(blocks):
        raise FloorplanError("sequence pair must contain every block exactly once")
    packer = ArrayPacker(blocks)
    n = len(packer.names)
    idx = packer.index
    gp_ids = np.fromiter((idx[b] for b in gamma_plus), dtype=np.int64, count=n)
    gm_ids = np.fromiter((idx[b] for b in gamma_minus), dtype=np.int64, count=n)
    pos_p = np.empty(n, dtype=np.int64)
    pos_p[gp_ids] = np.arange(n, dtype=np.int64)
    xs = np.empty(n, dtype=np.float64)
    ys = np.empty(n, dtype=np.float64)
    packer.fill(gm_ids, pos_p, xs, ys)
    chip_w, chip_h = packer.extents(xs, ys)
    return packer.placements(gp_ids, xs, ys), chip_w, chip_h


def overlaps(placements: Sequence[Placement]) -> bool:
    """True if any two placements overlap (sanity check; a correct
    sequence-pair packing never overlaps)."""
    for i, a in enumerate(placements):
        for b in placements[i + 1 :]:
            if (
                a.x < b.x2
                and b.x < a.x2
                and a.y < b.y2
                and b.y < a.y2
            ):
                return True
    return False
