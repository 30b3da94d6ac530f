"""Fiduccia–Mattheyses bipartitioning.

The paper's experimental flow "first partitions those circuits into
soft blocks". We implement the classic FM heuristic: iterative
single-cell moves with gain buckets, an area-balance constraint, and
multi-pass refinement, operating on the connection structure of a
:class:`CircuitGraph` (host vertices and parallel-edge multiplicity are
handled by the caller, :mod:`repro.partition.multiway`).
"""

from __future__ import annotations

import logging
import random
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.obs import NOOP_TRACER

log = logging.getLogger(__name__)


class FMBipartitioner:
    """One FM bipartition instance over a set of cells.

    Args:
        cells: Cell names.
        areas: Cell areas (used for the balance constraint).
        nets: Each net is a set of cells that are electrically
            connected; cut size counts nets with cells on both sides.
        balance: Maximum fraction of total area on one side.
        rng: Seeded RNG for the initial partition.
    """

    def __init__(
        self,
        cells: Sequence[str],
        areas: Mapping[str, float],
        nets: Sequence[Set[str]],
        balance: float = 0.6,
        rng: Optional[random.Random] = None,
    ):
        self.cells = list(cells)
        self.areas = dict(areas)
        self.nets = [set(n) for n in nets if len(n) > 1]
        self.balance = balance
        self.rng = rng or random.Random(0)
        self.total_area = sum(self.areas[c] for c in self.cells)
        # Balance tolerance of at least one (largest) cell: without it a
        # perfectly balanced partition admits no legal move at all and
        # the pass deadlocks.
        max_cell = max((self.areas[c] for c in self.cells), default=0.0)
        self.max_side_area = max(
            self.balance * self.total_area, self.total_area / 2.0 + max_cell
        )
        self._build_incidence()

    def _build_incidence(self) -> None:
        """Flatten the cell/net incidence into CSR-style arrays.

        One "pin" per (net, member cell) pair, restricted to this
        instance's cells. ``_one_pass`` works entirely on these arrays;
        the dict-based gain the property tests compare against lives in
        ``tests/oracles/fm.py``.
        """
        pos = {c: k for k, c in enumerate(self.cells)}
        self._cell_pos = pos
        pin_cell: List[int] = []
        pin_net: List[int] = []
        for i, net in enumerate(self.nets):
            for c in net:
                k = pos.get(c)
                if k is not None:
                    pin_cell.append(k)
                    pin_net.append(i)
        self._pin_cell = np.array(pin_cell, dtype=np.int64)
        self._pin_net = np.array(pin_net, dtype=np.int64)
        self._areas_arr = np.array(
            [self.areas[c] for c in self.cells], dtype=np.float64
        )
        # Per-cell and per-net views of the pin list (CSR index maps),
        # so one move can gather every pin of every net it touches.
        n = len(self.cells)
        by_cell = np.argsort(self._pin_cell, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self._pin_cell, minlength=n), out=indptr[1:]
        )
        self._cell_pins = [
            by_cell[indptr[k] : indptr[k + 1]] for k in range(n)
        ]
        by_net = np.argsort(self._pin_net, kind="stable")
        net_ptr = np.zeros(len(self.nets) + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self._pin_net, minlength=len(self.nets)),
            out=net_ptr[1:],
        )
        self._net_pins = [
            by_net[net_ptr[m] : net_ptr[m + 1]] for m in range(len(self.nets))
        ]

    # ------------------------------------------------------------------
    def run(self, passes: int = 8, tracer=None) -> Dict[str, int]:
        """Return a side assignment ``cell -> 0 | 1``.

        With a ``tracer`` the refinement becomes a ``partition/fm``
        span carrying the cutsize trajectory (initial cut, final cut,
        one ``pass`` event per FM pass).
        """
        if tracer is None:
            tracer = NOOP_TRACER
        with tracer.span(
            "partition/fm", cells=len(self.cells), nets=len(self.nets)
        ) as span:
            side = self._initial_partition()
            best_side = dict(side)
            best_cut = initial_cut = self.cut_size(side)
            span.set(initial_cut=initial_cut)
            n_passes = 0
            for _ in range(passes):
                improved, side = self._one_pass(side)
                cut = self.cut_size(side)
                n_passes += 1
                span.event("pass", index=n_passes, cut=cut)
                if cut < best_cut:
                    best_cut = cut
                    best_side = dict(side)
                if not improved:
                    break
            span.set(final_cut=best_cut, passes=n_passes)
            tracer.metrics.counter("fm_passes_total").inc(n_passes)
            tracer.metrics.gauge("fm_final_cut").set(best_cut)
        log.debug(
            "FM: %d cells, cut %d -> %d in %d pass(es)",
            len(self.cells),
            initial_cut,
            best_cut,
            n_passes,
        )
        return best_side

    def cut_size(self, side: Mapping[str, int]) -> int:
        cut = 0
        for net in self.nets:
            sides = {side[c] for c in net if c in side}
            if len(sides) > 1:
                cut += 1
        return cut

    # ------------------------------------------------------------------
    def _initial_partition(self) -> Dict[str, int]:
        """Random area-balanced split."""
        order = list(self.cells)
        self.rng.shuffle(order)
        side: Dict[str, int] = {}
        area0 = 0.0
        for c in order:
            if area0 + self.areas[c] <= self.total_area / 2.0:
                side[c] = 0
                area0 += self.areas[c]
            else:
                side[c] = 1
        return side

    def _one_pass(self, side: Dict[str, int]) -> Tuple[bool, Dict[str, int]]:
        """One FM pass: move every cell once, keep the best prefix.

        Array implementation of the classic pass. Per-net side counts
        and a per-cell gain table are kept incrementally: a move
        adjusts the counts of the nets it touches and re-derives the
        gain contribution of exactly the pins on those nets. The move
        selected each step is the first unlocked, balance-respecting
        cell (in ``self.cells`` order) of maximum gain — ``argmax``
        over a masked gain array, which matches the historical
        first-strict-maximum linear scan move for move.
        """
        out = dict(side)
        n = len(self.cells)
        if n == 0:
            return False, out
        # Accumulate side areas in cells order with scalar float adds,
        # exactly like the historical pass (bit-equal balance checks).
        area = [0.0, 0.0]
        for c in self.cells:
            area[out[c]] += self.areas[c]
        side_arr = np.fromiter(
            (out[c] for c in self.cells), dtype=np.int64, count=n
        )
        pin_cell = self._pin_cell
        pin_net = self._pin_net
        n_nets = len(self.nets)
        cnt = np.zeros((2, n_nets), dtype=np.int64)
        pin_side = side_arr[pin_cell]
        cnt[0] = np.bincount(pin_net[pin_side == 0], minlength=n_nets)
        cnt[1] = np.bincount(pin_net[pin_side == 1], minlength=n_nets)
        # gain contribution of one pin: +1 when the cell is alone on
        # its side of the net (moving uncuts), -1 when the far side is
        # empty (moving cuts).
        gain = np.zeros(n, dtype=np.int64)
        if pin_cell.size:
            contrib = (cnt[pin_side, pin_net] == 1).astype(np.int64) - (
                cnt[1 - pin_side, pin_net] == 0
            ).astype(np.int64)
            np.add.at(gain, pin_cell, contrib)

        locked = np.zeros(n, dtype=bool)
        neg = np.iinfo(np.int64).min
        history: List[Tuple[str, int]] = []
        cum_gain = 0
        best_prefix = 0
        best_gain = 0
        for _ in range(n):
            target_area = np.where(side_arr == 0, area[1], area[0])
            eligible = ~locked & (
                target_area + self._areas_arr <= self.max_side_area
            )
            if not eligible.any():
                break
            k = int(np.argmax(np.where(eligible, gain, neg)))
            g = int(gain[k])
            locked[k] = True
            name = self.cells[k]
            s = int(side_arr[k])
            area[s] -= self.areas[name]
            area[1 - s] += self.areas[name]
            my_nets = pin_net[self._cell_pins[k]]
            if my_nets.size:
                aff = np.concatenate([self._net_pins[m] for m in my_nets])
                ac = pin_cell[aff]
                an = pin_net[aff]
                asides = side_arr[ac]
                old = (cnt[asides, an] == 1).astype(np.int64) - (
                    cnt[1 - asides, an] == 0
                ).astype(np.int64)
                cnt[s, my_nets] -= 1
                cnt[1 - s, my_nets] += 1
                side_arr[k] = 1 - s
                asides = side_arr[ac]
                new = (cnt[asides, an] == 1).astype(np.int64) - (
                    cnt[1 - asides, an] == 0
                ).astype(np.int64)
                np.add.at(gain, ac, new - old)
            else:
                side_arr[k] = 1 - s
            cum_gain += g
            history.append((name, g))
            if cum_gain > best_gain:
                best_gain = cum_gain
                best_prefix = len(history)

        # Keep the best prefix of moves (each cell moves at most once).
        for name, _g in history[:best_prefix]:
            out[name] = 1 - out[name]
        return best_gain > 0, out
