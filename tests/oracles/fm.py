"""Dict-based FM gain and FM pass, the oracle for the array pass.

:meth:`repro.partition.fm.FMBipartitioner._one_pass` keeps per-net side
counts and a gain table in arrays. These references recompute every
gain from the net sets on each step, the way the classic algorithm is
written down.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Set, Tuple

from repro.partition.fm import FMBipartitioner


def fm_gain(fm: FMBipartitioner, cell: str, side: Mapping[str, int]) -> int:
    """Cut-size reduction if ``cell`` moves to the other side."""
    gain = 0
    s = side[cell]
    for net in fm.nets:
        if cell not in net:
            continue
        same = sum(1 for c in net if c != cell and side[c] == s)
        other = len(net) - 1 - same
        if same == 0:
            gain += 1  # net becomes uncut
        if other == 0:
            gain -= 1  # net becomes cut
    return gain


def reference_fm_pass(
    fm: FMBipartitioner, side: Dict[str, int]
) -> Tuple[bool, Dict[str, int]]:
    """One FM pass: move every cell once (first strict max gain among
    unlocked, balance-respecting cells), keep the best prefix."""
    side = dict(side)
    area = [0.0, 0.0]
    for c in fm.cells:
        area[side[c]] += fm.areas[c]
    locked: Set[str] = set()
    history: List[Tuple[str, int]] = []
    cum_gain = 0
    best_prefix = 0
    best_gain = 0

    for _ in range(len(fm.cells)):
        best_cell = None
        best_cell_gain = None
        for c in fm.cells:
            if c in locked:
                continue
            target = 1 - side[c]
            if area[target] + fm.areas[c] > fm.max_side_area:
                continue
            g = fm_gain(fm, c, side)
            if best_cell_gain is None or g > best_cell_gain:
                best_cell = c
                best_cell_gain = g
        if best_cell is None:
            break
        locked.add(best_cell)
        s = side[best_cell]
        area[s] -= fm.areas[best_cell]
        area[1 - s] += fm.areas[best_cell]
        side[best_cell] = 1 - s
        cum_gain += best_cell_gain
        history.append((best_cell, best_cell_gain))
        if cum_gain > best_gain:
            best_gain = cum_gain
            best_prefix = len(history)

    for cell, _g in history[best_prefix:]:
        side[cell] = 1 - side[cell]
    return best_gain > 0, side
