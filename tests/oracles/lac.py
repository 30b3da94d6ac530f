"""The cold LAC loop: one full ``min_area_retiming`` per round.

Same heuristic as :func:`repro.core.lac.lac_retiming` (Section 4.2),
but every round solves the weighted min-area LP from scratch through
the networkx network-simplex path and scores it on a materialised
retimed graph, sharing nothing with the warm incremental solver or the
area accountant. Optima may be degenerate, so differential tests
compare the best ``(N_FOA, N_F)`` key, not labels.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.lac import WEIGHT_MAX, WEIGHT_MIN, LACResult
from repro.core.metrics import area_report
from repro.retime.constraints import build_constraint_system
from repro.retime.expand import IO_REGION
from repro.retime.minarea import min_area_retiming
from repro.retime.wd import wd_matrices
from repro.tech.params import DEFAULT_TECH


def lac_retiming_cold(
    graph,
    unit_region: Mapping[str, str],
    grid,
    period: float,
    tech=DEFAULT_TECH,
    alpha: float = 0.2,
    n_max: int = 5,
    max_rounds: int = 30,
    prune: bool = True,
    system=None,
) -> LACResult:
    """LAC-retiming with a cold weighted min-area solve every round."""
    if system is None:
        system = build_constraint_system(graph, wd_matrices(graph), period, prune=prune)
    tile_weight: Dict[str, float] = {t: 1.0 for t in set(unit_region.values())}
    best: Optional[Tuple] = None
    history: List[Tuple[int, int]] = []
    round_seconds: List[float] = []
    stale = 0
    for _round in range(max_rounds):
        weights = {u: tile_weight.get(r, 1.0) for u, r in unit_region.items()}
        start = time.perf_counter()
        result = min_area_retiming(graph, period, weights=weights, system=system)
        report = area_report(result.graph, unit_region, grid, tech)
        round_seconds.append(time.perf_counter() - start)
        history.append((report.n_foa, report.n_f))
        key = (report.n_foa, report.n_f)
        if best is None or key < best[0]:
            best = (key, result, report, dict(tile_weight))
            stale = 0
        else:
            stale += 1
        if report.n_foa == 0 or stale >= n_max:
            break
        ratios = report.consumption_ratio(grid, tech)
        for t in tile_weight:
            if t == IO_REGION:
                continue
            updated = tile_weight[t] * ((1.0 - alpha) + alpha * ratios.get(t, 0.0))
            tile_weight[t] = min(WEIGHT_MAX, max(WEIGHT_MIN, updated))
    _key, result, report, weights = best
    return LACResult(
        retiming=result,
        report=report,
        n_wr=len(history),
        tile_weights=weights,
        history=history,
        round_seconds=round_seconds,
    )
