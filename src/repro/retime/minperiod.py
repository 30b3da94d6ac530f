"""Minimum-period retiming: binary search over candidate periods.

A classic Leiserson–Saxe result: the minimum achievable clock period is
always one of the finitely many distinct ``D(u, v)`` values, and a
period ``T`` is achievable iff the edge + clocking difference
constraints for ``T`` are satisfiable. The search is clamped for free —
candidates below the maximum single-vertex delay are infeasible, and
the first candidate at or above the current clock period is feasible
with the identity retiming — and every probe is decided exactly:

* the sparse FEAS engine (:mod:`repro.retime.feas_probe`) runs a few
  rounds (:data:`_PROBE_ROUNDS`) from the best witness so far. A
  feasible witness at one period is a legal warm start at every
  smaller one, so feasible probes usually verify inside that budget;
* a probe FEAS does not verify is decided on the spot by the
  warm-started Bellman–Ford relaxation
  (:meth:`FeasibilityChecker.refine`). It either converges to a
  witness or closes a negative cycle in its predecessor graph, which
  on the Table-1 graphs happens within a few rounds.

Graphs that :meth:`FeasProbe.build` rejects run the same loop without
the FEAS step.

The search runs over *merged* candidates (:func:`candidate_periods`
collapses float-noise runs of ``D`` values), so it finishes with an
exact-tie refinement: a warm-started bisection over the few exact ``D``
values inside the winning run, decided by the same exact checker.
``T_min`` is therefore the minimum over the *exact* candidate set.

The paper uses min-period retiming to establish ``T_min``, then sets
``T_clk`` 20% of the way from ``T_min`` up to ``T_init``.
"""

from __future__ import annotations

import bisect
import logging
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import RetimingError
from repro.netlist.graph import CircuitGraph
from repro.obs import NOOP_TRACER
from repro.retime.fastcheck import FeasibilityChecker
from repro.retime.feas_probe import FeasProbe
from repro.retime.minarea import RetimingResult, normalise_labels
from repro.retime.wd import WDMatrices, candidate_periods, wd_matrices

log = logging.getLogger(__name__)

#: FEAS rounds each binary-search probe gets before the exact checker
#: decides it (2 and 4 measured the same on Table 1).
_PROBE_ROUNDS = 4


def clock_period(graph: CircuitGraph, wd: Optional[WDMatrices] = None) -> float:
    """Current clock period: the longest register-free path delay.

    Computed as the maximum ``D(u, v)`` over pairs with
    ``W(u, v) == 0`` (plus single-vertex delays on the diagonal).
    """
    if wd is None:
        wd = wd_matrices(graph)
    zero_weight = np.isfinite(wd.w) & (wd.w == 0)
    if not zero_weight.any():
        return wd.max_vertex_delay()
    return float(wd.d[zero_weight].max())


def is_feasible_period(
    graph: CircuitGraph,
    period: float,
    wd: Optional[WDMatrices] = None,
) -> Optional[Dict[str, int]]:
    """Labels achieving ``period`` (hosts normalised to 0), or ``None``."""
    if wd is None:
        wd = wd_matrices(graph)
    if wd.max_vertex_delay() > period:
        return None
    labels = FeasibilityChecker.build(graph, wd).labels(period)
    if labels is None:
        return None
    labels = {v: labels.get(v, 0) for v in graph.units()}
    return normalise_labels(graph, labels)


def _exact(
    checker: FeasibilityChecker,
    t: float,
    warm: np.ndarray,
    tracer,
    name: str = "feas/exact",
) -> Optional[np.ndarray]:
    """One exact decision at ``t``, traced as a ``name`` span."""
    with tracer.span(name, t=t) as span:
        raw = checker.refine(t, warm)
        cycle = checker.last_cycle
        verdict = "infeasible" if raw is None else "feasible"
        span.set(verdict=verdict, cycle_len=0 if cycle is None else len(cycle))
        tracer.metrics.counter(
            "feas_probes_total", kind=name.split("/", 1)[1], verdict=verdict
        ).inc()
    return raw


def _search(
    engine: Optional[FeasProbe],
    checker: FeasibilityChecker,
    graph: CircuitGraph,
    candidates,
    tracer=NOOP_TRACER,
) -> Tuple[int, np.ndarray]:
    """Clamped, warm-started binary search (see module doc).

    Returns the index of the smallest feasible merged candidate and its
    witness labels (indexed like ``wd.order``). Every probe is decided
    exactly, so ``candidates[index - 1]`` is infeasible.
    """
    wd = checker.wd
    if engine is not None:
        perm = np.array([wd.index[v] for v in engine.order], dtype=np.int64)

    def decide(idx: int, warm: np.ndarray) -> Optional[np.ndarray]:
        t = candidates[idx]
        if engine is not None:
            with tracer.span("feas/probe", t=t, budget=_PROBE_ROUNDS) as span:
                verified, raw = engine.probe_budget(t, warm[perm], _PROBE_ROUNDS)
                span.set(
                    verdict="feasible" if verified else "unverified",
                    rounds=engine.last_rounds,
                )
            if verified:
                tracer.metrics.counter(
                    "feas_probes_total", kind="feas", verdict="feasible"
                ).inc()
                out = np.empty_like(raw)
                out[perm] = raw
                return out
        return _exact(checker, t, warm, tracer)

    lo = bisect.bisect_left(candidates, checker.max_delay)
    best = min(
        bisect.bisect_left(candidates, clock_period(graph, wd)),
        len(candidates) - 1,
    )
    best_r = np.zeros(checker.n, dtype=np.int64)
    while lo < best:
        mid = (lo + best) // 2
        raw = decide(mid, best_r)
        if raw is None:
            lo = mid + 1
        else:
            best, best_r = mid, raw
    return best, best_r


def _refine_exact(
    checker: FeasibilityChecker,
    period: float,
    start: np.ndarray,
    lower: Optional[float],
    exact: list,
    tracer=NOOP_TRACER,
) -> Tuple[float, np.ndarray]:
    """Tighten a merged-candidate winner to the exact minimum.

    :func:`candidate_periods` merges runs of near-equal ``D`` values to
    the run's largest member, so the searched winner can sit up to the
    merge tolerance above the true minimum over *exact* candidates.
    Everything at or below ``lower`` is infeasible, so the tie is broken
    by a bisection over the handful of exact values between ``lower``
    and ``period``.
    """
    lo = bisect.bisect_right(exact, lower) if lower is not None else 0
    hi = bisect.bisect_left(exact, period)
    domain = [t for t in exact[lo:hi] if t >= checker.max_delay]
    if not domain:
        return period, start
    domain.append(period)
    best: Optional[Tuple[float, np.ndarray]] = None
    lo_i, hi_i = 0, len(domain)
    while lo_i < hi_i:
        mid = (lo_i + hi_i) // 2
        raw = _exact(checker, domain[mid], start, tracer, "feas/refine")
        if raw is not None:
            best = (domain[mid], raw)
            start = raw
            hi_i = mid
        else:
            lo_i = mid + 1
    if best is None:
        # Even the searched winner fails the exact check — possible
        # only at a knife edge where the FEAS epsilon absorbed a real
        # sub-tolerance violation. Walk up to the first exact winner.
        for t in exact[bisect.bisect_right(exact, period):]:
            raw = _exact(checker, t, start, tracer, "feas/refine")
            if raw is not None:
                best = (t, raw)
                break
        if best is None:  # pragma: no cover - T_init is always feasible
            raise RetimingError("no feasible candidate period")
    return best


def min_period_retiming(
    graph: CircuitGraph,
    wd: Optional[WDMatrices] = None,
    tracer=None,
    compiled=None,
) -> Tuple[float, RetimingResult]:
    """Find the minimum feasible period and a retiming achieving it.

    Returns ``(T_min, result)``; binary-searches the sorted distinct
    ``D`` values with every probe decided exactly (see module doc).
    Graphs the FEAS engine rejects at build time run the search on the
    exact checker alone; ``T_min`` is the same either way (the witness
    retiming may differ). The ``min_period/search`` span's ``engine``
    attribute records which one ran (``feas``, ``bellman-ford``, or
    ``cache`` for a replayed witness).

    ``tracer`` (a :class:`repro.obs.Tracer`) wraps the whole search in
    a ``min_period/search`` span. Every FEAS probe (``feas/probe``:
    candidate period, verdict, rounds), exact decision (``feas/exact``:
    verdict and the length of the negative cycle that proved an
    infeasible one) and exact-tie refinement (``feas/refine``) becomes
    a child span.

    ``compiled`` (a :class:`repro.compile.CompiledCircuit` of this
    graph) supplies the W/D matrices, candidate sets and FEAS arrays
    precomputed; if it already carries a min-period witness from a
    previous identical run, the search is skipped outright and the
    witness replayed (the outcome is bit-identical — the witness *is*
    the previous search's pre-normalise result).
    """
    if tracer is None:
        tracer = NOOP_TRACER
    if compiled is not None:
        wd = compiled.wd
        candidates = compiled.candidates
        exact = compiled.exact_candidates
    else:
        if wd is None:
            wd = wd_matrices(graph)
        candidates = candidate_periods(wd)
        exact = None
    if not candidates:
        raise RetimingError("graph has no paths; period undefined")

    replay = (
        compiled is not None
        and compiled.t_min is not None
        and compiled.t_min_labels is not None
    )
    with tracer.span("min_period/search") as search:
        if replay:
            period = compiled.t_min
            labels: Dict[str, int] = dict(compiled.t_min_labels)
            search.set(
                engine="cache",
                cache_hit=True,
                n_candidates=len(candidates),
                t_min=period,
            )
        else:
            engine: Optional[FeasProbe] = None
            if compiled is not None and compiled.feas is not None:
                engine = compiled.feas_probe()
            else:
                try:
                    engine = FeasProbe.build(graph)
                except RetimingError:
                    log.debug(
                        "FEAS engine unavailable for %s; exact checker only",
                        graph.name,
                    )
            checker = FeasibilityChecker.build(graph, wd)
            best, raw = _search(engine, checker, graph, candidates, tracer)
            period, raw = _refine_exact(
                checker,
                candidates[best],
                raw,
                candidates[best - 1] if best > 0 else None,
                exact if exact is not None else candidate_periods(wd, tol=0.0),
                tracer=tracer,
            )
            labels = {v: int(raw[i]) for v, i in wd.index.items()}
            if compiled is not None:
                compiled.note_min_period(period, labels)
            search.set(
                engine="feas" if engine is not None else "bellman-ford",
                n_candidates=len(candidates),
                t_min=period,
            )
    log.debug(
        "min-period search on %s: T_min=%.4f over %d candidates",
        graph.name,
        period,
        len(candidates),
    )

    labels = normalise_labels(graph, {v: labels.get(v, 0) for v in graph.units()})
    retimed = graph.retimed(labels)
    result = RetimingResult(
        labels=labels,
        graph=retimed,
        period=period,
        total_ffs=retimed.total_flip_flops(),
    )
    return period, result
