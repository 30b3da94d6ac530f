"""Per-layer timing for the traced run, recorded from outside the program.

:class:`LayerTrace` replaces the layer entry points that
``repro.core.planner`` resolves at call time with wrappers that record
each call's self time (its CPU time minus that of wrapped calls made
inside it, matching the CPU-timed plans) and the work counts its return value exposes. ``uninstall``
puts the originals back. The untraced run never installs it, so
end-to-end numbers carry no wrapper cost; ``overhead`` measures what
the wrappers themselves spent.

For the service workload the layers run in worker processes, so the
same layer names are read from each job's ``repro-trace/1`` file
instead (:func:`trace_layer_seconds`).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from host import peak_rss_bytes, reset_peak_rss

#: Layer names, in pipeline order, as they appear in metric names.
LAYERS = (
    "partition",
    "floorplan",
    "route",
    "repeater",
    "expand",
    "compile",
    "cache_save",
    "min_period",
    "constraints",
    "min_area",
    "lac",
    "verify",
)

#: Layers whose peak RSS growth (high-water mark over the RSS at entry)
#: the traced run records.
PEAK_LAYERS = ("compile", "min_period")

#: Stage span names in a job trace, mapped to the same layers.
SPAN_LAYERS = {
    "partition": "partition",
    "floorplan": "floorplan",
    "expand_floorplan": "floorplan",
    "route": "route",
    "repeater": "repeater",
    "expand": "expand",
    "compile": "compile",
    "min_period": "min_period",
    "retime/constraints": "constraints",
    "retime/min_area": "min_area",
    "retime/lac": "lac",
    "verify": "verify",
}


def _route_counts(args, _result) -> Dict[str, int]:
    router = args[0]
    return {"route.overflow": int(router.congestion_summary()["overflowed_cells"])}


def _compile_counts(_args, result) -> Dict[str, int]:
    _artifact, hit = result
    return {"compile.hits": int(hit), "compile.misses": int(not hit)}


def _lac_counts(_args, result) -> Dict[str, int]:
    stats = result.solver_stats or {}
    return {
        "lac.rounds": len(result.history),
        "lac.simplex_iterations": int(stats.get("simplex_iterations", 0)),
    }


class LayerTrace:
    """Wrappers around the planner's layer entry points."""

    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.peak_bytes: Dict[str, int] = defaultdict(int)
        self.overhead = 0.0
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []

    def take(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self seconds and counts since the last call, then reset them
        (peaks and overhead accumulate over the whole run)."""
        seconds, counts = dict(self.seconds), dict(self.counts)
        self.seconds.clear()
        self.counts.clear()
        return seconds, counts

    def install(self) -> "LayerTrace":
        import repro.core.planner as planner
        import repro.verify as verify
        from repro.compile.cache import CompileCache
        from repro.route.router import GlobalRouter

        def _units(_args, result):
            return {"expand.units": result.graph.num_units}

        def _constraints(_args, result):
            return {"constraints.count": len(result.constraints)}

        self._wrap(planner, "partition_graph", "partition")
        self._wrap(planner, "build_floorplan", "floorplan")
        self._wrap(planner, "expand_floorplan", "floorplan")
        self._wrap(GlobalRouter, "route", "route", _route_counts)
        self._wrap(planner, "buffer_routed_nets", "repeater")
        self._wrap(planner, "expand_interconnects", "expand", _units)
        self._wrap(CompileCache, "get_or_compile", "compile", _compile_counts)
        self._wrap(CompileCache, "save", "cache_save")
        self._wrap(planner, "min_period_retiming", "min_period")
        self._wrap(planner, "build_constraint_system", "constraints", _constraints)
        self._wrap(planner, "min_area_retiming", "min_area")
        self._wrap(planner, "lac_retiming", "lac", _lac_counts)
        self._wrap(verify, "verify_outcome", "verify")
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(
        self,
        owner,
        attr: str,
        layer: str,
        counts: Optional[Callable[[tuple, object], Mapping[str, int]]] = None,
    ) -> None:
        # Read through __dict__ for classes so a method is re-bound
        # normally when the wrapper is looked up on an instance.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        trace = self
        peak = layer in PEAK_LAYERS

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            entered = time.process_time()
            trace._stack.append(0.0)
            if peak:
                reset_peak_rss()
                base = peak_rss_bytes()
            start = time.process_time()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.process_time()
                elapsed = end - start
                trace.seconds[layer] += elapsed - trace._stack.pop()
                if trace._stack:
                    trace._stack[-1] += elapsed
            if counts is not None:
                for name, value in counts(args, result).items():
                    trace.counts[name] += value
            if peak:
                grown = peak_rss_bytes() - base
                trace.peak_bytes[layer] = max(trace.peak_bytes[layer], grown)
            trace.overhead += (start - entered) + (time.process_time() - end)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)


def trace_layer_seconds(lines: Iterable[str]) -> Tuple[Dict[str, float], float, int]:
    """Per-layer self seconds, root ``plan`` span wall and peak RSS
    bytes from one job's ``repro-trace/1`` lines.

    A layer's self time is its span's duration minus that of direct
    children which are layers themselves; other children
    (``floorplan/anneal``, ``verify/period``, ...) are the layer's own
    work.
    """
    import json

    spans = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        doc = json.loads(line)
        if doc.get("type") == "span":
            spans[doc["id"]] = doc
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans.values():
        if span.get("parent") is not None and span["name"] in SPAN_LAYERS:
            child_time[span["parent"]] += span["end"] - span["start"]
    seconds: Dict[str, float] = defaultdict(float)
    plan_wall = 0.0
    peak = 0
    for span in spans.values():
        duration = span["end"] - span["start"]
        peak = max(peak, int(span.get("attrs", {}).get("peak_rss_bytes", 0)))
        if span["name"] == "plan":
            plan_wall += duration
        layer = SPAN_LAYERS.get(span["name"])
        if layer is not None:
            seconds[layer] += duration - child_time[span["id"]]
    return dict(seconds), plan_wall, peak
