"""The arithmetic behind every number the benchmark reports.

Pure functions and one small bookkeeping class, with no dependency on
``repro``, so the tests in ``test_stats.py`` check them on synthetic
inputs.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

#: Percentiles a latency may be reported at, lowest first.
PERCENTILES = (50, 75, 90, 95, 99)

#: A percentile is reportable only with at least this many samples
#: beyond it; p75 therefore needs 40 samples and p50 needs 20.
MIN_BEYOND = 10

#: The per-plan result fields the correctness gate compares bit for bit.
RESULT_FIELDS = ("t_clk", "t_init", "t_min", "n_foa", "n_f", "ma_n_foa", "ma_n_f")


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between order
    statistics (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def reportable_percentile(
    n: int, candidates: Sequence[int] = PERCENTILES, min_beyond: int = MIN_BEYOND
) -> Optional[int]:
    """The highest candidate percentile with ``min_beyond`` samples
    beyond it among ``n`` samples, or ``None`` when even the lowest
    has too few."""
    best = None
    for p in candidates:
        # n * (100 - p) / 100 >= min_beyond, in integers.
        if n * (100 - p) >= min_beyond * 100:
            best = p
    return best


def medians(samples: Mapping[str, Sequence[float]]) -> Dict[str, float]:
    """Per-key median of each non-empty sample list."""
    return {k: statistics.median(v) for k, v in samples.items() if v}


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def suite_summary(samples: Mapping[str, Sequence[float]]) -> Tuple[float, float]:
    """``(plan_s, suite_s)`` from per-circuit wall-time samples: the
    geometric mean and the sum of the per-circuit medians."""
    per_circuit = medians(samples)
    return geomean(per_circuit.values()), sum(per_circuit.values())


def split_job(record: Mapping, started: float) -> Dict[str, float]:
    """Split one finished ``repro-job/1`` record into its phases.

    ``started`` is ``worker.started``, which the record only carries
    while the job runs, so the caller captures it then. Submit to done
    is ``updated - created``; queue wait ends when the supervisor
    spawns the worker; what the worker's run adds beyond the plan
    itself (``result.seconds``) is spawn, import, result write and
    reap.
    """
    created = float(record["created"])
    done = float(record["updated"])
    plan = float(record["result"]["seconds"])
    return {
        "latency_s": done - created,
        "queue_wait_s": started - created,
        "spawn_s": (done - started) - plan,
        "plan_s": plan,
    }


class Gate:
    """Counts attempted plans and failed ones, by reason.

    A plan passes when it certified clean, when its result fields equal
    the stored reference for its circuit (if one applies) and when they
    equal every earlier plan of the same circuit in this run.
    """

    def __init__(self, reference: Optional[Mapping[str, Mapping]] = None):
        self.reference = reference
        self.first: Dict[str, Dict] = {}
        self.attempted = 0
        self.failures: Counter = Counter()

    def record(self, circuit: str, result: Mapping, verified: bool) -> bool:
        self.attempted += 1
        fields = {k: result.get(k) for k in RESULT_FIELDS}
        reason = None
        if not verified:
            reason = "verify_failed"
        elif self.reference is not None and fields != {
            k: self.reference.get(circuit, {}).get(k) for k in RESULT_FIELDS
        }:
            reason = "reference_mismatch"
        elif self.first.setdefault(circuit, fields) != fields:
            reason = "repeat_mismatch"
        if reason is not None:
            self.failures[f"{reason}:{circuit}"] += 1
            return False
        return True

    def fail(self, reason: str) -> None:
        """An attempt that produced no checkable result."""
        self.attempted += 1
        self.failures[reason] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def ok_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


def iqr_share(values: Sequence[float]) -> float:
    """Quartile distance over the median: the spread the benchmark's
    bounds are checked against."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

