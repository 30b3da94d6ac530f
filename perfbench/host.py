"""Host speed, host drift and peak memory.

On a shared VM the same single-threaded work takes from 0.12 to 0.19
CPU-seconds within a few seconds, and whole runs minutes apart differ
by a third: other tenants share the physical cores. :class:`HostSpeed`
times a fixed calibration slice between measured steps and scales the
run's timings to a reference host speed, so comparing runs compares
the program, not the neighbours. The raw slice time and the
share of CPU time the hypervisor stole stay in the output as evidence.
The kernel's RSS high-water mark, restarted after set-up or before a
layer, gives exact peak resident memory for that stretch of the run.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Optional

import numpy as np

#: CPU seconds of one calibration slice at the reference host speed
#: (the median slice on an unloaded 2-vCPU VM). A run's timings are
#: multiplied by REF_SLICE_S / (its median slice).
REF_SLICE_S = 0.030


def calibration_slice() -> float:
    """CPU seconds for a fixed mix of interpreter and NumPy work.

    Single-threaded on purpose: a BLAS call would time thread start-up
    and the other vCPU's load instead of this one's speed.
    """
    start = time.process_time()
    table = {}
    acc = 0
    for i in range(60_000):
        acc = (acc * 31 + i) % 1_000_003
        table[acc & 1023] = i
    x = np.random.default_rng(12345).random(200_000)
    for _ in range(2):
        x = np.sort(np.sin(x) * 7.0 % 1.0)
    return time.process_time() - start


class HostSpeed:
    """Calibration slices taken between measured steps of one run."""

    def __init__(self):
        self.slices: List[float] = []
        calibration_slice()  # first call pays NumPy's lazy set-up

    def sample(self, n: int = 1) -> None:
        self.slices.extend(calibration_slice() for _ in range(n))

    @property
    def slice_s(self) -> float:
        return statistics.median(self.slices)

    @property
    def scale(self) -> float:
        """Factor from this run's CPU-seconds to reference seconds."""
        return REF_SLICE_S / self.slice_s


def cpu_jiffies() -> Optional[List[int]]:
    """The aggregate ``cpu`` line of ``/proc/stat``, or ``None`` off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
    except OSError:
        return None
    return [int(x) for x in fields[1:]]


def steal_ratio(before: Optional[List[int]], after: Optional[List[int]]) -> float:
    """Stolen share of all CPU time between two ``cpu_jiffies`` reads."""
    if not before or not after or len(before) < 8:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is already in user
    return delta[7] / total if total > 0 else 0.0


def reset_peak_rss() -> bool:
    """Restart this process's RSS high-water mark (Linux >= 4.0).

    Returns False where that is not possible; ``peak_rss_bytes`` then
    covers the whole process lifetime.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as f:
            f.write("5")
    except OSError:
        return False
    return True


def peak_rss_bytes() -> int:
    """This process's RSS high-water mark (``VmHWM``) since start or
    the last ``reset_peak_rss``; 0 where it cannot be read."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return 0
