"""Timing helpers: quantiles, the tail percentile, host drift, /proc readers."""

from __future__ import annotations

import math
import os
import resource
import statistics
import time


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile (the value with ``pct``% of samples at or below it)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: list[float], pct: float) -> tuple[float, int]:
    """The ``pct`` percentile and how many samples lie beyond it."""
    value = percentile(samples, pct)
    return value, sum(1 for sample in samples if sample > value)


def ref_loop_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-Python loop: the host-speed probe."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_TICKS = os.sysconf("SC_CLK_TCK")


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU of another process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rpartition(")")[2].split()
    # After the command name: state is field 3, utime 14 and stime 15.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
