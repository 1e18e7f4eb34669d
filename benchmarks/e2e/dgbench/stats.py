"""Order statistics for latency samples and for run-to-run spread."""

from __future__ import annotations

import statistics
from typing import Sequence

#: Percentiles the harness may report, lowest first.
LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sample."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = int(len(ordered) * p / 100.0)
    return ordered[min(rank, len(ordered) - 1)]


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``p``."""
    return count - 1 - min(int(count * p / 100.0), count - 1)


def highest_supported(count: int) -> "float | None":
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it."""
    supported = [p for p in LADDER if samples_beyond(count, p) >= MIN_BEYOND]
    return supported[-1] if supported else None


def quartiles(values: Sequence[float]) -> "tuple[float, float, float]":
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


# ----------------------------------------------------------------------
# Estimates that shrug off a noisy stretch of the run
# ----------------------------------------------------------------------
# This host slows by 20-70 % for stretches of 0.3 s to several seconds
# (a busy sibling hyper-thread); the slow stretches, not the program,
# set a phase's plain mean and tail.  So a phase's time-ordered samples
# are cut into consecutive windows, the statistic is taken per window,
# and the window at the *calm quartile* is reported: what the program
# does on a quiet host, robust to a run that is noisy most of the time.

#: Windows per phase, and the fewest samples a window may hold.
WINDOWS = 10
MIN_WINDOW = 30


def windows(samples: Sequence[float]) -> "list[Sequence[float]]":
    """Consecutive, near-equal slices of time-ordered samples."""
    size = len(samples)
    count = max(1, min(WINDOWS, size // MIN_WINDOW))
    return [samples[i * size // count : (i + 1) * size // count] for i in range(count)]


def calm(values: Sequence[float], better: str = "lower") -> float:
    """The quartile of ``values`` nearest their good end (nearest rank)."""
    ordered = sorted(values, reverse=better == "higher")
    return ordered[(len(ordered) - 1) // 4]


def calm_percentile(samples: Sequence[float], p: float) -> float:
    """Calm quartile over windows of each window's ``p``-th percentile."""
    return calm([percentile(sorted(window), p) for window in windows(samples)])


def calm_rate(samples: Sequence[float], per_sample: int = 1) -> float:
    """Calm quartile over windows of operations per busy second."""
    return calm(
        [per_sample * len(window) / sum(window) for window in windows(samples)],
        better="higher",
    )
