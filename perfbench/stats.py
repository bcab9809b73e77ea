"""Summary statistics for benchmark samples: medians, quartiles and the tail rule."""
from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, lowest first. The reported tail is the highest
# of these that leaves at least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values, p: float):
    """The p-th percentile by nearest rank: always one of the samples."""
    n = len(sorted_values)
    k = max(1, math.ceil(n * p / 100.0))
    return sorted_values[k - 1]


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of n samples beyond it.

    Below twenty samples no percentile from the median up qualifies; the
    median stands in then, because the maximum of a few samples moves too
    much from run to run to compare commits by.
    """
    for p in reversed(TAIL_LADDER):
        if n - math.ceil(n * p / 100.0) >= TAIL_MIN_BEYOND:
            return p
    return TAIL_LADDER[0]


def tail(values, p: float) -> dict:
    """The p-th percentile of a sample with its count and the samples beyond it."""
    s = sorted(values)
    if not s:
        raise ValueError("tail of an empty sample")
    n = len(s)
    beyond = n - math.ceil(n * p / 100.0)
    return {"value": nearest_rank(s, p), "percentile": p, "n": n,
            "beyond": beyond, "rule_met": beyond >= TAIL_MIN_BEYOND}


def summary(values) -> dict:
    """Median, first and third quartile and count of a sample."""
    values = list(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    s = summary(values)
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else math.inf
