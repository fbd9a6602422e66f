"""Arithmetic shared by the benchmark: percentiles, exponent fits, span self
time and failure counting.  Standard library only, so it runs (and is tested)
without importing the package under test."""

from __future__ import annotations

import math
import statistics

# Percentiles considered for a tail figure, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)
# A tail percentile is reported only when at least this many samples lie
# beyond it; fewer make the figure one or two outliers.
MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def _rank(count: int, pct: float) -> int:
    # rounding first keeps e.g. 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def samples_beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile of ``count``."""
    return count - _rank(count, pct)


def tail_percentile(values, candidates=TAIL_CANDIDATES, min_beyond=MIN_BEYOND):
    """Highest candidate percentile with ``min_beyond`` samples beyond it, as
    ``(pct, value)``; ``None`` when even the lowest candidate has too few."""
    for pct in candidates:
        if samples_beyond(len(values), pct) >= min_beyond:
            return pct, percentile(values, pct)
    return None


def summarize(values) -> dict:
    """Median, sample count and the tail percentile the count supports."""
    out = {"median": statistics.median(values), "count": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out


def fit_exponent(sizes, values) -> float:
    """Least-squares slope of log(value) against log(size).

    For a per-step cost this is 1 when a run is O(N^2) and 0 when it is O(N).
    """
    if len(sizes) != len(values) or len(sizes) < 2:
        raise ValueError("need at least two (size, value) pairs")
    xs = [math.log(s) for s in sizes]
    ys = [math.log(v) for v in values]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def self_times(parents, durations) -> list:
    """Each span's duration minus the durations of its direct children.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    child = [0.0] * len(durations)
    for parent, duration in zip(parents, durations):
        if parent >= 0:
            child[parent] += duration
    return [d - c for d, c in zip(durations, child)]


def failure_counts(outcomes) -> tuple:
    """``(attempted, failed)`` over per-operation outcomes.

    An outcome is a dict with ``exit_code`` and a list of ``problems`` found by
    the output check; an operation fails if it exited nonzero or has any
    problem.
    """
    attempted = 0
    failed = 0
    for outcome in outcomes:
        attempted += 1
        if outcome["exit_code"] != 0 or outcome["problems"]:
            failed += 1
    return attempted, failed

