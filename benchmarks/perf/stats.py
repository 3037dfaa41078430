"""Percentiles with a minimum-sample rule, the script profile, spreads."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 5


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def min_samples(q: float) -> int:
    """Fewest samples from which the ``q``-th percentile may be reported.

    >>> min_samples(50), min_samples(90), min_samples(95)
    (10, 50, 100)
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    return math.ceil(MIN_BEYOND * 100 / (100 - max(q, 100 - q)) - 1e-9)


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile, with no sample rule.

    End-to-end percentiles go through :func:`profile_percentile`, which
    enforces the rule; this alone serves ungated per-layer numbers.
    """
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def profile(rounds: Sequence[Sequence[float]]) -> list:
    """Per script position, the fastest of the rounds.

    Every round plays the same script, so position ``i`` of each round
    is the same operation on the same data.  Interference on a shared
    host comes in bursts that slow whichever operations they overlap and
    never speed one up, so the least time seen at a position is the
    best estimate of what the operation costs; a burst moves it only if
    it hits that position in every round.
    """
    return [min(column) for column in zip(*rounds)]


def profile_percentile(rounds: Sequence[Sequence[float]], q: float) -> tuple:
    """``(value, samples)``: the ``q``-th percentile over the profile.

    The minimum-sample rule counts every measurement behind the profile
    (positions x rounds).
    """
    samples = sum(len(values) for values in rounds)
    if samples < min_samples(q):
        raise TooFewSamples(
            f"p{q:g} needs {min_samples(q)} samples, got {samples}"
        )
    return quantile(profile(rounds), q), samples


def rel_range(values: Sequence[float]) -> float:
    """(max - min) / median."""
    mid = statistics.median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def rel_iqr(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the driver's definition of spread."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0
