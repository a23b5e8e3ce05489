"""Order statistics used by every report: medians, quartiles, tails."""

from __future__ import annotations

import math
import statistics

__all__ = ["median", "quartiles", "spread", "tail_percentile", "percentile"]

#: Percentiles a tail may be reported at, each with the fewest samples
#: that leave ten beyond it.
_TAIL_LADDER = ((50.0, 20), (75.0, 40), (90.0, 100), (95.0, 200), (99.0, 1000), (99.9, 10000))


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    A single value is its own three quartiles.
    """
    values = list(values)
    if len(values) < 2:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def tail_percentile(n_samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it.

    With fewer than twenty samples not even the median has ten beyond
    it; the median is reported anyway, next to the sample count.
    """
    best = _TAIL_LADDER[0][0]
    for p, needed in _TAIL_LADDER:
        if n_samples >= needed:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (the smallest value with ``p`` % at or below)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])
