"""Sample statistics for the benchmark: one percentile definition.

Every latency the benchmark reports goes through :func:`percentile`,
the nearest-rank percentile (the ``inverted_cdf`` method of
``numpy.percentile``): the smallest sample such that at least ``q``
percent of the sample is less than or equal to it.  It always returns
an observed value, never an interpolation.

A tail percentile is only meaningful when enough samples lie beyond
it; :func:`supported` says whether at least ``MIN_BEYOND`` samples do.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["MIN_BEYOND", "median", "percentile", "supported"]

#: samples that must lie strictly above a reported tail percentile
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values: Sequence[float]) -> float:
    """The nearest-rank median (an observed sample, as for every timing)."""
    return percentile(values, 50.0)


def supported(count: int, q: float) -> bool:
    """Whether ``count`` samples leave ``MIN_BEYOND`` above the ``q``-th."""
    return count - math.ceil(q / 100.0 * count) >= MIN_BEYOND
