"""Order statistics shared by the benchmark's metrics."""

from __future__ import annotations

import math
from statistics import median, quantiles
from typing import Sequence

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; fewer would make it the maximum of a handful of draws.
MIN_BEYOND = 10


def samples_beyond(count: int, q: int) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return count - math.ceil(count * q / 100)


def tail_percentile(values: Sequence[float], q: int) -> float | None:
    """The ``q``-th percentile (1-99, linear between closest ranks), or
    None when fewer than ``MIN_BEYOND`` samples lie beyond it."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return quantiles(values, n=100, method="inclusive")[q - 1]


__all__ = ["median", "samples_beyond", "tail_percentile"]
