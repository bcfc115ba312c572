"""Order statistics for latency samples."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["quantile", "supported_percentile"]


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``values`` (``0 <= q <= 1``), linearly
    interpolated between order statistics (numpy's default)."""
    if not len(values):
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    return float(np.quantile(values, q))


def supported_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it.

    The choosing-metrics rule: a p95 needs 200 samples, a p99 needs 1000.
    Below 20 samples only the median is supported.
    """
    if count < 20:
        return 50
    return max(50, min(99, math.floor(100 * (1 - 10 / count))))
