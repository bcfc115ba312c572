"""Hierarchical time windows for BN construction (Section III-A).

The paper employs ``W = [1 hour, 2 hours, ..., 12 hours, 1 day]``.  Because a
co-occurrence inside a small window is *also* caught by every larger window,
summing the per-window weights gives higher total weight to relations that
appear at shorter intervals — the mechanism that amplifies the temporal
aggregation of fraud rings.
"""

from __future__ import annotations

import math

from ..datagen.entities import DAY, HOUR

__all__ = ["PAPER_WINDOWS", "FAST_WINDOWS", "validate_windows"]

#: The exact hierarchy used in the paper's experiments.
PAPER_WINDOWS: tuple[float, ...] = tuple(i * HOUR for i in range(1, 13)) + (DAY,)

#: A coarser hierarchy used by the test-suite and benchmarks for speed; keeps
#: the strictly-increasing multi-granularity structure.
FAST_WINDOWS: tuple[float, ...] = (HOUR, 3 * HOUR, 6 * HOUR, 12 * HOUR, DAY)


def validate_windows(windows: tuple[float, ...] | list[float]) -> tuple[float, ...]:
    """Check that ``windows`` is non-empty, finite, positive and strictly increasing."""
    windows = tuple(float(w) for w in windows)
    if not windows:
        raise ValueError("at least one time window is required")
    if not all(math.isfinite(w) and w > 0 for w in windows):
        raise ValueError("time windows must be finite and positive")
    if any(b <= a for a, b in zip(windows, windows[1:])):
        raise ValueError("time windows must be strictly increasing (W_i < W_i+1)")
    return windows
