"""Simulated wall clock for the online-system benchmarks.

All latency in :mod:`repro.system` is *charged*, never slept: components
report how long an operation would take under the latency model, and the
clock advances accordingly.  This keeps the Fig. 8 / Section V benchmarks
fast and deterministic.
"""

from __future__ import annotations

import math

__all__ = ["SimulatedClock"]


class SimulatedClock:
    """A monotonically advancing simulated clock (seconds)."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance time; returns the new now."""
        if not 0 <= seconds < math.inf:  # also NaN: it would poison every later comparison
            raise ValueError(f"cannot advance the clock by {seconds!r} seconds")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Jump forward to ``timestamp`` (no-op if already past it)."""
        if not math.isfinite(timestamp):
            raise ValueError(f"cannot advance the clock to {timestamp!r}")
        if timestamp > self._now:
            self._now = timestamp
        return self._now
