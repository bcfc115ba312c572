"""Named counters, gauges and histograms behind the system telemetry.

The :class:`MetricsRegistry` is the single store of operational metrics:
``repro.system.monitoring.SystemMonitor`` (the dashboard view) and
``LatencyHistogram`` are thin views over it, so every number a dashboard
shows reconciles exactly with a named metric here — a contract pinned by
``tests/test_system/test_tracing.py``.

Metric instruments are deliberately minimal and dependency-free:

* :class:`Counter` — monotonically increasing count;
* :class:`Gauge` — last-write-wins value;
* :class:`Histogram` — reservoir of samples with mean/percentile queries
  (unit-agnostic; the latency views convert seconds to milliseconds).

Metric names are dotted paths (``turbo.requests``,
``turbo.latency.sampling``); the canonical name list lives in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing counter."""

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be finite and non-negative) to the counter."""
        if not 0 <= amount < math.inf:  # NaN fails both comparisons
            raise ValueError("counters only increase, by a finite amount")
        self.value += amount

    def as_int(self) -> int:
        """The counter value as an integer (dashboard convenience)."""
        return int(self.value)


class Gauge:
    """A last-write-wins instantaneous value."""

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level of the measured quantity."""
        self.value = float(value)


class Histogram:
    """Reservoir of samples with mean and percentile queries (unit-agnostic).

    Keeps exact ``count`` and ``total`` for all observations; percentile
    queries run over the first ``max_samples`` retained samples.
    """

    def __init__(self, max_samples: int = 100_000) -> None:
        if max_samples < 1:
            raise ValueError("max_samples must be positive")
        self.max_samples = max_samples
        self._samples: list[float] = []
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one sample (must be finite and non-negative).

        One NaN would make every later ``mean`` and percentile NaN.
        """
        if not 0 <= value < math.inf:
            raise ValueError("a sample must be finite and non-negative")
        self.count += 1
        self.total += value
        if len(self._samples) < self.max_samples:
            self._samples.append(value)

    @property
    def mean(self) -> float:
        """Mean over *all* observations (not just the retained reservoir)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, percentile: float) -> float:
        """Sample percentile over the retained reservoir (0 when empty)."""
        if not self._samples:
            return 0.0
        return float(np.percentile(self._samples, percentile))


class MetricsRegistry:
    """Create-on-first-use registry of named metric instruments.

    ``counter``/``gauge``/``histogram`` return the existing instrument for
    a name or create it; a name is bound to one instrument kind for the
    registry's lifetime (mixing kinds raises).
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def _check_unique(self, name: str, kind: dict) -> None:
        for store in (self.counters, self.gauges, self.histograms):
            if store is not kind and name in store:
                raise ValueError(f"metric {name!r} already registered as another kind")

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        if name not in self.counters:
            self._check_unique(name, self.counters)
            self.counters[name] = Counter()
        return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        if name not in self.gauges:
            self._check_unique(name, self.gauges)
            self.gauges[name] = Gauge()
        return self.gauges[name]

    def histogram(self, name: str, factory=Histogram) -> Histogram:
        """The histogram under ``name`` (created on first use via ``factory``).

        ``factory`` lets views register a :class:`Histogram` subclass (the
        latency views add millisecond-flavored accessors); it is ignored
        when the name already exists.
        """
        if name not in self.histograms:
            self._check_unique(name, self.histograms)
            self.histograms[name] = factory()
        return self.histograms[name]

    def snapshot(self) -> dict:
        """All metric values as one plain dict (JSON-serializable)."""
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
            "histograms": {
                name: {
                    "count": h.count,
                    "mean": h.mean,
                    "p50": h.percentile(50),
                    "p99": h.percentile(99),
                }
                for name, h in sorted(self.histograms.items())
            },
        }

    def render(self) -> str:
        """Plain-text metrics snapshot (the ``repro trace`` CLI prints it)."""
        lines = ["metrics:"]
        for name, c in sorted(self.counters.items()):
            lines.append(f"  {name:<32} {c.value:12.0f}")
        for name, g in sorted(self.gauges.items()):
            lines.append(f"  {name:<32} {g.value:12.2f}")
        for name, h in sorted(self.histograms.items()):
            lines.append(
                f"  {name:<32} count={h.count:<7d} mean={1000 * h.mean:9.2f}ms"
                f"  p99={1000 * h.percentile(99):9.2f}ms"
            )
        return "\n".join(lines)
