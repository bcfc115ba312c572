"""Observability subsystem: tracing, metrics and training profiling.

The paper's Section V claims rest on per-stage latency accounting (Fig. 8a)
and on production-style operational telemetry.  This package makes both
first-class, in the spirit of production GNN-serving systems (BRIGHT,
InferTurbo):

* :mod:`repro.obs.tracing` — per-request span trees.  Every
  ``Turbo.predict`` call produces a ``request`` root span with
  ``bn_sample`` / ``feature_fetch`` / ``inference`` / ``fallback``
  children, simulated-clock timestamps, retry/degradation annotations and
  fault events stamped by the injector on the span that absorbed them.
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of named counters,
  gauges and histograms.  ``repro.system.monitoring`` is a thin view over
  it, so dashboard counters and metric values reconcile exactly.
* :mod:`repro.obs.export` — JSONL span exporter/loader plus the
  span-derived latency table that validates the tracer against the
  latency model bit-for-bit (``benchmarks/bench_fig8a_response_time.py``).
* :mod:`repro.obs.profiling` — wall-clock profiling hooks for the offline
  training loops (per-epoch and per-stage timings, sampled-node counts).

See ``docs/OBSERVABILITY.md`` for the span model, metric names and the
exporter format.
"""

from .export import (
    latency_table_from_spans,
    load_spans_jsonl,
    rebuild_trees,
    write_spans_jsonl,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profiling import NullProfiler, TrainProfiler
from .tracing import (
    Span,
    TraceContext,
    Tracer,
    assert_all_traced,
    current_span,
    render_span_tree,
    use_span,
)

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "current_span",
    "use_span",
    "render_span_tree",
    "assert_all_traced",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TrainProfiler",
    "NullProfiler",
    "write_spans_jsonl",
    "load_spans_jsonl",
    "rebuild_trees",
    "latency_table_from_spans",
]
