"""Deterministic latency model for the storage and serving substrate.

Operation costs approximate a production MySQL + Redis deployment: disk-backed
queries cost milliseconds and scale with rows touched; in-memory cache reads
cost tens of microseconds.  A multiplicative lognormal jitter gives realistic
tail percentiles (p99/p999 in Section V).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = ["LatencyModel", "LatencyBreakdown"]


@dataclass(slots=True)
class LatencyModel:
    """Per-operation base costs in seconds, plus tail jitter.

    ``charge`` returns a sampled duration for one operation; callers
    accumulate the durations into a request's latency breakdown.
    """

    db_query: float = 0.0072
    db_row: float = 2.4e-5
    db_write: float = 0.004
    cache_get: float = 0.00012
    cache_set: float = 0.00015
    #: in-memory aggregation over cached logs (per window scan / per log row).
    mem_scan_base: float = 0.00022
    mem_row: float = 1.1e-6
    #: per-node cost of assembling a sampled subgraph from cached adjacency.
    sample_per_node: float = 0.0006
    network_rtt: float = 0.002
    model_forward_base: float = 0.13
    model_forward_per_node: float = 0.0008
    #: scoring one application on the pre-Turbo rule stack (scorecard /
    #: block-list) — in-memory rule evaluation, no graph or storage access.
    fallback_score: float = 0.0009
    jitter_sigma: float = 0.35
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        for spec in fields(self):  # every cost and jitter_sigma; not seed, _rng
            if spec.type == "float" and not 0.0 <= getattr(self, spec.name) < math.inf:
                raise ValueError(f"{spec.name} must be finite and >= 0")
        self._rng = np.random.default_rng(self.seed)

    def _jitter(self) -> float:
        if self.jitter_sigma <= 0:
            return 1.0
        return float(self._rng.lognormal(0.0, self.jitter_sigma))

    def jitters(self, k: int) -> list[float]:
        """``k`` jitter factors from one draw; the stream moves exactly as
        under ``k`` :meth:`_jitter` calls (pinned by ``test_clock_latency.py``)."""
        if self.jitter_sigma <= 0:
            return [1.0] * k
        return self._rng.lognormal(0.0, self.jitter_sigma, size=k).tolist()

    def price(self, seconds: float, terms: list[list[float]]) -> float:
        """``seconds`` plus every term of a planned charge walk, one draw for all.

        A term is ``[start, base, extra, base, extra, ...]``: ``start`` joins
        flat (``0.0``, or a probe's spike), each op adds ``base * jitter +
        extra`` left to right, then the term joins ``seconds`` — the nesting
        of the scalar ``charge_*`` sums, so the result is theirs bit for bit.
        """
        jitter = self.jitters((sum(map(len, terms)) - len(terms)) // 2)
        op = 0
        for term in terms:
            subtotal = term[0]
            for k in range(1, len(term), 2):
                subtotal += term[k] * jitter[op] + term[k + 1]
                op += 1
            seconds += subtotal
        return seconds

    def db_query_cost(self, rows: int = 1) -> float:
        """Base (un-jittered) cost of one query touching ``rows`` rows."""
        return self.db_query + self.db_row * max(0, rows)

    def charge_db_query(self, rows: int = 1) -> float:
        """Cost of one disk-backed query touching ``rows`` rows."""
        return self.db_query_cost(rows) * self._jitter()

    def charge_db_write(self, rows: int = 1) -> float:
        """Cost of one disk-backed write of ``rows`` rows."""
        return (self.db_write + 0.5 * self.db_row * max(0, rows)) * self._jitter()

    def charge_cache_get(self) -> float:
        """Cost of one in-memory cache read."""
        return self.cache_get * self._jitter()

    def mem_scan_cost(self, rows: int = 1) -> float:
        """Base (un-jittered) cost of aggregating ``rows`` cached rows."""
        return self.mem_scan_base + self.mem_row * max(0, rows)

    def charge_mem_scan(self, rows: int = 1) -> float:
        """Cost of aggregating ``rows`` cached rows in memory."""
        return self.mem_scan_cost(rows) * self._jitter()

    def charge_network(self) -> float:
        """Cost of one network round-trip."""
        return self.network_rtt * self._jitter()

    def charge_fallback(self) -> float:
        """Cost of scoring one request on the degraded rule-based path."""
        return self.fallback_score * self._jitter()

    def charge_model_forward(self, n_nodes: int) -> float:
        """Cost of one model forward over an ``n_nodes`` subgraph."""
        return (
            self.model_forward_base + self.model_forward_per_node * max(1, n_nodes)
        ) * self._jitter()

    def charge_model_forward_batch(self, sizes: "list[int]") -> list[float]:
        """Per-request cost of one *packed* forward over a micro-batch.

        The forward's fixed cost (weight loads, kernel launches, framework
        overhead — ``model_forward_base``) is paid once and amortized evenly
        across the batch; the per-node cost stays per request.  One jitter
        draw covers the whole batch because it is one physical forward.
        """
        if not sizes:
            return []
        jitter = self._jitter()
        base = self.model_forward_base / len(sizes)
        return [
            (base + self.model_forward_per_node * max(1, n)) * jitter for n in sizes
        ]


@dataclass(slots=True)
class LatencyBreakdown:
    """Per-module latency of one prediction request (Fig. 8a's series)."""

    sampling: float = 0.0
    features: float = 0.0
    prediction: float = 0.0

    @property
    def total(self) -> float:
        """End-to-end request latency in seconds."""
        return self.sampling + self.features + self.prediction

    def as_millis(self) -> dict[str, float]:
        """Per-module latencies in milliseconds."""
        return {
            "subgraph_sampling_ms": 1000.0 * self.sampling,
            "feature_ms": 1000.0 * self.features,
            "prediction_ms": 1000.0 * self.prediction,
            "total_ms": 1000.0 * self.total,
        }
