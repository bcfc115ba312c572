"""Chunked edge-stream generator for shard-scale BN workloads.

The full-graph lambda benchmark needs a BN of 10⁵–10⁷ typed edges over
10⁵–10⁶ users — orders of magnitude past what
:func:`~repro.datagen.datasets.make_d1` materializes as per-user
``BehaviorLog`` objects.  This module skips the log layer entirely and
streams *edge contribution chunks*: columnar
``(lo, hi, code, weight)`` arrays ready for one
:meth:`~repro.network.bn.BehaviorNetwork.add_weights` call each, with a
scalar per-chunk timestamp (the window-job fast path).  The full edge set
is never materialized — peak memory is one chunk.

Determinism is *per chunk*, not per stream: chunk ``i`` is drawn from
``SeedSequence([seed, i])``, so any slice of the stream can be regenerated
independently (a benchmark can re-stream the same workload into a second
network) and the result is independent of how many chunks were consumed
before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .behavior_types import BehaviorType

__all__ = ["ScaleConfig", "edge_stream"]

_DAY = 86_400.0


@dataclass(frozen=True)
class ScaleConfig:
    """Shape of a streamed shard-scale workload.

    ``n_edges`` counts *contributions*, not distinct pairs — collisions
    accumulate weight exactly as repeated co-occurrence does in production
    ingestion.  ``span_days`` spreads the per-chunk timestamps over a
    window history so TTL bookkeeping sees realistic buckets.
    """

    n_users: int = 1_000_000
    n_edges: int = 10_000_000
    chunk_edges: int = 250_000
    edge_types: tuple[BehaviorType, ...] = field(
        default_factory=lambda: tuple(BehaviorType)[:3]
    )
    span_days: float = 30.0
    seed: int = 0

    def validate(self) -> None:
        """Raise ``ValueError`` on shapes the stream cannot produce."""
        if self.n_users < 2:
            raise ValueError("need at least 2 users to form an edge")
        if self.n_edges <= 0 or self.chunk_edges <= 0:
            raise ValueError("n_edges and chunk_edges must be positive")
        if not self.edge_types:
            raise ValueError("need at least one edge type")

    @property
    def n_chunks(self) -> int:
        """How many chunks :func:`edge_stream` yields for this config."""
        return -(-self.n_edges // self.chunk_edges)


@dataclass(frozen=True)
class EdgeChunk:
    """One columnar batch of edge contributions (``lo < hi`` guaranteed)."""

    index: int
    lo: np.ndarray
    hi: np.ndarray
    codes: np.ndarray
    weights: np.ndarray
    timestamp: float

    def __len__(self) -> int:
        return len(self.lo)


def _make_chunk(config: ScaleConfig, index: int, size: int) -> EdgeChunk:
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, index]))
    n = config.n_users
    u = rng.integers(0, n, size=size, dtype=np.int64)
    # v = u + (1 + offset) mod n with offset in [0, n-2] can never equal u,
    # so no rejection loop and the degree distribution stays uniform.
    off = rng.integers(0, n - 1, size=size, dtype=np.int64)
    v = (u + 1 + off) % n
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    codes = rng.integers(0, len(config.edge_types), size=size, dtype=np.int64)
    weights = rng.random(size) + 0.05
    # Scalar per-chunk stamp (the window-job fast path): chunks march
    # forward through the span like closing window jobs do.
    timestamp = (index + 1) / config.n_chunks * config.span_days * _DAY
    return EdgeChunk(
        index=index, lo=lo, hi=hi, codes=codes, weights=weights, timestamp=timestamp
    )


def edge_stream(config: ScaleConfig) -> Iterator[EdgeChunk]:
    """Yield the workload chunk by chunk; never holds more than one chunk.

    Each chunk is independently seeded from ``(config.seed, chunk_index)``:
    re-streaming yields bit-identical chunks regardless of prior consumption.
    """
    config.validate()
    remaining = config.n_edges
    for index in range(config.n_chunks):
        size = min(config.chunk_edges, remaining)
        remaining -= size
        yield _make_chunk(config, index, size)
