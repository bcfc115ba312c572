"""Shard-aware serving: a hash partition of the BN's reads.

A sharded deployment holds one :class:`~repro.network.bn.BehaviorNetwork`
like any other; its shards are fault domains over the network's one read
index.  The sampler itself is
:func:`repro.network.sampling.computation_subgraphs_batch` — the same
function the unsharded tier calls, over the same
:class:`~repro.network.sharding.ShardIndex`; a sharded deployment differs
only in what it passes as ``owner`` / ``dead_shards`` / ``on_exchange``
(InferTurbo-style gather/apply/scatter over a partitioned graph, PAPERS.md):

* ``owner`` is the owner shard of every index position,
  :func:`~repro.network.sharding.shard_of` of its uid;
* ``dead_shards`` are the shards whose probe failed: their rows select
  nothing (partial serving);
* ``on_exchange`` sees each hop's union frontier split by owner shard (the
  *frontier exchange*), and is where the ``turbo.shard.frontier.*`` series
  and span events are emitted.

:class:`ShardRouter` owns the per-shard fault gates (components
``bn_shard{i}`` registered with the deployment's
:class:`~repro.system.faults.FaultInjector` and optional per-shard
:class:`~repro.system.faults.CircuitBreaker`s — a dead shard degrades the
batch to the surviving shards' partial frontier instead of raising) and the
``turbo.shard.*`` metrics.  Serving runs in one process: a pool of forked
serving workers measured no faster than this in-process path on the wall
clock (``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..network.sampling import (
    BatchSampleStats,
    ComputationSubgraph,
    computation_subgraphs_batch,
)
from ..network.sharding import ShardIndex, shard_of
from ..obs.tracing import current_span
from .storage import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.bn import BehaviorNetwork
    from ..obs.metrics import MetricsRegistry
    from .faults import CircuitBreaker, FaultInjector

__all__ = ["ShardRouter"]


class ShardRouter:
    """Serves batch samples from ``n_shards`` hash partitions of one network.

    One router fronts one :class:`~repro.network.bn.BehaviorNetwork`: it
    reads the network's index (setting the ``turbo.shard.index.*`` /
    ``owned_*`` gauges when the version moves), derives the owner map once
    per node set, gates every batch through the per-shard fault components
    ``bn_shard{i}``, and degrades to the surviving shards' partial frontier
    when a shard is down.  ``metrics`` may be attached after construction
    (the Turbo orchestrator wires its registry in at deploy time).
    """

    #: :class:`~repro.system.service.Sampler` tier name.
    tier = "sharded"

    def __init__(
        self,
        bn: "BehaviorNetwork",
        n_shards: int,
        faults: "FaultInjector | None" = None,
        metrics: "MetricsRegistry | None" = None,
        breakers: dict[int, "CircuitBreaker"] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.bn = bn
        self.n_shards = n_shards
        self.faults = faults
        self.metrics = metrics
        self.breakers = dict(breakers or {})
        self._seen_version: int | None = None
        #: ``(node_ids, owner)``: the owner shard of every position of the
        #: node set it was derived from.
        self._owner: tuple[np.ndarray, np.ndarray] | None = None

    def _inc(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    # ------------------------------------------------------------------
    # Index
    # ------------------------------------------------------------------
    def current_index(self) -> tuple[ShardIndex, np.ndarray]:
        """The network's read index and its owner map; sets the index gauges
        on a new version."""
        index = self.bn.index()
        if self._owner is None or self._owner[0] is not index.node_ids:
            # Node ids are carried by identity until a node is registered.
            self._owner = (index.node_ids, shard_of(index.node_ids, self.n_shards))
        owner = self._owner[1]
        if self._seen_version == index.version:
            return index, owner
        self._seen_version = index.version
        if self.metrics is not None:
            self.metrics.gauge("turbo.shard.index.pairs").set(index.num_pairs)
            self.metrics.gauge("turbo.shard.index.nodes").set(index.num_nodes)
            nodes = np.bincount(owner, minlength=self.n_shards).tolist()
            half_edges = np.bincount(
                owner, weights=np.diff(index.indptr), minlength=self.n_shards
            )
            for s, half in enumerate(half_edges.astype(np.int64).tolist()):
                self.metrics.gauge(f"turbo.shard.owned_nodes.shard{s}").set(nodes[s])
                self.metrics.gauge(f"turbo.shard.owned_half_edges.shard{s}").set(half)
        return index, owner

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def probe_shards(self, now: float | None = None) -> tuple[set[int], float]:
        """Gate every shard once; returns ``(dead_shards, gate_seconds)``.

        Breaker first (an open breaker short-circuits without probing),
        then the fault injector; probe outcomes feed back into the breaker.
        With no faults and no breakers this draws nothing and charges 0.0 —
        the healthy path stays bit-identical to the unsharded server.
        """
        dead: set[int] = set()
        gate_seconds = 0.0
        if self.faults is None and not self.breakers:
            return dead, gate_seconds
        for s in range(self.n_shards):
            breaker = self.breakers.get(s)
            if breaker is not None and not breaker.allow():
                dead.add(s)
                continue
            if self.faults is not None:
                try:
                    gate_seconds += self.faults.before_call(f"bn_shard{s}", now=now)
                except StorageError:
                    dead.add(s)
                    if breaker is not None:
                        breaker.record_failure()
                    self._inc("turbo.shard.down")
                    continue
            if breaker is not None:
                breaker.record_success()
        return dead, gate_seconds

    def sample_batch(
        self,
        targets: Sequence[int],
        hops: int = 2,
        fanout: int | None = 25,
        allowed: set[int] | None = None,
        now: float = 0.0,
    ) -> tuple[list[ComputationSubgraph], BatchSampleStats, float]:
        """Frontier-exchange batch sampling; ``(subgraphs, stats, gate_s)``.

        Bit-exact against the unsharded sampler over the same index while
        every shard is healthy; with dead shards the surviving frontier is
        served and ``stats.partial`` lists the affected request indices.
        """
        index, owner = self.current_index()
        dead, gate_seconds = self.probe_shards(now=now)
        span = current_span()

        def on_exchange(hop: int, rows_by_shard: dict[int, int], lost: int) -> None:
            rows = sum(rows_by_shard.values())
            self._inc("turbo.shard.frontier.exchanges", len(rows_by_shard))
            self._inc("turbo.shard.frontier.keys", rows)
            if lost:
                self._inc("turbo.shard.frontier.lost", lost)
            if span is not None:
                span.incr("turbo.shard.frontier.exchanges", len(rows_by_shard))
                span.add_event(
                    "shard.frontier.exchange",
                    at=now,
                    hop=hop,
                    shards=len(rows_by_shard),
                    keys=rows,
                    lost=lost,
                )

        subgraphs, stats = computation_subgraphs_batch(
            index,
            targets,
            hops=hops,
            fanout=fanout,
            allowed=allowed,
            owner=owner,
            n_shards=self.n_shards,
            dead_shards=dead,
            on_exchange=on_exchange,
        )
        if stats.partial:
            self._inc("turbo.shard.partial_requests", len(stats.partial))
            if span is not None:
                span.incr("turbo.shard.partial_requests", len(stats.partial))
        return subgraphs, stats, gate_seconds
