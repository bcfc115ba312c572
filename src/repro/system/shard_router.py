"""Cross-shard frontier exchange and index publication for sharded BN.

Turns the union-frontier sampler of
:func:`repro.network.sampling.computation_subgraphs_batch` into a
shard-aware protocol (ROADMAP item 1, InferTurbo-style gather/apply/scatter
over a partitioned graph):

* each hop, the not-yet-ranked ``(node, type)`` keys of the whole batch are
  deduplicated and split by owner shard (the *frontier exchange*);
* each shard ranks/selects its own nodes' neighbours from the published
  :class:`~repro.network.sharding.ShardIndex` (the same memoized
  deterministic top-``fanout`` selection the single-network sampler uses);
* the router merges the per-shard selections back into every request's BFS
  bookkeeping — bit-exact against the single-network sampler, pinned by
  ``tests/test_network/test_sharding.py``.

:class:`ShardRouter` owns publication (index → shared-memory segments via
:class:`~repro.network.shm.SharedSnapshotStore`, versioned and retired on
rebuild), the per-shard fault gates (components ``bn_shard{i}`` registered
with the deployment's :class:`~repro.system.faults.FaultInjector` and
optional per-shard :class:`~repro.system.faults.CircuitBreaker`s — a dead
shard degrades the batch to the surviving shards' partial frontier instead
of raising), and the ``turbo.shard.*`` metrics.

The OS-level parallel half — forked workers that attach the published
segments and serve sub-batches — is
:class:`~repro.system.shard_workers.ShardWorkerPool`; this module is the
sampling tier :mod:`repro.system.bn_server` imports and stays free of the
model / lambda / materialization code the workers need.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..datagen.behavior_types import BehaviorType
from ..network.sampling import (
    BatchSampleStats,
    ComputationSubgraph,
    slice_union_subgraphs,
)
from ..network.sharding import ShardIndex, ShardedBehaviorNetwork, _shard_of_int
from ..network.shm import SharedSnapshotStore
from ..obs.tracing import current_span
from .storage import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.metrics import MetricsRegistry
    from .faults import CircuitBreaker, FaultInjector
    from .shard_workers import ShardWorkerPool

__all__ = ["index_sample_batch", "ShardRouter"]

#: Selection key -> neighbour list; shared shape with the single-network
#: sampler's ``selection_cache`` so the BN server can reuse one dict.
SelectionCache = dict


def index_sample_batch(
    index: ShardIndex,
    targets: Sequence[int],
    hops: int = 2,
    fanout: int | None = 25,
    allowed: set[int] | None = None,
    selection_cache: SelectionCache | None = None,
    resolve: Callable[[int, list[tuple[int, BehaviorType]]], list[list[int]] | None]
    | None = None,
    on_exchange: Callable[[int, dict[int, list], int], None] | None = None,
) -> tuple[list[ComputationSubgraph], BatchSampleStats]:
    """Sample every target's ``G_v`` from a published shard index.

    Lockstep variant of ``computation_subgraphs_batch``: one frontier
    exchange per hop ranks all outstanding ``(node, type)`` keys, then each
    request replays its own BFS bookkeeping — selections are pure per key,
    so the per-request node lists (and the CSR bits built from
    :meth:`ShardIndex.induced_entries`) are bit-for-bit what the
    single-network sampler produces.

    ``resolve(shard_id, keys)`` overrides local selection (worker pools,
    fault gates); returning ``None`` marks the shard dead for this batch —
    its keys select nothing, affected requests are listed in
    ``stats.partial``, and dead selections are **not** written to
    ``selection_cache`` (a recovered shard must not serve stale emptiness).
    ``on_exchange(hop, groups_by_shard, lost_keys)`` observes each
    exchange for metrics/spans.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    types = index.types
    if selection_cache is None:
        selection_cache = {}
    n_requests = len(targets)
    selected_lists: list[list[int]] = [[int(t)] for t in targets]
    seen_sets: list[set[int]] = [{int(t)} for t in targets]
    frontiers: list[list[int]] = [[int(t)] for t in targets]
    dead_keys: set[tuple[int, BehaviorType]] = set()
    dead_shards: set[int] = set()
    partial = [False] * n_requests
    expansions = 0
    touched: set[tuple[int, BehaviorType]] = set()

    for hop in range(hops):
        pending: list[tuple[int, BehaviorType]] = []
        pending_set: set[tuple[int, BehaviorType]] = set()
        for frontier in frontiers:
            for node in frontier:
                for btype in types:
                    key = (node, btype)
                    if (
                        key in selection_cache
                        or key in pending_set
                        or key in dead_keys
                    ):
                        continue
                    pending_set.add(key)
                    pending.append(key)
        groups: dict[int, list[tuple[int, BehaviorType]]] = {}
        for key in pending:
            groups.setdefault(_shard_of_int(key[0], index.n_shards), []).append(key)
        lost = 0
        for shard_id in sorted(groups):
            keys = groups[shard_id]
            selections: list[list[int]] | None
            if resolve is not None:
                selections = resolve(shard_id, keys)
            else:
                selections = [
                    index.select_neighbors(node, btype, fanout)
                    for node, btype in keys
                ]
            if selections is None:
                dead_keys.update(keys)
                dead_shards.add(shard_id)
                lost += len(keys)
                continue
            for key, neighbors in zip(keys, selections):
                selection_cache[key] = neighbors
        if on_exchange is not None and pending:
            on_exchange(hop, groups, lost)

        for i in range(n_requests):
            frontier = frontiers[i]
            if not frontier:
                continue
            selected = selected_lists[i]
            seen = seen_sets[i]
            next_frontier: list[int] = []
            for node in frontier:
                for btype in types:
                    expansions += 1
                    key = (node, btype)
                    touched.add(key)
                    if key in dead_keys:
                        partial[i] = True
                        continue
                    for neighbor in selection_cache[key]:
                        if neighbor in seen:
                            continue
                        if allowed is not None and neighbor not in allowed:
                            continue
                        seen.add(neighbor)
                        selected.append(neighbor)
                        next_frontier.append(neighbor)
            frontiers[i] = next_frontier

    union_nodes: list[int] = []
    union_index: dict[int, int] = {}
    for nodes in selected_lists:
        for uid in nodes:
            if uid not in union_index:
                union_index[uid] = len(union_nodes)
                union_nodes.append(uid)
    ids = np.asarray(union_nodes, dtype=np.int64)
    positions = np.searchsorted(index.node_ids, ids)
    clipped = np.minimum(positions, max(index.num_nodes - 1, 0))
    if index.num_nodes:
        valid = index.node_ids[clipped] == ids
        positions = np.where(valid, clipped, -1).astype(np.int64)
    else:
        positions = np.full(ids.shape, -1, dtype=np.int64)
    live_shards = (
        None
        if not dead_shards
        else [s for s in range(index.n_shards) if s not in dead_shards]
    )
    typed_entries = index.induced_entries(positions, types, live_shards)
    if dead_shards:
        # Adjacency rows owned by dead shards were dropped too — flag every
        # request whose subgraph contains such a node.
        owner = np.full(len(union_nodes), -1, dtype=np.int64)
        inside = positions >= 0
        owner[inside] = index.owner_of_pos[positions[inside]]
        dead_row = np.isin(owner, list(dead_shards))
        for i, nodes in enumerate(selected_lists):
            if partial[i]:
                continue
            if any(dead_row[union_index[uid]] for uid in nodes):
                partial[i] = True

    subgraphs = slice_union_subgraphs(
        [int(t) for t in targets], selected_lists, union_index, typed_entries
    )

    stats = BatchSampleStats(
        requests=n_requests,
        sampled_nodes=sum(len(nodes) for nodes in selected_lists),
        unique_nodes=len(union_nodes),
        expansions=expansions,
        unique_expansions=len(touched),
        partial=tuple(i for i in range(n_requests) if partial[i]),
    )
    return subgraphs, stats


class ShardRouter:
    """Publishes the merged shard index and serves batch samples from it.

    One router fronts one :class:`ShardedBehaviorNetwork`: it re-publishes
    the read index through a :class:`SharedSnapshotStore` whenever the
    facade version moves (retiring the previous segments), gates every
    batch through the per-shard fault components ``{prefix}{i}``, and
    degrades to the surviving shards' partial frontier when a shard is
    down.  ``metrics`` may be attached after construction (the Turbo
    orchestrator wires its registry in at deploy time).
    """

    #: :class:`~repro.system.service.Sampler` tier name.
    tier = "sharded"

    def __init__(
        self,
        sharded: ShardedBehaviorNetwork,
        faults: "FaultInjector | None" = None,
        metrics: "MetricsRegistry | None" = None,
        breakers: dict[int, "CircuitBreaker"] | None = None,
        store: SharedSnapshotStore | None = None,
        use_shm: bool = True,
        component_prefix: str = "bn_shard",
    ) -> None:
        self.sharded = sharded
        self.faults = faults
        self.metrics = metrics
        self.breakers = dict(breakers or {})
        self.store = store if store is not None else SharedSnapshotStore(use_shm=use_shm)
        self.component_prefix = component_prefix
        self._published_version: int | None = None
        self._segments: list[str] = []

    @property
    def components(self) -> list[str]:
        """Fault-injector addresses of the shards (``bn_shard0``, ...)."""
        return [
            f"{self.component_prefix}{s}" for s in range(self.sharded.n_shards)
        ]

    def _inc(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _observe(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value)

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def ensure_published(self) -> ShardIndex:
        """Build/publish the index for the current version; retire the old.

        Zero-copy readers (worker pools) attach the returned
        :attr:`segments`; publication is observed by
        ``turbo.shard.publish.*`` and the per-shard ``turbo.shard.owned_*``
        gauges.
        """
        index = self.sharded.index()
        if self._published_version == index.version:
            return index
        started = perf_counter()
        arrays, meta = index.to_payload()
        global_arrays = {
            key: value for key, value in arrays.items() if not key.startswith("blk")
        }
        handles = [
            self.store.publish("global", global_arrays, meta, version=index.version)
        ]
        for s in range(index.n_shards):
            prefix = f"blk{s}:"
            block_arrays = {
                key: value for key, value in arrays.items() if key.startswith(prefix)
            }
            handles.append(
                self.store.publish(
                    f"shard{s}",
                    block_arrays,
                    {"shard": s, "version": index.version},
                    version=index.version,
                )
            )
        previous = self._segments
        self._segments = [handle.segment for handle in handles]
        self._published_version = index.version
        for segment in previous:
            self.store.retire(segment)
        self._inc("turbo.shard.publish.count")
        self._observe("turbo.shard.publish.seconds", perf_counter() - started)
        if self.metrics is not None:
            self.metrics.gauge("turbo.shard.index.pairs").set(index.num_pairs)
            self.metrics.gauge("turbo.shard.index.nodes").set(index.num_nodes)
            for s, block in enumerate(index.shards):
                self.metrics.gauge(f"turbo.shard.owned_nodes.shard{s}").set(
                    len(block.own_positions)
                )
                self.metrics.gauge(f"turbo.shard.owned_half_edges.shard{s}").set(
                    len(block.nbr_pos)
                )
        return index

    @property
    def segments(self) -> list[str]:
        """Currently-published segment names (global first, then shards)."""
        return list(self._segments)

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
        for s in range(self.sharded.n_shards):
            breaker = self.breakers.get(s)
            if breaker is not None and not breaker.allow():
                dead.add(s)
                continue
            if self.faults is not None:
                try:
                    gate_seconds += self.faults.before_call(
                        f"{self.component_prefix}{s}", now=now
                    )
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
        selection_cache: SelectionCache | None = None,
        now: float = 0.0,
        pool: "ShardWorkerPool | None" = None,
    ) -> tuple[list[ComputationSubgraph], BatchSampleStats, float]:
        """Frontier-exchange batch sampling; ``(subgraphs, stats, gate_s)``.

        Bit-exact against ``computation_subgraphs_batch`` on the equivalent
        unsharded network while every shard is healthy; with dead shards the
        surviving frontier is served and ``stats.partial`` lists the
        affected request indices.  When ``pool`` is given, selection for a
        shard's keys is delegated to a worker process (falling back
        in-process if the worker died — worker loss is not data loss, the
        segments outlive it).
        """
        index = self.ensure_published()
        dead, gate_seconds = self.probe_shards(now=now)
        if dead and selection_cache:
            # A warm cache must not mask a dead shard: selections owned by a
            # downed shard are evicted so resolution re-runs (and fails) for
            # them, surfacing partial degradation.  The mirror rule of "a
            # recovered shard must not serve stale emptiness" — a dead shard
            # must not serve stale fullness.
            doomed = [
                key
                for key in selection_cache
                if _shard_of_int(key[0], index.n_shards) in dead
            ]
            for key in doomed:
                del selection_cache[key]

        resolve = None
        if dead or pool is not None:

            def resolve(shard_id: int, keys: list) -> list[list[int]] | None:
                if shard_id in dead:
                    return None
                if pool is not None:
                    selections = pool.resolve(shard_id, keys, fanout)
                    if selections is not None:
                        return selections
                    self._inc("turbo.shard.worker_failover")
                return [
                    index.select_neighbors(node, btype, fanout)
                    for node, btype in keys
                ]

        span = current_span()

        def on_exchange(hop: int, groups: dict[int, list], lost: int) -> None:
            keys = sum(len(g) for g in groups.values())
            self._inc("turbo.shard.frontier.exchanges", len(groups))
            self._inc("turbo.shard.frontier.keys", keys)
            if lost:
                self._inc("turbo.shard.frontier.lost", lost)
            if span is not None:
                span.incr("turbo.shard.frontier.exchanges", len(groups))
                span.add_event(
                    "shard.frontier.exchange",
                    at=now,
                    hop=hop,
                    shards=len(groups),
                    keys=keys,
                    lost=lost,
                )

        subgraphs, stats = index_sample_batch(
            index,
            targets,
            hops=hops,
            fanout=fanout,
            allowed=allowed,
            selection_cache=selection_cache,
            resolve=resolve,
            on_exchange=on_exchange,
        )
        if stats.partial:
            self._inc("turbo.shard.partial_requests", len(stats.partial))
            if span is not None:
                span.incr("turbo.shard.partial_requests", len(stats.partial))
        return subgraphs, stats, gate_seconds

    def close(self) -> None:
        """Retire every published segment (store teardown)."""
        for segment in self._segments:
            try:
                self.store.retire(segment)
            except KeyError:  # pragma: no cover - already retired
                pass
        self._segments = []
        self._published_version = None
        self.store.close()
