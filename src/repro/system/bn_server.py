"""BN server: real-time graph maintenance + computation-subgraph sampling.

Mirrors Section V: behavior logs stream in and are persisted; a periodic job
per time window builds the edges of each just-closed epoch (jobs with shorter
windows run more frequently); a TTL sweep prevents unbounded growth; and
detection requests are served by sampling the target's k-hop computation
subgraph.  All storage access is charged through the latency model.

The write path keeps one bounded log table
(:class:`~repro.network.builder.LogTable`): ``ingest`` validates and encodes
each log once, window jobs read column slices of it, rows leave when no
pending job can read them (``now - max(windows)``), and on the TTL sweep the
persisted ``"logs"`` rows older than ``ttl + max(windows)`` are retired and
the table's intern map is cut back to its live rows — nothing ``ingest`` or
``run_due_jobs`` touches grows with uptime at a steady input rate.
"""

from __future__ import annotations

from dataclasses import replace
from math import isfinite
from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

from ..datagen.entities import DAY, BehaviorLog
from ..network.bn import BehaviorNetwork
from ..network.builder import BNBuilder, LogTable
from ..network.sampling import (
    BatchSampleStats,
    ComputationSubgraph,
    computation_subgraphs_batch,
)
from ..network.sharding import _check_fanout
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Span, current_span
from .latency import LatencyModel
from .shard_router import ShardRouter
from .storage import InMemoryCache, LocalDatabase, StorageError, serving_cache

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .faults import FaultInjector
    from .service import RequestContext, Sampler

__all__ = ["BNServer", "LocalSampler"]


class LocalSampler:
    """The unpartitioned sampling tier (the unsharded default).

    One of the three :class:`~repro.system.service.Sampler` conformers —
    alongside :class:`~repro.system.shard_router.ShardRouter` and
    :class:`~repro.system.lambda_layer.DeltaSampler` — so the serving
    paths can run ``self.sampler.sample_batch(...)`` uniformly instead of
    branching on the deployment shape inline.  Runs the one union-frontier
    batch sampler over the in-process network's read index — the router's
    call without a partition, so no shard can be down; no probes, so the
    batch-level gate cost is always zero.
    """

    tier = "local"

    def __init__(self, server: "BNServer") -> None:
        self._server = server

    def sample_batch(
        self,
        targets: Sequence[int],
        hops: int = 2,
        fanout: int | None = 25,
        allowed: set[int] | None = None,
        now: float = 0.0,
    ) -> tuple[list[ComputationSubgraph], BatchSampleStats, float]:
        """Batch-sample every target's ``G_v``; ``(subgraphs, stats, 0.0)``."""
        subgraphs, stats = computation_subgraphs_batch(
            self._server.bn.index(), targets, hops=hops, fanout=fanout, allowed=allowed
        )
        return subgraphs, stats, 0.0


class BNServer:
    """Maintains BN from streaming logs and serves subgraph samples.

    Satisfies the :class:`~repro.system.service.Service` protocol:
    :attr:`name`, :meth:`ping`, :meth:`stats` and :meth:`handle` (the
    ``bn_sample`` stage of a prediction request).
    """

    def __init__(
        self,
        builder: BNBuilder,
        latency: LatencyModel,
        database: LocalDatabase | None = None,
        cache: InMemoryCache | None = None,
        ttl_sweep_interval: float = DAY,
        faults: "FaultInjector | None" = None,
        component: str = "bn_server",
        metrics: MetricsRegistry | None = None,
        shards: int = 1,
    ) -> None:
        self.builder = builder
        self.latency = latency
        self.database = database or LocalDatabase(latency)
        self.cache = cache
        self.faults = faults
        self.component = component
        # Wired to the deployment registry by the Turbo orchestrator (or
        # directly by tests/benchmarks); ``bn.ingest.*`` series stay silent
        # when left unset.
        self.metrics = metrics
        if shards < 1:
            raise ValueError("shards must be >= 1")
        #: Read partitions: with more than one, :attr:`router` serves the
        #: network's reads as that many fault domains.
        self.shards = shards
        self.bn = BehaviorNetwork(ttl=builder.ttl)
        self._router: ShardRouter | None = None
        self._local_sampler: LocalSampler | None = None
        # Explicit tier override (e.g. the lambda layer's DeltaSampler);
        # None means pick by deployment shape (router when sharded).
        self._sampler: "Sampler | None" = None
        self.ttl_sweep_interval = ttl_sweep_interval
        # The one log table of the write path: what ingest encoded and a
        # pending window job can still read (see repro.network.builder).
        self._table = LogTable(builder.edge_types)
        self._next_epoch: dict[float, int] = {w: 0 for w in builder.windows}
        self._last_ttl_sweep = 0.0
        self.jobs_run = 0
        # Whether the most recent scalar sample was served from a frontier
        # missing a downed shard (handle() copies it onto the context).
        self._last_sample_partial = False

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    @property
    def router(self) -> ShardRouter | None:
        """The shard router fronting :attr:`bn` (``None`` at one shard).

        Built lazily against the *current* ``bn`` object so the bootstrap
        idiom (``server.bn = data.bn``) re-points it, with one circuit
        breaker per shard; the metrics registry is re-synced on every
        access because the Turbo orchestrator wires :attr:`metrics` after
        construction.
        """
        if self.shards == 1:
            return None
        bn, router = self.bn, self._router
        if router is None or router.bn is not bn:
            from .faults import CircuitBreaker  # runtime import avoids a cycle

            router = ShardRouter(
                bn,
                self.shards,
                faults=self.faults,
                metrics=self.metrics,
                breakers={s: CircuitBreaker() for s in range(self.shards)},
            )
            self._router = router
        router.metrics = self.metrics
        return router

    @property
    def sampler(self) -> "Sampler":
        """The active sampling tier (PR 8's unified ``Sampler`` surface).

        An explicit override (:meth:`set_sampler` — how a lambda
        deployment installs its :class:`~repro.system.lambda_layer.DeltaSampler`)
        wins; otherwise the tier follows the deployment shape — the shard
        router when the reads are partitioned, the in-process
        :class:`LocalSampler` otherwise.
        """
        if self._sampler is not None:
            return self._sampler
        router = self.router
        if router is not None:
            return router
        local = self._local_sampler
        if local is None:
            local = LocalSampler(self)
            self._local_sampler = local
        return local

    def set_sampler(self, sampler: "Sampler | None") -> None:
        """Install an explicit sampling tier (``None`` restores the default)."""
        self._sampler = sampler

    # ------------------------------------------------------------------
    # Ingestion & maintenance
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int) -> None:
        """Bump a ``bn.ingest.*`` counter and stamp the ambient span (if any)."""
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)
        span = current_span()
        if span is not None:
            span.incr(name, amount)

    def _observe(self, name: str, value: float) -> None:
        """Record one maintenance-cost sample (if a registry is wired)."""
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value)

    def ingest(self, logs: Sequence[BehaviorLog]) -> float:
        """Receive new logs (must be non-decreasing in time across calls).

        One pass validates and encodes the batch, then it is persisted,
        then its edge-type rows join the log table (other types are
        persisted and advance the order watermark; no job reads them).
        All-or-nothing: a malformed or out-of-order log (``ValueError`` /
        ``TypeError``, see :meth:`~repro.network.builder.LogTable.encode`)
        or a storage fault raises with table, watermark, counters and
        database rows as they were, and nothing charged by this server —
        the same batch can be offered again.
        """
        if not logs:
            return 0.0
        batch = self._table.encode(logs, ordered=True)
        seconds = self.database.insert_many("logs", ((log.uid, log) for log in logs))
        self._table.extend(batch)
        self._count("bn.ingest.logs", len(logs))
        return seconds

    def run_due_jobs(self, now: float) -> tuple[int, float]:
        """Run every window job whose epoch has closed by ``now``.

        Returns ``(jobs_run, seconds_charged)``.  Mirrors the production
        scheduler: the 1-hour window's job runs hourly, the 1-day window's
        daily, etc.  These jobs run in parallel to request serving, so their
        cost is *not* part of prediction latency — it is still charged so the
        scalability study (Fig. 8b) can report it.  A non-finite ``now``
        raises ``ValueError`` before anything runs or is pruned.
        """
        if not isfinite(now):
            raise ValueError(f"now {now!r} is not finite")
        jobs = 0
        seconds = 0.0
        contributions_total = 0
        for window in self.builder.windows:
            epoch = self._next_epoch[window]
            while self.builder.origin + (epoch + 1) * window <= now:
                job_end = self.builder.origin + (epoch + 1) * window
                contributions = self.builder.run_window_job(
                    self.bn, self._table.columns(job_end - window, job_end), window, job_end
                )
                contributions_total += contributions
                seconds += self.latency.charge_db_write(max(1, contributions))
                jobs += 1
                epoch += 1
            self._next_epoch[window] = epoch
        self.jobs_run += jobs
        if jobs:
            self._count("bn.ingest.jobs", jobs)
            self._count("bn.ingest.contributions", contributions_total)
        # Every pending job of window ``w`` ends after ``now`` and reads
        # ``(job_end - w, job_end]``: rows at or before ``now - max(W)`` can
        # never contribute again.
        self._table.prune(now - max(self.builder.windows))

        if now - self._last_ttl_sweep >= self.ttl_sweep_interval:
            removed = self.bn.expire_edges(now)
            seconds += self.latency.charge_db_write(max(1, removed))
            self._last_ttl_sweep = now
            # Maintenance riding the sweep — no modeled time, no rng, and a
            # store that is down catches up next time: persisted logs older
            # than the edge TTL plus the longest window have no reader left
            # (their edges expired; the feature server's cold path prices
            # the retained history), and the table re-interns its live rows.
            horizon = now - (self.builder.ttl + max(self.builder.windows))
            self.database.retire("logs", attrgetter("timestamp"), horizon)
            self._table.compact()
            if removed:
                self._count("bn.ingest.expired_edges", removed)

        self._observe("bn.ingest.maintenance_seconds", seconds)
        return jobs, seconds

    # ------------------------------------------------------------------
    # Service surface (see repro.system.service.Service)
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Stable component name (also the fault-injector address)."""
        return self.component

    def ping(self) -> float:
        """Liveness probe; raises through the fault gate when down."""
        return self.faults.before_call(self.component) if self.faults else 0.0

    def stats(self) -> dict[str, float]:
        """BN maintenance counters (jobs, buffered logs, graph size).

        ``logs_buffered`` counts the log-table rows pending window jobs can
        still read; logs of non-edge types are persisted, never buffered.
        """
        return {
            "jobs_run": float(self.jobs_run),
            "logs_buffered": float(len(self._table.keys)),
            "bn_nodes": float(self.bn.num_nodes()),
            "bn_edges": float(self.bn.num_edges()),
        }

    def handle(
        self, request: "RequestContext", span: Span | None = None
    ) -> tuple[ComputationSubgraph, float]:
        """Serve the ``bn_sample`` stage: sample the target's subgraph.

        Reads the sampling policy (hops/fanout/allowed) from the request
        context, stores the sampled subgraph back on it for the feature
        stage, and annotates ``span`` with the subgraph size.
        """
        subgraph, seconds = self.sample(
            request.request.uid,
            now=request.now,
            hops=request.hops,
            fanout=request.fanout,
            allowed=request.allowed,
        )
        request.subgraph = subgraph
        if self._last_sample_partial:
            request.attributes["shard_partial"] = True
        if span is not None:
            span.annotate("subgraph_size", subgraph.num_nodes)
        return subgraph, seconds

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _charge_adjacency(
        self, seconds: float, nodes: Sequence[int], now: float, charged: set[int]
    ) -> float:
        """Charge one request's adjacency reads onto its running ``seconds``.

        One network round trip, then one lookup per node not yet in
        ``charged`` (the micro-batch's first-toucher ledger; a scalar
        request brings an empty one).  The walk plans — gates, store state
        and span stamps where a scalar charge had them — and is priced
        under one jitter draw, each term joining the caller's total as it
        did: charged seconds are pinned bit for bit, and ``gate + (a + b)``
        is not ``(gate + a) + b`` once a latency fault made the gate
        non-zero.  Raises the cache's or database's
        :class:`~repro.system.storage.StorageError` mid-walk, having drawn
        for the ops that completed.
        """
        latency = self.latency
        terms = [[0.0, latency.network_rtt, 0.0]]
        try:
            # No cache: edge lists come straight from the database, and a dead
            # one surfaces at the probe, not as phantom latency for reads
            # that could never have happened.
            cache = serving_cache(self.cache, self.database, terms)
            for node in nodes:
                if node in charged:
                    continue
                charged.add(node)
                if cache is None:
                    degree = self.bn.degree(node)
                    terms.append([0.0, latency.db_query_cost(max(1, degree)), 0.0])
                    continue
                _value, hit, ops = cache.lookup(("adj", node), now)
                terms.append([0.0, *ops, latency.sample_per_node, 0.0])
                if not hit:
                    _rows, ops = self.database.lookup("edges", node)
                    terms.append([0.0, *ops])
                    terms.append([0.0, *cache.store(("adj", node), True, now)])
        finally:
            seconds = latency.price(seconds, terms)
        return seconds

    def sample(
        self,
        uid: int,
        now: float = 0.0,
        hops: int = 2,
        fanout: int | None = 25,
        allowed: set[int] | None = None,
    ) -> tuple[ComputationSubgraph, float]:
        """Sample ``G_uid``; returns ``(subgraph, seconds)``.

        With a cache, each visited node's adjacency is a cache lookup (the
        production 87 ms path); without one, every hop reads the edge list
        from the local database.

        Failure contract: raises :class:`~repro.system.storage.StorageError`
        (or an injected fault) when the server, the cache mid-lookup, or the
        database behind a cold cache cannot serve — the Turbo orchestrator
        owns the retry/degrade decision.  On a sharded server a downed
        *shard* does not raise but serves the surviving frontier and
        latches :attr:`_last_sample_partial` for :meth:`handle`.  A
        negative ``fanout`` is a ``ValueError`` before anything is gated,
        registered, cached or charged.
        """
        _check_fanout(fanout)
        seconds = self.faults.before_call(self.component) if self.faults else 0.0
        self._last_sample_partial = False
        if uid not in self.bn:
            self.bn.add_node(uid)
        sampled, batch_stats, gate_seconds = self.sampler.sample_batch(
            [uid],
            hops=hops,
            fanout=fanout,
            allowed=allowed,
            now=now,
        )
        subgraph = sampled[0]
        seconds += gate_seconds
        self._last_sample_partial = bool(batch_stats.partial)
        seconds = self._charge_adjacency(seconds, subgraph.nodes, now, set())
        return subgraph, seconds

    def sample_batch(
        self,
        uids: Sequence[int],
        nows: Sequence[float],
        hops: int = 2,
        fanout: int | None = 25,
        allowed: set[int] | None = None,
    ) -> tuple[
        list[ComputationSubgraph | None],
        list[float],
        list[Exception | None],
        BatchSampleStats,
    ]:
        """Coalesced ``bn_sample`` for a micro-batch of requests.

        Subgraphs are bit-for-bit what per-request :meth:`sample` calls
        produce (missing targets are registered up front; the batch then
        runs against one pinned read index).  Adjacency lookups are
        charged once per *unique* node in the batch, attributed to the
        first request that touches it — the coalescing economics the union
        sampler makes real.

        Failure contract: faults poison individual requests — the fault
        gate runs once per request and a storage error while charging a
        request's nodes marks only that request failed (its error is
        returned, not raised), so one poisoned request degrades without
        failing the batch.  Weighted (rng) sampling is not offered; the
        batched path is deterministic top-k only.  A negative ``fanout``
        raises ``ValueError`` up front, as in :meth:`sample`.
        """
        _check_fanout(fanout)
        n = len(uids)
        subgraphs: list[ComputationSubgraph | None] = [None] * n
        seconds = [0.0] * n
        errors: list[Exception | None] = [None] * n
        gates = [0.0] * n
        alive: list[int] = []
        for i, uid in enumerate(uids):
            try:
                gates[i] = self.faults.before_call(self.component) if self.faults else 0.0
            except StorageError as exc:
                errors[i] = exc
                continue
            if uid not in self.bn:
                self.bn.add_node(uid)
            alive.append(i)
        sampled, stats, gate_seconds = self.sampler.sample_batch(
            [uids[i] for i in alive],
            hops=hops,
            fanout=fanout,
            allowed=allowed,
            now=max(nows, default=0.0),
        )
        # Tier indices are relative to the alive sublist; callers see batch
        # positions.  Batch-level gate cost (shard probes) is charged to the
        # first alive request (the first-toucher rule the unique-node
        # charging below already follows).
        if stats.partial:
            stats = replace(stats, partial=tuple(alive[j] for j in stats.partial))
        if alive and gate_seconds:
            gates[alive[0]] += gate_seconds
        charged: set[int] = set()
        for k, i in enumerate(alive):
            try:
                seconds[i] = self._charge_adjacency(
                    gates[i], sampled[k].nodes, nows[i], charged
                )
            except StorageError as exc:
                errors[i] = exc
                continue
            subgraphs[i] = sampled[k]
        return subgraphs, seconds, errors, stats
