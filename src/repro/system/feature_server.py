"""Feature management module of the online system.

Section V: the node features consist of profile features ``X_u``,
application features ``X_tau`` and behavior statistics ``X_s``.  Jimi had no
streaming infrastructure, so ``X_s`` was computed *on demand* from the raw
logs — the dominant share of prediction latency.  The Redis cache cut the
average request from 6.8 s to 0.8 s; this module reproduces both paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..datagen.entities import Transaction
from ..features.pipeline import FeatureManager
from ..obs.tracing import Span
from .latency import LatencyModel
from .storage import InMemoryCache, LocalDatabase, StorageError, serving_cache

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .faults import FaultInjector
    from .service import RequestContext

__all__ = ["FeatureServer"]


@dataclass(frozen=True, slots=True)
class FeatureBatchStats:
    """Coalescing accounting for one ``features_for_batch`` call.

    ``row_cache_hits`` / ``computed_rows`` are *modeled-clock* figures (what
    the ledger charged), not what the row store had to compute.
    """

    requests: int  # requests that reached feature assembly
    node_touches: int  # feature rows requested across all requests
    unique_rows: int  # distinct rows actually backing those touches
    row_cache_hits: int  # context rows charged as a cache-get (ledger hit)
    computed_rows: int  # context rows charged as a fresh assembly

    @property
    def coalescing(self) -> float:
        """Touches per distinct row — >1 means overlap was amortized."""
        return self.node_touches / max(1, self.unique_rows)


class FeatureServer:
    """Assembles the feature matrix for a computation subgraph's nodes.

    Satisfies the :class:`~repro.system.service.Service` protocol:
    :attr:`name`, :meth:`ping`, :meth:`stats` and :meth:`handle` (the
    ``feature_fetch`` stage of a prediction request).

    A *context* row is observed at the user's latest application, not at
    the request, so it is the same bytes until :meth:`observe` /
    :meth:`refresh` change that application.  The server owns one store of
    them (``_row_cache``: ``uid -> raw row``, read-only, filled on first
    use) behind :meth:`context_row`; scalar, batched and lambda assembly
    all read it, and a request computes only its own target row.  The store
    moves wall time only.  What a request is *charged* is decided beside it:
    the scalar path charges every node, the batched path a cache-get for a
    uid whose ``_row_ledger`` entry (``uid -> time bucket`` of the batch
    that last charged it a fresh assembly) is the request's bucket.
    """

    def __init__(
        self,
        feature_manager: FeatureManager,
        latency: LatencyModel,
        database: LocalDatabase | None = None,
        cache: InMemoryCache | None = None,
        stat_windows: int = 5,
        cache_ttl: float = 6 * 3600.0,
        faults: "FaultInjector | None" = None,
        component: str = "feature_server",
    ) -> None:
        self.feature_manager = feature_manager
        self.latency = latency
        self.database = database or LocalDatabase(latency)
        self.cache = cache
        self.stat_windows = stat_windows
        self.cache_ttl = cache_ttl
        self.faults = faults
        self.component = component
        self._latest_txn = {
            txn.uid: txn for txn in feature_manager.latest_transactions()
        }
        # Context-row store and the batched path's modeled ledger, whose bucket
        # (``floor(now / cache_ttl)``) mirrors the log-cache TTL (class docstring).
        self._row_cache: dict[int, np.ndarray] = {}
        self._row_ledger: dict[int, int] = {}
        self._zero_row = np.zeros(feature_manager.dim)
        self._zero_row.flags.writeable = False
        self.row_cache_hits = 0
        self.row_cache_misses = 0
        self.refreshes = 0

    # ------------------------------------------------------------------
    # Post-deploy visibility (the latest-transaction table is not frozen)
    # ------------------------------------------------------------------
    def observe(self, transactions: Iterable[Transaction]) -> int:
        """Make transactions ingested after deploy visible to assembly.

        Updates the per-user latest-application table (and invalidates any
        cached feature row) for every transaction newer than the one on
        record.  Returns how many users were updated.
        """
        updated = 0
        for txn in transactions:
            current = self._latest_txn.get(txn.uid)
            if current is None or txn.created_at > current.created_at:
                self._latest_txn[txn.uid] = txn
                self._row_cache.pop(txn.uid, None)
                self._row_ledger.pop(txn.uid, None)
                updated += 1
        return updated

    def refresh(self) -> None:
        """Rebuild the latest-transaction table from the feature manager.

        For deployments whose dataset grows in place; drops the feature-row
        cache wholesale since any user's context row may have changed.
        """
        self._latest_txn = {
            txn.uid: txn for txn in self.feature_manager.latest_transactions()
        }
        self._row_cache.clear()
        self._row_ledger.clear()
        self.refreshes += 1

    def latest_transaction(self, uid: int) -> Transaction | None:
        """The user's latest application on record (``None`` if unknown).

        This is what a context row is observed at — and what the lambda
        batch layer replays per user so its cached score provenance
        matches the live assembly path exactly.
        """
        return self._latest_txn.get(uid)

    def known_users(self) -> list[int]:
        """Sorted uids with a latest application on record."""
        return sorted(self._latest_txn)

    def context_row(self, uid: int) -> np.ndarray:
        """The user's raw feature row as a *context* node (read-only).

        Observed at their latest application; all zeros for a user with no
        application on record.  Computed on first use, then served from the
        store until :meth:`observe` / :meth:`refresh` drop it.
        """
        row = self._row_cache.get(uid)
        if row is None:
            txn = self._latest_txn.get(uid)
            if txn is None:
                return self._zero_row
            row = self._store_row(uid, self.feature_manager.vector(txn))
        return row

    def _store_row(self, uid: int, row: np.ndarray) -> np.ndarray:
        row.flags.writeable = False
        self._row_cache[uid] = row
        return row

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
        """Feature-store counters (known users, feature dimensionality).

        ``row_cache_rows`` is the size of the real context-row store;
        ``row_cache_hits`` / ``row_cache_misses`` count the batched path's
        *modeled* cache-get vs fresh-assembly charges (the ledger).
        """
        return {
            "known_users": float(len(self._latest_txn)),
            "feature_dim": float(self.feature_manager.dim),
            "stat_windows": float(self.stat_windows),
            "row_cache_rows": float(len(self._row_cache)),
            "row_cache_hits": float(self.row_cache_hits),
            "row_cache_misses": float(self.row_cache_misses),
        }

    def handle(
        self, request: "RequestContext", span: Span | None = None
    ) -> tuple[np.ndarray, float]:
        """Serve the ``feature_fetch`` stage: build the node feature matrix.

        Requires the bn_sample stage to have populated
        ``request.subgraph``; stores the matrix back on the context for
        the inference stage and annotates ``span`` with the row count.
        """
        if request.subgraph is None:
            raise ValueError("feature_fetch requires a sampled subgraph")
        matrix, seconds = self.features_for(
            request.subgraph.nodes, request.request.txn, request.now
        )
        request.features = matrix
        if span is not None:
            span.annotate("feature_rows", int(matrix.shape[0]))
        return matrix, seconds

    def features_for(
        self,
        nodes: Sequence[int],
        target_txn: Transaction,
        now: float,
    ) -> tuple[np.ndarray, float]:
        """Feature rows for ``nodes`` (``nodes[0]`` is the request target).

        The target row uses the transaction under audit; context nodes use
        their latest application, read from the context-row store — every
        node is still *charged* as assembled on demand (``_plan_node``),
        which is what Fig. 8a measures.  Returns ``(matrix, seconds_charged)``;
        the matrix is the caller's to mutate.

        Failure contract: :class:`~repro.system.storage.StorageError` (or an
        injected fault) when the module, the cache mid-lookup, or the database
        behind a cold cache cannot serve; :class:`ValueError`, before any
        charge, for empty ``nodes`` or a ``None`` ``target_txn``.
        """
        if len(nodes) == 0:
            raise ValueError("nodes must name at least the request target")
        if target_txn is None:
            raise ValueError("target_txn must be the transaction under audit")
        seconds = self.faults.before_call(self.component) if self.faults else 0.0
        terms = [[0.0, self.latency.network_rtt, 0.0]]
        try:
            cache = serving_cache(self.cache, self.database, terms)
            rows = [self.feature_manager.vector(target_txn, as_of=now)]
            self._plan_node(terms, nodes[0], now, cache)
            for uid in nodes[1:]:
                rows.append(self.context_row(uid))
                if uid in self._latest_txn:
                    self._plan_node(terms, uid, now, cache)
        finally:
            seconds = self.latency.price(seconds, terms)
        return np.stack(rows), seconds

    def _plan_node(
        self, terms: list[list[float]], uid: int, now: float, cache: InMemoryCache | None
    ) -> None:
        """Plan the latency of assembling one node's features as one term.

        ``X_s`` is computed on demand in both modes (Jimi had no streaming
        aggregation); the cache moves the scan from disk-backed queries to
        in-memory log slices — the optimization that cut the average request
        from 6.8 s to 0.8 s in Section V.  The term grows op by op, so a
        walk cut short by a storage fault draws for exactly what ran.
        """
        latency = self.latency
        n_logs = self._count_logs(uid, now)
        if cache is None:
            # Profile + transaction queries, then the expensive on-demand
            # statistics scan over the user's raw logs, window by window.
            scan = [latency.db_query_cost(max(1, n_logs)), 0.0] * self.stat_windows
            terms.append([0.0, 2 * latency.db_query_cost(1), 0.0, *scan])
            return
        # Profile + transaction rows come from the in-memory store; the
        # statistics windows scan the cached log slice.
        _value, hit, ops = cache.lookup(("logs", uid), now)
        term = [0.0, *ops, latency.cache_get, 0.0]
        terms.append(term)
        if not hit:
            _rows, ops = self.database.lookup("logs", uid)
            term += ops
            term += cache.store(("logs", uid), True, now, ttl=self.cache_ttl)
        term += [latency.mem_scan_cost(n_logs), 0.0] * self.stat_windows

    def _count_logs(self, uid: int, now: float) -> int:
        """History length that prices the ``X_s`` scan — bisect, no slice."""
        return self.feature_manager.log_index.count_before(uid, now)

    # ------------------------------------------------------------------
    # Batched serving
    # ------------------------------------------------------------------
    def _bucket(self, now: float) -> int:
        return int(now // self.cache_ttl) if self.cache_ttl > 0 else 0

    def features_for_batch(
        self,
        node_lists: Sequence[Sequence[int] | None],
        target_txns: Sequence[Transaction],
        nows: Sequence[float],
    ) -> tuple[
        list[np.ndarray | None],
        list[float],
        list[Exception | None],
        FeatureBatchStats,
    ]:
        """Coalesced feature assembly for a micro-batch of requests.

        ``node_lists[i]`` are request ``i``'s subgraph nodes (``None`` for a
        request already failed upstream — it is skipped).  Matrices are
        bit-for-bit what :meth:`features_for` returns per request: target
        rows are observed at the request's ``now``, context rows at the
        user's latest application — which makes context rows shareable, so
        each unique context uid is charged once per batch (a fresh assembly,
        or a cache-get when the ledger has it in the request's time bucket)
        and computed only when the context-row store lacks it; the ``X_s``
        block for every row to compute comes from one columnar pass.

        Failure contract: storage faults poison only the request whose
        charging hit them; the per-request error is returned instead of
        raised so the rest of the batch proceeds.  Malformed input raises
        :class:`ValueError` before anything is charged.
        """
        n = len(node_lists)
        if len(target_txns) != n:
            raise ValueError("target_txns must hold one transaction per node list")
        if len(nows) != n:
            raise ValueError("nows must hold one time per node list")
        if any(nodes is not None and len(nodes) == 0 for nodes in node_lists):
            raise ValueError("node_lists entries must name at least the request target")
        matrices: list[np.ndarray | None] = [None] * n
        seconds = [0.0] * n
        errors: list[Exception | None] = [None] * n
        alive: list[int] = []
        charged: set[int] = set()
        batch_hits = 0
        for i in range(n):
            nodes = node_lists[i]
            if nodes is None:
                continue
            terms = [[0.0, self.latency.network_rtt, 0.0]]
            try:
                charge = self.faults.before_call(self.component) if self.faults else 0.0
                try:
                    cache = serving_cache(self.cache, self.database, terms)
                    for position, uid in enumerate(nodes):
                        if position == 0:
                            self._plan_node(terms, uid, nows[i], cache)
                            charged.add(uid)
                            continue
                        if uid not in self._latest_txn or uid in charged:
                            continue
                        if self._row_ledger.get(uid) == self._bucket(nows[i]):
                            terms.append([0.0, self.latency.cache_get, 0.0])
                            batch_hits += 1
                        else:
                            self._plan_node(terms, uid, nows[i], cache)
                        charged.add(uid)
                finally:
                    charge = self.latency.price(charge, terms)
            except StorageError as exc:
                errors[i] = exc
                continue
            seconds[i] = charge
            alive.append(i)

        # The first alive toucher of each context uid books it in the ledger
        # (modeled: hit vs fresh assembly); the store decides what is really
        # computed — they differ when scalar or lambda assembly filled it first.
        context_rows: dict[int, np.ndarray | None] = {}
        booked: dict[int, int] = {}
        for i in alive:
            for uid in node_lists[i][1:]:
                if uid in context_rows or uid not in self._latest_txn:
                    continue
                bucket = self._bucket(nows[i])
                if self._row_ledger.get(uid) != bucket:
                    booked[uid] = bucket
                context_rows[uid] = self._row_cache.get(uid)
        missing = [uid for uid, row in context_rows.items() if row is None]
        self.row_cache_hits += batch_hits
        self.row_cache_misses += len(booked)

        batch_txns = [target_txns[i] for i in alive]
        batch_as_ofs: list[float | None] = [nows[i] for i in alive]
        batch_txns.extend(self._latest_txn[uid] for uid in missing)
        batch_as_ofs.extend([None] * len(missing))
        rows = self.feature_manager.vector_batch(batch_txns, batch_as_ofs)
        self._row_ledger.update(booked)
        for uid, row in zip(missing, rows[len(alive):]):
            context_rows[uid] = self._store_row(uid, row)

        touches = 0
        for i, target_row in zip(alive, rows):
            nodes = node_lists[i]
            touches += len(nodes)
            request_rows = [target_row]
            request_rows.extend(context_rows.get(uid, self._zero_row) for uid in nodes[1:])
            matrices[i] = np.stack(request_rows)
        stats = FeatureBatchStats(
            requests=len(alive),
            node_touches=touches,
            unique_rows=len(alive) + len(context_rows),
            row_cache_hits=batch_hits,
            computed_rows=len(booked),
        )
        return matrices, seconds, errors, stats
