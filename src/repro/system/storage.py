"""Storage substrate: a local database, an in-memory cache, and replication.

Models the deployment of Section V: a MySQL cluster holds the ground truth
(logs, profiles, the global edge list); a Redis cluster caches the graph,
features and behavior logs; both have primary-and-replica switching so the
system survives a primary crash.  Costs are charged through the latency
model instead of performing real I/O.

Every store optionally carries a :class:`~repro.system.faults.FaultInjector`
reference plus a component name; injected crash windows make the store
``available == False`` (so check-then-use callers can route around it) and
any call that goes through anyway raises
:class:`~repro.system.faults.InjectedFault` — never a silent degraded
result.  See ``docs/RESILIENCE.md`` for the failure-mode contracts.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable

from ..obs.tracing import current_span
from .latency import LatencyModel

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .faults import FaultInjector

__all__ = ["LocalDatabase", "InMemoryCache", "ReplicatedStore", "StorageError"]


def _stamp(key: str) -> None:
    """Count one storage operation on the active request span (if any).

    Keeps trace context threading out of every call signature: whatever
    pipeline stage is executing inside a ``use_span`` block accumulates
    ``db.*`` / ``cache.*`` op counters on its own span.
    """
    span = current_span()
    if span is not None:
        span.incr(key)


class StorageError(RuntimeError):
    """Raised when no replica can serve a request."""


def serving_cache(
    cache: "InMemoryCache | None", database: "LocalDatabase", terms: list[list[float]]
) -> "InMemoryCache | None":
    """The cache a charge walk reads through; ``None`` sends it to the
    database, probed first: the probe raises if that cannot serve, and its
    injected spike joins ``terms`` flat (a probe never drew jitter)."""
    if cache is not None and cache.available:
        return cache
    terms.append([database.ping()])
    return None


class LocalDatabase:
    """Disk-backed key-value/table store (MySQL stand-in).

    Tables are dicts of key -> row-list; every access charges DB latency.
    """

    def __init__(
        self,
        latency: LatencyModel,
        faults: "FaultInjector | None" = None,
        component: str = "database",
    ) -> None:
        self.latency = latency
        self.faults = faults
        self.component = component
        self._tables: dict[str, dict[Hashable, list[Any]]] = {}
        self.query_count = 0
        self.write_count = 0
        self._up = True

    @property
    def available(self) -> bool:
        """Up and outside any injected crash window (check-then-use probe)."""
        if not self._up:
            return False
        return self.faults is None or not self.faults.crashed(self.component)

    def _table(self, name: str) -> dict[Hashable, list[Any]]:
        return self._tables.setdefault(name, {})

    def _gate(self) -> float:
        """Crash/fault gate for one operation; returns injected extra seconds.

        Raises :class:`StorageError` when manually crashed and
        :class:`~repro.system.faults.InjectedFault` when the fault plan says
        so — *before* any state is read or mutated, so a faulted call never
        leaves partial writes or phantom evictions behind.
        """
        if not self._up:
            raise StorageError("database instance is down")
        if self.faults is not None:
            return self.faults.before_call(self.component)
        return 0.0

    def ping(self) -> float:
        """Liveness probe: raises when the store cannot serve, else returns
        the injected extra seconds (so even probing a browned-out store
        charges the spike)."""
        return self._gate()

    def insert(
        self, table: str, key: Hashable, row: Any, *, extra: float | None = None
    ) -> float:
        """Append a row under ``key``; returns charged seconds.

        ``extra`` (here and on the other writes) is the gate's result when
        the caller already ran :meth:`_gate` for this write.
        """
        if extra is None:
            extra = self._gate()
        self._table(table).setdefault(key, []).append(row)
        self.write_count += 1
        _stamp("db.writes")
        return self.latency.charge_db_write(1) + extra

    def insert_many(
        self,
        table: str,
        items: Iterable[tuple[Hashable, Any]],
        *,
        extra: float | None = None,
    ) -> float:
        """Bulk-append rows in one write; returns charged seconds."""
        if extra is None:
            extra = self._gate()
        count = 0
        tbl = self._table(table)
        for key, row in items:
            tbl.setdefault(key, []).append(row)
            count += 1
        self.write_count += 1
        _stamp("db.writes")
        return self.latency.charge_db_write(count) + extra

    def put(
        self, table: str, key: Hashable, value: Any, *, extra: float | None = None
    ) -> float:
        """Replace the full row-list for ``key`` (single-value semantics)."""
        if extra is None:
            extra = self._gate()
        self._table(table)[key] = [value]
        self.write_count += 1
        _stamp("db.writes")
        return self.latency.charge_db_write(1) + extra

    def lookup(self, table: str, key: Hashable) -> tuple[list[Any], list[float]]:
        """:meth:`query` without its latency draw — ``(rows, ops)``, the ops
        ``[base, extra, ...]`` it would charge, for a term of
        :meth:`~repro.system.latency.LatencyModel.price`: a serving walk
        plans every read this way and draws all its jitter at once."""
        extra = self._gate()
        rows = self._table(table).get(key, [])
        self.query_count += 1
        _stamp("db.queries")
        return rows, [self.latency.db_query_cost(len(rows)), extra]

    def query(self, table: str, key: Hashable) -> tuple[list[Any], float]:
        """Return ``(rows, seconds)``; rows is empty if the key is absent."""
        rows, ops = self.lookup(table, key)
        return rows, self.latency.price(0.0, [[0.0, *ops]])

    def scan(self, table: str) -> tuple[list[tuple[Hashable, list[Any]]], float]:
        """Full-table scan; returns ``(items, seconds)``."""
        extra = self._gate()
        tbl = self._table(table)
        self.query_count += 1
        _stamp("db.queries")
        total_rows = sum(len(rows) for rows in tbl.values())
        return list(tbl.items()), self.latency.charge_db_query(total_rows) + extra

    def retire(self, table: str, stamp: Callable[[Any], float], cutoff: float) -> int:
        """Drop every row with ``stamp(row) <= cutoff``; returns how many.

        Retention maintenance, not a request: it charges no latency, passes
        no fault gate (so draws from no rng) and is skipped — returning 0,
        to be caught up by the next call — while the instance is not
        :attr:`available`.  Each key's rows must be in ``stamp`` order
        (arrival order, for a timestamp), so the retired ones are a prefix;
        a key left without rows is removed.
        """
        if not self.available:
            return 0
        tbl = self._tables.get(table, {})
        dropped = 0
        for key in [key for key, rows in tbl.items() if rows and stamp(rows[0]) <= cutoff]:
            rows = tbl[key]
            prefix = bisect_right(rows, cutoff, key=stamp)
            dropped += prefix
            if prefix == len(rows):
                del tbl[key]
            else:
                del rows[:prefix]
        return dropped

    def crash(self) -> None:
        """Simulate an instance crash: requests fail until recovery."""
        self._up = False

    def recover(self) -> None:
        """Bring the instance back (durable contents intact)."""
        self._up = True

    def snapshot(self) -> dict[str, dict[Hashable, list[Any]]]:
        """Deep-ish copy used to seed replicas."""
        return {t: {k: list(v) for k, v in rows.items()} for t, rows in self._tables.items()}

    def load_snapshot(self, snapshot: dict[str, dict[Hashable, list[Any]]]) -> None:
        """Replace the contents with a snapshot (replica seeding)."""
        self._tables = {t: {k: list(v) for k, v in rows.items()} for t, rows in snapshot.items()}


class InMemoryCache:
    """Redis stand-in: TTL-aware key-value cache with hit/miss accounting.

    Failure contract (see ``docs/RESILIENCE.md``): a crashed cache — manual
    ``crash()`` or an injected crash window — **raises** ``StorageError``
    from ``get``/``set`` instead of silently reporting a miss.  A silent
    miss would send the caller to the database without anyone noticing the
    outage; raising keeps the degradation decision (retry, route around,
    fall back) with the resilience layer.  The fault gate runs before the
    TTL sweep, so a faulted ``get`` never evicts the expired entry nor
    counts a miss.
    """

    def __init__(
        self,
        latency: LatencyModel,
        default_ttl: float | None = None,
        faults: "FaultInjector | None" = None,
        component: str = "cache",
    ) -> None:
        self.latency = latency
        self.default_ttl = default_ttl
        self.faults = faults
        self.component = component
        self._store: dict[Hashable, tuple[Any, float | None]] = {}
        self.hits = 0
        self.misses = 0
        self._up = True

    @property
    def available(self) -> bool:
        """Up and outside any injected crash window (check-then-use probe)."""
        if not self._up:
            return False
        return self.faults is None or not self.faults.crashed(self.component)

    def _gate(self) -> float:
        if not self._up:
            raise StorageError("cache instance is down")
        if self.faults is not None:
            return self.faults.before_call(self.component)
        return 0.0

    def ping(self) -> float:
        """Liveness probe; raises when the cache cannot serve."""
        return self._gate()

    def lookup(self, key: Hashable, now: float = 0.0) -> tuple[Any | None, bool, list[float]]:
        """:meth:`get` without its latency draw: ``(value, hit, ops)``, the
        ops as in :meth:`LocalDatabase.lookup`."""
        ops = [self.latency.cache_get, self._gate()]
        entry = self._store.get(key)
        if entry is not None and entry[1] is not None and now > entry[1]:
            del self._store[key]  # expired: swept, then a miss
            entry = None
        if entry is None:
            self.misses += 1
            _stamp("cache.misses")
            return None, False, ops
        self.hits += 1
        _stamp("cache.hits")
        return entry[0], True, ops

    def get(self, key: Hashable, now: float = 0.0) -> tuple[Any | None, bool, float]:
        """Return ``(value, hit, seconds)``; raises ``StorageError`` when down."""
        value, hit, ops = self.lookup(key, now)
        return value, hit, self.latency.price(0.0, [[0.0, *ops]])

    def store(
        self, key: Hashable, value: Any, now: float = 0.0, ttl: float | None = None
    ) -> list[float]:
        """:meth:`set` without its latency draw; returns its ops."""
        extra = self._gate()
        ttl = ttl if ttl is not None else self.default_ttl
        expires = now + ttl if ttl is not None else None
        self._store[key] = (value, expires)
        _stamp("cache.sets")
        return [self.latency.cache_set, extra]

    def set(
        self, key: Hashable, value: Any, now: float = 0.0, ttl: float | None = None
    ) -> float:
        """Store ``value`` under ``key`` (optionally with a TTL); returns seconds."""
        return self.latency.price(0.0, [[0.0, *self.store(key, value, now, ttl)]])

    def invalidate(self, key: Hashable) -> None:
        """Remove one key if present."""
        self._store.pop(key, None)

    def clear(self) -> None:
        """Drop every cached entry."""
        self._store.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def crash(self) -> None:
        """Simulate a cache-instance crash (contents are lost)."""
        self._up = False
        self._store.clear()

    def recover(self) -> None:
        """Bring the cache back online (empty)."""
        self._up = True


@dataclass
class ReplicatedStore:
    """Primary/replica pair with automatic failover (disaster backup).

    Writes go to every available node, all or nothing: every node's gate
    runs before any node writes, so a fault on either leaves both as they
    were.  Reads go to the primary and fail over to the replica when the
    primary is down (charging one extra network round-trip).  Duck-types
    ``LocalDatabase``'s read/write surface so the BN and feature servers
    can run on either.

    Counter contract (pinned by tests): :attr:`failovers` is a **lifetime**
    counter of redirected reads — :meth:`promote_replica` does *not* reset
    it, because the operator question it answers ("how often did we serve
    off the backup?") spans promotions.  Promotions are counted separately
    in :attr:`promotions`.
    """

    primary: LocalDatabase
    replica: LocalDatabase
    latency: LatencyModel
    failovers: int = field(default=0)
    promotions: int = field(default=0)

    @property
    def available(self) -> bool:
        """Can *any* node serve?"""
        return self.primary.available or self.replica.available

    def ping(self) -> float:
        """Liveness probe against the read path (primary, else replica)."""
        if self.primary.available:
            return self.primary.ping()
        if self.replica.available:
            return self.replica.ping() + self.latency.charge_network()
        raise StorageError("no database replica available")

    def _write_all(self, op: str, *args: Any) -> float:
        nodes = [node for node in (self.primary, self.replica) if node.available]
        if not nodes:
            raise StorageError("no database replica available for write")
        extras = [node._gate() for node in nodes]
        seconds = 0.0
        for node, extra in zip(nodes, extras):
            seconds += getattr(node, op)(*args, extra=extra)
        return seconds

    def insert(self, table: str, key: Hashable, row: Any) -> float:
        """Write to every available replica; returns charged seconds."""
        return self._write_all("insert", table, key, row)

    def insert_many(self, table: str, items: Iterable[tuple[Hashable, Any]]) -> float:
        """Bulk write to every available replica; returns charged seconds."""
        materialized = list(items)  # both nodes must see the same rows
        return self._write_all("insert_many", table, materialized)

    def put(self, table: str, key: Hashable, value: Any) -> float:
        """Replace ``key`` on every available replica; returns charged seconds."""
        return self._write_all("put", table, key, value)

    def lookup(self, table: str, key: Hashable) -> tuple[list[Any], list[float]]:
        """Read from the primary, failing over to the replica (one more op:
        the extra round trip); ``(rows, ops)`` as :meth:`LocalDatabase.lookup`."""
        if self.primary.available:
            return self.primary.lookup(table, key)
        if self.replica.available:
            self.failovers += 1
            _stamp("db.failovers")
            rows, ops = self.replica.lookup(table, key)
            return rows, [*ops, self.latency.network_rtt, 0.0]
        raise StorageError("no database replica available for read")

    def query(self, table: str, key: Hashable) -> tuple[list[Any], float]:
        """:meth:`lookup`, priced."""
        rows, ops = self.lookup(table, key)
        return rows, self.latency.price(0.0, [[0.0, *ops]])

    def scan(self, table: str) -> tuple[list[tuple[Hashable, list[Any]]], float]:
        """Full-table scan with the same failover routing as :meth:`query`."""
        if self.primary.available:
            return self.primary.scan(table)
        if self.replica.available:
            self.failovers += 1
            _stamp("db.failovers")
            items, seconds = self.replica.scan(table)
            return items, seconds + self.latency.charge_network()
        raise StorageError("no database replica available for read")

    def retire(self, table: str, stamp: Callable[[Any], float], cutoff: float) -> int:
        """Retention on every node that is up (see ``LocalDatabase.retire``);
        a node that is down catches up on the next call.  Returns the
        primary's count."""
        dropped = self.primary.retire(table, stamp, cutoff)
        self.replica.retire(table, stamp, cutoff)
        return dropped

    def promote_replica(self) -> None:
        """Primary-and-replica switch after a crash.

        Swaps the roles and increments :attr:`promotions`; the lifetime
        :attr:`failovers` counter is deliberately left untouched (see the
        class docstring for the contract).
        """
        self.primary, self.replica = self.replica, self.primary
        self.promotions += 1

    def recover(self) -> None:
        """Operator action: bring both nodes back up."""
        self.primary.recover()
        self.replica.recover()

    def crash(self) -> None:
        """Total outage: both nodes down (used by chaos scripts)."""
        self.primary.crash()
        self.replica.crash()
