"""The time-evolving heterogeneous Behavior Network (BN).

BN is an undirected multigraph over user nodes: each edge carries a type
``r`` (one of the behavior types), an accumulated weight ``w_r(u, v)``, and
the timestamp of its last contribution (for TTL expiry, Section V: max TTL of
60 days per edge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from ..datagen.behavior_types import BehaviorType
from ..datagen.entities import DAY
from .segments import INT64_SAFE_SPAN
from .snapshot import BNSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only, sharding imports this module
    from .sharding import ShardIndex

__all__ = [
    "BehaviorNetwork",
    "DEFAULT_EDGE_TTL",
    "prepare_weight_groups",
]

#: Section V: "a max TTL is set to 60 days for each edge".
DEFAULT_EDGE_TTL: float = 60.0 * DAY

#: TTL sweeps index edges into ``ttl / _EXPIRY_BUCKETS``-wide time buckets,
#: so a sweep inspects only the buckets at or past the cutoff instead of
#: scanning the whole graph.
_EXPIRY_BUCKETS: int = 16


@dataclass(slots=True)
class EdgeRecord:
    """Accumulated weight and recency of one typed edge."""

    weight: float = 0.0
    last_update: float = 0.0


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _check_contribution(u: int, v: int, weight: float, timestamp: float) -> None:
    """The scalar write boundary: one row of :func:`prepare_weight_groups`' checks."""
    if u == v:
        raise ValueError("self-loops are not part of BN")
    if not 0.0 < weight < math.inf:
        raise ValueError("edge weight contributions must be positive and finite")
    if not math.isfinite(timestamp):
        raise ValueError("edge timestamps must be finite")


@dataclass(slots=True)
class WeightGroups:
    """One ``add_weights`` batch, validated and grouped per typed edge.

    Produced by :func:`prepare_weight_groups` — the half of batched ingest
    that reads no network state (validation, lo/hi canonicalization, stable
    grouping, key boxing).  :meth:`BehaviorNetwork.apply_weight_groups`
    folds each segment onto its record; the two together are bit-for-bit
    the original ``add_weights``.
    """

    n: int  # contributions in the batch
    w_s: list[float]  # weights in grouped order
    starts: list[int]  # segment k is w_s[starts[k] : ends[k]]
    ends: list[int]
    key_lo: list[int]  # per-segment pair lo
    key_hi: list[int]  # per-segment pair hi
    key_types: list[BehaviorType]  # per-segment behavior type
    ts_scalar: float  # shared stamp when ``latest`` is None
    latest: list[float] | None  # per-segment max timestamp (None: scalar ts)
    bucket_ids: list[int] | None  # per-segment expiry bucket (None: scalar ts)


def prepare_weight_groups(
    u: Sequence[int] | np.ndarray,
    v: Sequence[int] | np.ndarray,
    btypes: BehaviorType | Sequence[BehaviorType] | np.ndarray,
    weights: Sequence[float] | np.ndarray,
    timestamps: Sequence[float] | np.ndarray,
    btype_table: Sequence[BehaviorType] | None = None,
    *,
    expiry_width: float,
) -> WeightGroups | None:
    """Validate and group one ``add_weights`` batch; ``None`` when empty.

    Pure function of the batch columns plus the target network's expiry
    bucket width — no network state is read.  Segments come out in
    ``(lo, hi, type)`` order, each holding its typed edge's contributions
    in array order (the grouping sort is stable); their weights are not
    reduced here — the apply walk folds each segment onto its record.
    """
    u_arr = np.asarray(u, dtype=np.int64)
    v_arr = np.asarray(v, dtype=np.int64)
    w_arr = np.asarray(weights, dtype=np.float64)
    ts_arr = np.asarray(timestamps, dtype=np.float64)
    scalar_ts = ts_arr.ndim == 0
    ts_scalar = float(ts_arr) if scalar_ts else 0.0
    n = len(u_arr)
    if not len(v_arr) == len(w_arr) == n:
        raise ValueError("add_weights columns must share one length")
    if not scalar_ts and len(ts_arr) != n:
        raise ValueError("add_weights columns must share one length")
    single_type = isinstance(btypes, BehaviorType)
    precoded = btype_table is not None and not single_type
    if precoded:
        codes = np.asarray(btypes, dtype=np.int64)
        if len(codes) != n:
            raise ValueError("add_weights columns must share one length")
    elif not single_type:
        type_list = list(btypes)
        if len(type_list) != n:
            raise ValueError("add_weights columns must share one length")
    if n == 0:
        return None
    # A NaN propagates through both reductions and fails the comparison.
    if not 0.0 < np.minimum.reduce(w_arr) <= np.maximum.reduce(w_arr) < np.inf:
        raise ValueError("edge weight contributions must be positive and finite")
    if not (math.isfinite(ts_scalar) if scalar_ts else np.isfinite(ts_arr).all()):
        raise ValueError("edge timestamps must be finite")
    if np.logical_and.reduce(u_arr < v_arr):
        # Canonical input (the pair enumerator emits u < v): no
        # self-loops possible and no per-row min/max needed.
        lo, hi = u_arr, v_arr
    else:
        if np.any(u_arr == v_arr):
            raise ValueError("self-loops are not part of BN")
        lo = np.minimum(u_arr, v_arr)
        hi = np.maximum(u_arr, v_arr)
    # Stable sort groups each typed edge's contributions contiguously
    # while preserving their array order within the group.
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    if single_type:
        order = np.lexsort((hi, lo))
        lo_s, hi_s = lo[order], hi[order]
        boundary[1:] = (lo_s[1:] != lo_s[:-1]) | (hi_s[1:] != hi_s[:-1])
    else:
        if precoded:
            decode = list(btype_table)
            span_code = int(np.maximum.reduce(codes)) + 1
            if np.minimum.reduce(codes) < 0 or span_code > len(decode):
                raise ValueError("add_weights type codes out of btype_table range")
        else:
            type_ids: dict[BehaviorType, int] = {}
            codes = np.fromiter(
                (type_ids.setdefault(t, len(type_ids)) for t in type_list),
                dtype=np.int64,
                count=n,
            )
            decode = list(type_ids)
            span_code = len(decode)
        # One packed int64 key sorts in a single stable (radix) pass
        # instead of three lexsort passes; fall back to lexsort when the
        # value spans could overflow the packing.
        lo0, hi0 = int(np.minimum.reduce(lo)), int(np.minimum.reduce(hi))
        span_hi = int(np.maximum.reduce(hi)) - hi0 + 1
        span_lo = int(np.maximum.reduce(lo)) - lo0 + 1
        if span_lo * span_hi * span_code < INT64_SAFE_SPAN:
            packed = ((lo - lo0) * span_hi + (hi - hi0)) * span_code + codes
            order = packed.argsort(kind="stable")
            lo_s, hi_s, code_s = lo[order], hi[order], codes[order]
            packed_s = packed[order]
            boundary[1:] = packed_s[1:] != packed_s[:-1]
        else:
            order = np.lexsort((codes, hi, lo))
            lo_s, hi_s, code_s = lo[order], hi[order], codes[order]
            boundary[1:] = (
                (lo_s[1:] != lo_s[:-1])
                | (hi_s[1:] != hi_s[:-1])
                | (code_s[1:] != code_s[:-1])
            )
    starts = boundary.nonzero()[0]
    bounds = starts.tolist()
    ends = bounds[1:]
    ends.append(n)

    key_lo = lo_s[starts].tolist()
    key_hi = hi_s[starts].tolist()
    if single_type:
        key_types: list[BehaviorType] = [btypes] * len(bounds)
    else:
        key_types = [decode[c] for c in code_s[starts].tolist()]

    if scalar_ts:
        # Every contribution shares one stamp: the per-segment max is
        # that stamp, and every registration lands in one bucket.
        latest = None
        bucket_ids = None
    else:
        latest_arr = np.maximum.reduceat(ts_arr[order], starts)  # max is exact
        latest = latest_arr.tolist()
        bucket_ids = (latest_arr // expiry_width).astype(np.int64).tolist()
    return WeightGroups(
        n=n,
        w_s=w_arr[order].tolist(),
        starts=bounds,
        ends=ends,
        key_lo=key_lo,
        key_hi=key_hi,
        key_types=key_types,
        ts_scalar=ts_scalar,
        latest=latest,
        bucket_ids=bucket_ids,
    )


class BehaviorNetwork:
    """Typed, weighted, timestamped user-user multigraph.

    Storage is a two-level dict: ``(min(u,v), max(u,v)) -> {type -> EdgeRecord}``
    plus a per-node adjacency index for O(deg) neighbourhood queries, which is
    what the BN server's subgraph sampling needs to be fast.
    """

    def __init__(self, ttl: float = DEFAULT_EDGE_TTL) -> None:
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.ttl = ttl
        self._edges: dict[tuple[int, int], dict[BehaviorType, EdgeRecord]] = {}
        # Insertion-ordered neighbour index (dict-as-ordered-set): neighbour
        # iteration order equals pair-creation order, which the read index
        # reconstructs from flat arrays (see repro.network.sharding).
        self._adjacency: dict[int, dict[int, None]] = {}
        # Pair-creation sequence tags: ``(lo, hi) -> seq`` stamped when the
        # pair first appears (and re-stamped on re-creation after expiry).
        # Sorting pairs by ``(seq, lo, hi)`` reproduces ``_edges`` insertion
        # order because one batch creates its pairs in (lo, hi) order.
        self._pair_seq: dict[tuple[int, int], int] = {}
        self._next_seq = 0
        self._version = 0
        # The one memoized flat view (``index()``); every array reader —
        # ``to_arrays()`` included — goes through it.
        self._index: ShardIndex | None = None
        # Change log: the ``(lo, hi)`` pairs written since the index
        # ``_log_base`` was built, so the next build re-reads only those.
        # ``None`` once it holds as many pairs as the network has: the next
        # build then reads every pair.
        self._changed: set[tuple[int, int]] | None = set()
        self._log_base: ShardIndex | None = None
        self._edge_types: tuple[int, frozenset[BehaviorType]] | None = None
        self._num_edges = 0
        # Expiry index: bucket id -> typed-edge keys whose ``last_update``
        # fell in that bucket when last touched.  Entries are lazy — a
        # refreshed edge is re-registered under its new bucket and the old
        # entry is discarded the next time its bucket is swept.
        self._expiry_width = ttl / _EXPIRY_BUCKETS
        self._expiry_buckets: dict[int, set[tuple[int, int, BehaviorType]]] = {}
        # Delta tracking for the lambda speed layer: when enabled, every
        # mutation (scalar/columnar weight accumulation, TTL expiry) counts
        # one touch per typed edge per endpoint.  ``None`` means disabled.
        self._delta: dict[int, int] | None = None

    # ------------------------------------------------------------------
    # Delta tracking (lambda speed layer)
    # ------------------------------------------------------------------
    def track_deltas(self) -> None:
        """Start (or reset) counting per-node edge touches since this call.

        While tracking, every typed-edge mutation — scalar
        :meth:`add_weight`, each typed-edge segment applied by
        :meth:`apply_weight_groups`, and each removal in
        :meth:`expire_edges` — counts one touch against both endpoints.
        The lambda batch pass calls this right after materializing, so
        :meth:`delta_touched` is exactly the set of nodes whose
        neighbourhood changed since the last batch pass.
        """
        self._delta = {}

    def delta_tracking(self) -> bool:
        """Whether delta tracking is currently enabled."""
        return self._delta is not None

    def delta_touched(self) -> dict[int, int]:
        """Per-node edge-touch counts since :meth:`track_deltas` (or empty)."""
        return dict(self._delta) if self._delta is not None else {}

    def delta_size(self) -> int:
        """Total edge touches since :meth:`track_deltas` (0 when disabled)."""
        return sum(self._delta.values()) if self._delta else 0

    def _delta_touch_pair(self, a: int, b: int) -> None:
        delta = self._delta
        delta[a] = delta.get(a, 0) + 1
        delta[b] = delta.get(b, 0) + 1

    def _log_changes(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Add written pairs to the change log, dropping it at ``num_pairs``."""
        changed = self._changed
        if changed is not None:
            changed.update(pairs)
            if len(changed) >= len(self._edges):
                self._changed = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _take_seq(self) -> int:
        """Claim the next pair-creation sequence tag."""
        self._next_seq += 1
        return self._next_seq - 1

    def add_weight(
        self,
        u: int,
        v: int,
        btype: BehaviorType,
        weight: float,
        timestamp: float,
    ) -> None:
        """Accumulate ``weight`` onto the typed edge ``(u, v, btype)``.

        Thin scalar wrapper over the same record-update core as
        :meth:`add_weights`; every call bumps the snapshot version (batch
        callers should use :meth:`add_weights`, which bumps once).
        """
        _check_contribution(u, v, weight, timestamp)
        key = _key(u, v)
        records = self._edges.get(key)
        if records is None:
            records = {}
            self._edges[key] = records
            self._pair_seq[key] = self._take_seq()
        record = records.get(btype)
        if record is None:
            record = EdgeRecord()
            records[btype] = record
            self._num_edges += 1
        record.weight += weight
        record.last_update = max(record.last_update, timestamp)
        self._adjacency.setdefault(u, {})[v] = None
        self._adjacency.setdefault(v, {})[u] = None
        self._register_expiry(key, btype, record.last_update)
        if self._delta is not None:
            self._delta_touch_pair(key[0], key[1])
        self._log_changes((key,))
        self._version += 1

    def add_weights(
        self,
        u: Sequence[int] | np.ndarray,
        v: Sequence[int] | np.ndarray,
        btypes: BehaviorType | Sequence[BehaviorType] | np.ndarray,
        weights: Sequence[float] | np.ndarray,
        timestamps: Sequence[float] | np.ndarray,
        btype_table: Sequence[BehaviorType] | None = None,
    ) -> int:
        """Apply a batch of weight contributions with **one** version bump.

        Columnar counterpart of :meth:`add_weight`: contribution ``i``
        accumulates ``weights[i]`` onto the typed edge
        ``(u[i], v[i], btypes[i])`` (``btypes`` may be a single type applied
        to every row).  Duplicate typed edges in the batch are allowed; the
        result is bit-for-bit identical to calling :meth:`add_weight` once
        per row in array order — contributions are stably grouped per typed
        edge and summed with a sequential left-to-right fold seeded by the
        record's existing weight, so even last-ulp rounding matches the
        scalar path.  Unlike the scalar path, validation is all-or-nothing:
        a bad row raises before anything is applied.  Returns the number of
        contributions applied.

        Callers that already hold integer type codes (the window-job hot
        path) can pass ``btypes`` as an int array plus ``btype_table``
        mapping code → type, skipping the per-row Python encode; a window
        job can likewise pass ``timestamps`` as a single scalar (every
        contribution shares the epoch end), which skips the per-row
        timestamp reduction and registers all touched edges under one
        expiry bucket in bulk.
        """
        groups = prepare_weight_groups(
            u,
            v,
            btypes,
            weights,
            timestamps,
            btype_table,
            expiry_width=self._expiry_width,
        )
        if groups is None:
            return 0
        return self.apply_weight_groups(groups)

    def apply_weight_groups(self, groups: WeightGroups) -> int:
        """Apply a prepared batch (see :func:`prepare_weight_groups`).

        The stateful half of :meth:`add_weights`: walks the batch's typed-edge
        segments once, mutating the edge/adjacency/expiry maps and folding
        each segment's contributions left to right onto its record's weight
        (``0.0`` for a record the batch creates) — the scalar ``+=`` order,
        bit for bit.  ``groups`` must have been prepared with this network's
        expiry bucket width.  One version bump; returns the number of
        contributions applied.
        """
        n = groups.n
        w_s = groups.w_s
        key_lo = groups.key_lo
        key_hi = groups.key_hi
        key_types = groups.key_types
        scalar_ts = groups.latest is None
        ts_scalar = groups.ts_scalar
        latest = groups.latest
        bucket_ids = groups.bucket_ids

        edges = self._edges
        adjacency = self._adjacency
        pair_seq = self._pair_seq
        # Pairs created by this batch share one sequence tag; within the
        # batch they are created in (lo, hi) order, so ``(seq, lo, hi)``
        # totally orders pair creation across batches.
        batch_seq = self._take_seq()
        created = 0
        reg_keys: list[tuple[int, int, BehaviorType]] = []
        reg_buckets: list[int] | None = None if scalar_ts else []
        segments = zip(key_lo, key_hi, key_types, groups.starts, groups.ends)
        for k, (a, b, btype, start, end) in enumerate(segments):
            records = edges.get((a, b))
            if records is None:
                records = {}
                edges[(a, b)] = records
                pair_seq[(a, b)] = batch_seq
                neighbours = adjacency.get(a)
                if neighbours is None:
                    adjacency[a] = {b: None}
                else:
                    neighbours[b] = None
                neighbours = adjacency.get(b)
                if neighbours is None:
                    adjacency[b] = {a: None}
                else:
                    neighbours[a] = None
            record = records.get(btype)
            stamp = ts_scalar if latest is None else latest[k]
            weight = 0.0 if record is None else record.weight
            for contribution in w_s[start:end]:
                weight += contribution
            if record is None:
                records[btype] = EdgeRecord(weight, stamp if stamp > 0.0 else 0.0)
                created += 1
            else:
                record.weight = weight
                if stamp <= record.last_update:
                    # Recency unchanged: the record is already indexed under
                    # its current bucket, so skip re-registration.
                    continue
                record.last_update = stamp
            reg_keys.append((a, b, btype))
            if reg_buckets is not None:
                reg_buckets.append(bucket_ids[k] if stamp > 0.0 else 0)
        if reg_keys:
            expiry = self._expiry_buckets
            if reg_buckets is None:
                bucket_id = (
                    int(ts_scalar // self._expiry_width) if ts_scalar > 0.0 else 0
                )
                entries = expiry.get(bucket_id)
                if entries is None:
                    entries = set()
                    expiry[bucket_id] = entries
                entries.update(reg_keys)
            else:
                for bucket_id, key3 in zip(reg_buckets, reg_keys):
                    entries = expiry.get(bucket_id)
                    if entries is None:
                        entries = set()
                        expiry[bucket_id] = entries
                    entries.add(key3)
        if self._delta is not None:
            for a, b in zip(key_lo, key_hi):
                self._delta_touch_pair(a, b)
        self._log_changes(zip(key_lo, key_hi))
        self._num_edges += created
        self._version += 1
        return n

    def add_node(self, uid: int) -> None:
        """Register a node even if it has no edges yet."""
        if uid not in self._adjacency:
            self._adjacency[uid] = {}
            self._version += 1

    def _register_expiry(
        self, key: tuple[int, int], btype: BehaviorType, last_update: float
    ) -> None:
        """Index a typed edge under its ``last_update`` time bucket."""
        bucket_id = int(last_update // self._expiry_width)
        entries = self._expiry_buckets.get(bucket_id)
        if entries is None:
            entries = set()
            self._expiry_buckets[bucket_id] = entries
        entries.add((key[0], key[1], btype))

    def expire_edges(self, now: float) -> int:
        """Drop typed edges older than the TTL; returns how many were removed.

        Mirrors the BN server's periodic cleanup that prevents the monotonous
        increase of the graph (Section V).  A sweep only visits the expiry
        index buckets whose time range lies at or before the cutoff, so its
        cost scales with the edges that *could* expire, not with the whole
        graph.
        """
        cutoff = now - self.ttl
        width = self._expiry_width
        limit = int(cutoff // width)
        removed = 0
        edges = self._edges
        adjacency = self._adjacency
        touched: list[tuple[int, int]] = []
        due = [bucket_id for bucket_id in self._expiry_buckets if bucket_id <= limit]
        for bucket_id in due:
            entries = self._expiry_buckets.pop(bucket_id)
            # The cutoff falls inside the boundary bucket, so fresh entries
            # that still live there must be kept; in every earlier bucket a
            # fresh record is guaranteed to be re-registered under a newer
            # bucket, so its stale entry can simply be dropped.
            survivors: set[tuple[int, int, BehaviorType]] | None = (
                set() if bucket_id == limit else None
            )
            for key in entries:
                a, b, btype = key
                records = edges.get((a, b))
                record = records.get(btype) if records is not None else None
                if record is None:
                    continue  # already removed; lazily dropped index entry
                if record.last_update < cutoff:
                    del records[btype]
                    removed += 1
                    touched.append((a, b))
                    if self._delta is not None:
                        self._delta_touch_pair(a, b)
                    if not records:
                        del edges[(a, b)]
                        self._pair_seq.pop((a, b), None)
                        adjacency[a].pop(b, None)
                        adjacency[b].pop(a, None)
                elif survivors is not None and int(record.last_update // width) == bucket_id:
                    survivors.add(key)
            if survivors:
                self._expiry_buckets[bucket_id] = survivors
        self._num_edges -= removed
        if removed:
            self._log_changes(touched)
            self._version += 1
        return removed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, uid: int) -> bool:
        return uid in self._adjacency

    def nodes(self) -> list[int]:
        """All registered node ids."""
        return list(self._adjacency)

    def num_nodes(self) -> int:
        """Number of registered nodes."""
        return len(self._adjacency)

    def num_edges(self) -> int:
        """Number of typed edges (``(u, v, r)`` triples), as in Table II.

        O(1): maintained as a running counter by :meth:`add_weight` /
        :meth:`add_weights` / :meth:`expire_edges`;
        :meth:`num_edges_scan` recomputes it from storage for the contract
        test.
        """
        return self._num_edges

    def num_edges_scan(self) -> int:
        """Recount typed edges by scanning storage (counter contract check)."""
        return sum(len(records) for records in self._edges.values())

    def num_pairs(self) -> int:
        """Number of connected node pairs irrespective of type."""
        return len(self._edges)

    def edge_types(self) -> set[BehaviorType]:
        """The set of edge types present in the network.

        Scanned once per :attr:`version` (like :meth:`to_arrays`; the write
        path pays nothing) and handed out as a fresh set each call.
        """
        cached = self._edge_types
        if cached is None or cached[0] != self._version:
            cached = (self._version, frozenset(chain.from_iterable(self._edges.values())))
            self._edge_types = cached
        return set(cached[1])

    def neighbors(self, uid: int, btype: BehaviorType | None = None) -> list[int]:
        """Neighbours of ``uid``; restricted to edge type ``btype`` if given."""
        if uid not in self._adjacency:
            return []
        if btype is None:
            return list(self._adjacency[uid])
        return [
            v
            for v in self._adjacency[uid]
            if btype in self._edges[_key(uid, v)]
        ]

    def edge(self, u: int, v: int) -> dict[BehaviorType, EdgeRecord]:
        """All typed records between ``u`` and ``v`` (empty dict if none)."""
        return self._edges.get(_key(u, v), {})

    def weight(self, u: int, v: int, btype: BehaviorType) -> float:
        """Accumulated weight of the typed edge (0 if absent)."""
        record = self._edges.get(_key(u, v), {}).get(btype)
        return record.weight if record is not None else 0.0

    def weighted_degree(self, uid: int, btype: BehaviorType | None = None) -> float:
        """Sum of (typed) edge weights incident to ``uid``."""
        total = 0.0
        for v in self._adjacency.get(uid, ()):
            records = self._edges[_key(uid, v)]
            if btype is None:
                total += sum(rec.weight for rec in records.values())
            elif btype in records:
                total += records[btype].weight
        return total

    def degree(self, uid: int, btype: BehaviorType | None = None) -> int:
        """Neighbour count, optionally restricted to one edge type."""
        if btype is None:
            return len(self._adjacency.get(uid, ()))
        return len(self.neighbors(uid, btype))

    def iter_edges(
        self, btype: BehaviorType | None = None
    ) -> Iterator[tuple[int, int, BehaviorType, EdgeRecord]]:
        """Yield ``(u, v, type, record)`` with ``u < v``."""
        for (u, v), records in self._edges.items():
            for t, record in records.items():
                if btype is None or t == btype:
                    yield u, v, t, record

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter; bumps whenever the graph actually changes."""
        return self._version

    def index(self) -> ShardIndex:
        """The network's read index
        (:class:`~repro.network.sharding.ShardIndex`), memoized against
        :attr:`version`.

        This is the network's only memoized flat view: repeated calls
        between mutations return the same object, and any ``add_weight`` /
        ``add_node`` / effective ``expire_edges`` invalidates it so the
        next call rebuilds — from the previous index, re-reading only the
        pairs in the change log.  A whole ``add_weights`` batch bumps the
        version once, so one window job costs at most one rebuild.  The
        batch sampler, the lambda sweep and :meth:`to_arrays` all read
        it.
        """
        from .sharding import build_shard_index

        cached = self._index
        if cached is None or cached.version != self._version:
            cached = build_shard_index(self, self._version, base=cached)
            self._index = cached
        return cached

    def to_arrays(self) -> BNSnapshot:
        """Export the network as flat typed numpy arrays (CSR-native form).

        The per-type edge-array view of :meth:`index`, memoized on it — so
        it follows the index's caching contract.  See
        ``docs/PERFORMANCE.md`` for the contract and
        :mod:`repro.network.snapshot` for the layout.
        """
        return self.index().snapshot()
