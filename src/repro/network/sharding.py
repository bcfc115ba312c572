"""Hash-partitioned sharding of the Behavior Network.

The deployed Turbo serves hundreds of millions of edges by partitioning the
BN across machines (PAPER.md Fig. 8b); this module is that substrate in
reproduction form.  Users are routed to shards by a stable integer hash
(:func:`shard_of`), every shard holds an ordinary
:class:`~repro.network.bn.BehaviorNetwork`, and
:class:`ShardedBehaviorNetwork` presents the union as one network with a
single cross-shard mutation counter (the *version barrier*).

Storage is **single-copy**: a pair ``(lo, hi)`` lives only on ``lo``'s owner
shard, so one ingest batch splits into disjoint per-shard sub-batches and
shard applies scale with the shard count (mirroring every edge on both
endpoint owners would cap ingest speedup at ~2x).  The price is that no
single shard can answer a neighbourhood query by itself — reads go through
a merged, read-only :class:`ShardIndex` instead (the *build-time mirror
exchange*), which is exactly the read-only-snapshot serving split the
deployment needs anyway (BRIGHT-style decoupling of graph access from
scoring, PAPERS.md).

Every array reader reads the index, sharded or not: a plain
:class:`~repro.network.bn.BehaviorNetwork`'s own ``index()`` is
:func:`build_shard_index` over one shard, and ``to_arrays()`` on either
class is ``index().snapshot()``.

Bit-exactness is the contract that makes all of this testable: the merged
index holds the same bytes at every shard count (the per-shard blocks
aside) and reproduces, bit for bit, what the network's dicts expose —

* pair-creation order is reconstructed from per-pair sequence tags
  (``BehaviorNetwork`` stamps ``_pair_seq`` at creation; one ingest batch
  shares a tag and creates its pairs in ``(lo, hi)`` order, so sorting by
  ``(seq, lo, hi)`` is the global ``_edges`` insertion order);
* per-type edge arrays, and therefore :class:`BNSnapshot` exports, equal a
  straight walk of ``iter_edges``, and the normalized weights equal
  :func:`repro.network.adjacency._typed_entries`' including its
  ``np.add.at`` degree accumulation order;
* per-``(node, type)`` neighbour selection replays the exact
  creation-order neighbour lists and stable top-``fanout`` ranking of
  :func:`repro.network.sampling._select_neighbors`.

``tests/test_network/test_sharding.py`` and
``tests/test_system/test_sampler_tiers.py`` pin all three for shard counts
{1, 2, 4, 8}.

What is *not* state: the order in which a shard's own network registered
its nodes (the key order of its ``_adjacency``).  A routed batch reaches a
shard as a sub-batch sorted by ``(lo, hi)``, so that order depends on the
shard count and on which entrance of the window job ran; nothing reads it —
the index sorts the node ids, :meth:`ShardedBehaviorNetwork.nodes` sorts,
``num_nodes`` builds a set — and tests compare a shard's nodes as a set.
The registration order of an *unsharded* network stays state (it is what
``from_network`` replays).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Collection, Iterator, Sequence

import numpy as np

from ..datagen.behavior_types import BehaviorType
from .bn import (
    DEFAULT_EDGE_TTL,
    BehaviorNetwork,
    EdgeRecord,
    _check_contribution,
    prepare_weight_groups,
)
from .snapshot import BNSnapshot, TypedEdgeArrays, positions_of

__all__ = [
    "shard_of",
    "ShardIndex",
    "build_shard_index",
    "ShardedBehaviorNetwork",
]

_MASK64 = (1 << 64) - 1
_EMPTY_I64 = np.empty(0, dtype=np.int64)


def shard_of(uids: Sequence[int] | np.ndarray, n_shards: int) -> np.ndarray:
    """Stable ``uid -> shard`` routing (vectorized splitmix64 finalizer).

    Pure function of ``(uid, n_shards)`` — the same user lands on the same
    shard in every process, which is what lets ingest routing and the merged
    index agree without coordination.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    z = np.asarray(uids, dtype=np.int64).astype(np.uint64)
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z % np.uint64(n_shards)).astype(np.int64)


def _shard_of_int(uid: int, n_shards: int) -> int:
    """Scalar twin of :func:`shard_of` (bit-identical, no array overhead)."""
    z = (int(uid) + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return int(z % n_shards)


@dataclass(slots=True)
class ShardBlock:
    """One shard's slice of the merged neighbour index.

    ``own_positions`` are the snapshot positions this shard owns (sorted);
    row ``i`` of the CSR (``indptr[i]:indptr[i+1]``) lists the half-edges of
    ``own_positions[i]`` in pair-creation order: neighbour positions in
    ``nbr_pos`` and the global pair-table index in ``pair_idx``.
    """

    own_positions: np.ndarray  # int64, sorted snapshot positions
    indptr: np.ndarray  # int64, len(own_positions) + 1
    nbr_pos: np.ndarray  # int64 neighbour snapshot positions
    pair_idx: np.ndarray  # int64 indices into the global pair table

    def row(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        """``(nbr_pos, pair_idx)`` slices of one owned node's half-edges."""
        local = int(np.searchsorted(self.own_positions, position))
        start, end = int(self.indptr[local]), int(self.indptr[local + 1])
        return self.nbr_pos[start:end], self.pair_idx[start:end]


@dataclass
class ShardIndex:
    """The merged, read-only flat view of a BN (one block when unsharded).

    The pair table (``pair_lo_pos``/``pair_hi_pos`` plus per-type dense
    weight columns) is in global pair-creation order, so per-type masks of
    it are the snapshot's edge arrays (:meth:`snapshot`); the
    per-shard :class:`ShardBlock` CSRs give each shard creation-order
    neighbour lists for the nodes it owns.  All fields are flat numpy
    arrays (:meth:`to_payload` names them all).  An index built from a network is immutable: its arrays, and those of
    its :meth:`snapshot`, are read-only, because the next version's index
    copies its unchanged rows from them.
    """

    version: int
    n_shards: int
    node_ids: np.ndarray  # sorted int64 user ids
    owner_of_pos: np.ndarray  # int64 owner shard per snapshot position
    pair_lo_pos: np.ndarray  # int64, len P
    pair_hi_pos: np.ndarray  # int64, len P
    pair_seq: np.ndarray  # int64, len P: creation sequence tags (ascending)
    types: tuple[BehaviorType, ...]
    type_weights: dict[BehaviorType, np.ndarray]  # dense P raw weights
    norm_weights: np.ndarray  # (len(types), P) normalized, row k of types[k]
    type_last_update: dict[BehaviorType, np.ndarray]  # dense P timestamps
    shards: list[ShardBlock]
    _snapshot: BNSnapshot | None = field(default=None, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def type_norm_weights(self) -> dict[BehaviorType, np.ndarray]:
        """Dense P normalized weights per type: the rows of ``norm_weights``."""
        return dict(zip(self.types, self.norm_weights))

    @property
    def num_pairs(self) -> int:
        return len(self.pair_lo_pos)

    def select_neighbors(
        self, keys: Sequence[tuple[int, BehaviorType]], fanout: int | None
    ) -> list[list[int]]:
        """Deterministic top-``fanout`` selection for ``(uid, type)`` keys.

        Each list is bit-exact against
        :func:`repro.network.sampling._select_neighbors` on the equivalent
        network (same creation-order candidate list, same stable
        ``argsort(-weights)`` ranking).  A frontier exchange asks for every
        type of a node at once, so positions are looked up in one
        vectorized call and a node's half-edge row is sliced once for all
        its keys.
        """
        positions = positions_of(self.node_ids, [uid for uid, _ in keys]).tolist()
        rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        selections: list[list[int]] = []
        for (_, btype), pos in zip(keys, positions):
            weights = self.type_weights.get(btype)
            if pos < 0 or weights is None:
                selections.append([])
                continue
            row = rows.get(pos)
            if row is None:
                row = rows[pos] = self.shards[int(self.owner_of_pos[pos])].row(pos)
            nbr, pid = row
            w = weights[pid]
            mask = w > 0.0
            candidates = self.node_ids[nbr[mask]]
            if fanout is not None and len(candidates) > fanout:
                candidates = candidates[np.argsort(-w[mask], kind="stable")[:fanout]]
            selections.append(candidates.tolist())
        return selections

    def induced_entries(
        self,
        union_positions: np.ndarray,
        live_shards: Sequence[int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(iu, iv, w, type_code)`` entries induced by the union node set.

        Frontier-local counterpart of
        :func:`repro.network.adjacency._typed_entries` over every type of
        the index (``type_code`` indexes ``types``): instead of masking
        every edge in the graph (O(E) per batch), gather the union nodes'
        CSR rows (O(sum deg)), dedup pairs on their ``lo`` side, and sort
        the surviving pair indices ascending — pair-table order **is**
        snapshot edge order.  One ``nonzero`` over the candidates' columns
        of ``norm_weights`` then emits the entries type-major and
        pair-ascending: the full-graph masks, type after type, in content
        *and* order, which keeps the downstream per-request CSR
        construction bit-exact.  Neighbour positions map to union rows by
        binary search over the sorted union positions, so nothing is sized
        by the whole network.  ``union_positions`` may contain ``-1``
        (unregistered nodes stay isolated rows, as in the dense path);
        ``live_shards`` drops rows owned by dead shards (partial serving).
        """
        inside = union_positions >= 0
        inside_pos = union_positions[inside]
        by_pos = np.argsort(inside_pos)
        sorted_pos = inside_pos[by_pos]
        union_row = np.flatnonzero(inside)[by_pos]
        live = None if live_shards is None else set(int(s) for s in live_shards)
        owner = self.owner_of_pos[inside_pos]
        # Candidate pair ids are finished with np.unique (sorted), so the
        # gather order is free — group union members by owner shard and
        # slice every member's CSR row in one vectorized gather instead of
        # a per-node Python loop (the serve-path hot spot at 10^6 nodes).
        chunks: list[np.ndarray] = []
        for s, block in enumerate(self.shards):
            if live is not None and s not in live:
                continue
            members = inside_pos[owner == s]
            if not len(members):
                continue
            local = np.searchsorted(block.own_positions, members)
            starts = block.indptr[local]
            lengths = block.indptr[local + 1] - starts
            total = int(lengths.sum())
            if not total:
                continue
            bounds = np.cumsum(lengths)
            gidx = (
                np.arange(total, dtype=np.int64)
                - np.repeat(bounds - lengths, lengths)
                + np.repeat(starts, lengths)
            )
            nbr = block.nbr_pos[gidx]
            pid = block.pair_idx[gidx]
            slot = np.minimum(np.searchsorted(sorted_pos, nbr), len(sorted_pos) - 1)
            keep = (sorted_pos[slot] == nbr) & (
                self.pair_lo_pos[pid] == np.repeat(members, lengths)
            )
            if keep.any():
                chunks.append(pid[keep])
        candidates = (
            np.unique(np.concatenate(chunks)) if chunks else _EMPTY_I64
        )
        weights = self.norm_weights[:, candidates]
        type_code, column = np.nonzero(weights > 0.0)
        kept = candidates[column]
        return (
            union_row[np.searchsorted(sorted_pos, self.pair_lo_pos[kept])],
            union_row[np.searchsorted(sorted_pos, self.pair_hi_pos[kept])],
            weights[type_code, column],
            type_code,
        )

    def snapshot(self) -> BNSnapshot:
        """The per-type edge-array view (what ``to_arrays()`` returns on
        either network class), memoized: sorted node ids, and per type the
        pairs carrying it in pair-creation order — so the degree
        accumulation memoized inside the snapshot is partition-independent
        too."""
        if self._snapshot is None:
            edges: dict[BehaviorType, TypedEdgeArrays] = {}
            for btype in self.types:
                w = self.type_weights[btype]
                idx = np.flatnonzero(w > 0.0)
                edges[btype] = TypedEdgeArrays(
                    *_frozen(
                        self.pair_lo_pos[idx],
                        self.pair_hi_pos[idx],
                        w[idx],
                        self.type_last_update[btype][idx],
                    )
                )
            self._snapshot = BNSnapshot(
                node_ids=self.node_ids, edges=edges, version=self.version
            )
        return self._snapshot

    # ------------------------------------------------------------------
    # Byte digest
    # ------------------------------------------------------------------
    def to_payload(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """Every array of the index by name, plus JSON-safe meta.

        The byte-level digest the parity suites compare across shard
        counts and against a full re-walk of the network.
        """
        arrays: dict[str, np.ndarray] = {
            "node_ids": self.node_ids,
            "owner_of_pos": self.owner_of_pos,
            "pair_lo_pos": self.pair_lo_pos,
            "pair_hi_pos": self.pair_hi_pos,
            "pair_seq": self.pair_seq,
        }
        for btype, norm in zip(self.types, self.norm_weights):
            arrays[f"w:{btype.value}"] = self.type_weights[btype]
            arrays[f"wn:{btype.value}"] = norm
            arrays[f"lu:{btype.value}"] = self.type_last_update[btype]
        for s, block in enumerate(self.shards):
            arrays[f"blk{s}:own"] = block.own_positions
            arrays[f"blk{s}:indptr"] = block.indptr
            arrays[f"blk{s}:nbr"] = block.nbr_pos
            arrays[f"blk{s}:pair"] = block.pair_idx
        meta = {
            "version": self.version,
            "n_shards": self.n_shards,
            "types": [btype.value for btype in self.types],
        }
        return arrays, meta


#: ``(lo, hi, seq, weight-by-type, last-update-by-type)`` rows of pairs.
_PairTable = tuple[
    np.ndarray,
    np.ndarray,
    np.ndarray,
    dict[BehaviorType, np.ndarray],
    dict[BehaviorType, np.ndarray],
]


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, each made read-only."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _export_pair_table(bn: BehaviorNetwork, pairs: Collection[tuple[int, int]]) -> _PairTable:
    """One pass over ``pairs`` of a shard's edge dict, rows in ``pairs`` order.

    Per-type dense columns carry 0.0 where the pair lacks the type (edge
    weights are strictly positive, so 0.0 unambiguously means "absent").
    """
    edges = bn._edges
    count = len(pairs)
    # Pair-level columns at C speed; only the per-record scatter is a loop.
    lo, hi = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * count).reshape(count, 2).T
    seq = np.fromiter(map(bn._pair_seq.__getitem__, pairs), np.int64, count)
    w_by: dict[BehaviorType, np.ndarray] = {}
    lu_by: dict[BehaviorType, np.ndarray] = {}
    for i, records in enumerate(map(edges.__getitem__, pairs)):
        for btype, record in records.items():
            w_col = w_by.get(btype)
            if w_col is None:
                w_col = w_by[btype] = np.zeros(count)
                lu_col = lu_by[btype] = np.zeros(count)
            else:
                lu_col = lu_by[btype]
            w_col[i] = record.weight
            lu_col[i] = record.last_update
    return lo, hi, seq, w_by, lu_by


def _unchanged_rows(base: ShardIndex, changed: set[tuple[int, int]]) -> _PairTable:
    """``base``'s rows of the pairs not in ``changed``, as a pair table.

    Types that no kept row carries are left out, as a walk leaves them out.
    """
    node_ids, n = base.node_ids, base.num_nodes
    pairs = np.fromiter(chain.from_iterable(changed), np.int64, 2 * len(changed))
    lo_pos, hi_pos = positions_of(node_ids, pairs.reshape(-1, 2).T)
    known = (lo_pos >= 0) & (hi_pos >= 0)
    keep = np.flatnonzero(
        ~np.isin(base.pair_lo_pos * n + base.pair_hi_pos, lo_pos[known] * n + hi_pos[known])
    )
    w_by = {t: base.type_weights[t][keep] for t in base.types}
    w_by = {t: w for t, w in w_by.items() if w.any()}
    lu_by = {t: base.type_last_update[t][keep] for t in w_by}
    lo_pos, hi_pos = base.pair_lo_pos[keep], base.pair_hi_pos[keep]
    return node_ids[lo_pos], node_ids[hi_pos], base.pair_seq[keep], w_by, lu_by


def build_shard_index(
    shards: Sequence[BehaviorNetwork],
    n_shards: int,
    version: int,
    base: ShardIndex | None = None,
) -> ShardIndex:
    """Merge per-shard pair tables into one :class:`ShardIndex`.

    This is the build-time mirror exchange: each shard exports only the
    pairs it stores (single copy, owner of ``lo``); the merge sorts the
    concatenation by ``(seq, lo, hi)`` — the global pair-creation order —
    and then redistributes *half-edges* to the owner of each endpoint, so
    every shard block can serve creation-order neighbour lists for all the
    nodes it owns, including those whose pairs live elsewhere.

    A write changes few pairs, so the exported pairs are only those in the
    shards' change logs when ``base`` is the index those logs were last
    drained into; every other row is copied from ``base``, which is never
    written.  The sort then places each row where a walk of every pair
    would: a re-read pair that kept its tag keeps its place, a removed one
    is gone, and one created (or re-created) since carries a newer tag.
    Without such a base — a first build, a dropped log, a log drained into
    another index — it is the same patch of an empty base in which every
    pair changed.  Either way the logs are drained into the new index.
    """
    if base is not None and all(s._changed is not None and s._log_base is base for s in shards):
        tables = [_unchanged_rows(base, set().union(*(s._changed for s in shards)))]
        reads = [[pair for pair in s._changed if pair in s._edges] for s in shards]
    else:
        tables, reads = [], [s._edges for s in shards]
    tables += [_export_pair_table(shard, pairs) for shard, pairs in zip(shards, reads)]
    lo = np.concatenate([t[0] for t in tables])
    hi = np.concatenate([t[1] for t in tables])
    seq = np.concatenate([t[2] for t in tables])
    order = np.lexsort((hi, lo, seq))
    lo, hi, seq = lo[order], hi[order], seq[order]
    types = tuple(sorted(set().union(*(t[3].keys() for t in tables))))

    def column(by_type: int, btype: BehaviorType) -> np.ndarray:
        """One type's dense column over every shard, in merged pair order."""
        parts = [
            t[by_type][btype] if btype in t[by_type] else np.zeros(len(t[0]))
            for t in tables
        ]
        return np.concatenate(parts)[order]

    type_weights = {btype: column(3, btype) for btype in types}
    type_last_update = {btype: column(4, btype) for btype in types}

    node_arrays = [
        np.fromiter(shard._adjacency.keys(), dtype=np.int64, count=len(shard._adjacency))
        for shard in shards
    ]
    node_ids = np.unique(np.concatenate(node_arrays)) if node_arrays else _EMPTY_I64
    lo_pos = np.searchsorted(node_ids, lo)
    hi_pos = np.searchsorted(node_ids, hi)
    owner_of_pos = shard_of(node_ids, n_shards)

    num_pairs = len(lo)
    norm_weights = np.zeros((len(types), num_pairs))
    for dense, btype in zip(norm_weights, types):
        w = type_weights[btype]
        mask = w > 0.0
        idx = np.flatnonzero(mask)
        rows, cols, values = lo_pos[idx], hi_pos[idx], w[idx]
        # Replays BNSnapshot.weighted_degrees' two np.add.at passes over the
        # same arrays in the same order, so degrees (and the normalized
        # weights below) match adjacency._typed_entries' to the last ulp.
        degrees = np.zeros(len(node_ids))
        np.add.at(degrees, rows, values)
        np.add.at(degrees, cols, values)
        product = degrees[rows] * degrees[cols]
        normalized = np.divide(
            values,
            np.sqrt(product, out=np.zeros_like(product), where=product > 0),
            out=np.zeros_like(values),
            where=product > 0,
        )
        dense[idx] = normalized

    pair_range = np.arange(num_pairs, dtype=np.int64)
    node_half = np.concatenate([lo_pos, hi_pos])
    nbr_half = np.concatenate([hi_pos, lo_pos])
    pair_half = np.concatenate([pair_range, pair_range])
    owner_half = owner_of_pos[node_half] if len(node_half) else _EMPTY_I64
    half_order = np.lexsort((pair_half, node_half, owner_half))
    node_half = node_half[half_order]
    nbr_half = nbr_half[half_order]
    pair_half = pair_half[half_order]
    owner_half = owner_half[half_order]
    bounds = np.searchsorted(owner_half, np.arange(n_shards + 1))
    blocks: list[ShardBlock] = []
    for s in range(n_shards):
        start, end = int(bounds[s]), int(bounds[s + 1])
        own_positions = np.flatnonzero(owner_of_pos == s).astype(np.int64)
        local = np.searchsorted(own_positions, node_half[start:end])
        counts = np.bincount(local, minlength=len(own_positions))
        indptr = np.zeros(len(own_positions) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        blocks.append(
            ShardBlock(
                own_positions=own_positions,
                indptr=indptr,
                nbr_pos=np.ascontiguousarray(nbr_half[start:end]),
                pair_idx=np.ascontiguousarray(pair_half[start:end]),
            )
        )
    index = ShardIndex(
        version=version,
        n_shards=n_shards,
        node_ids=node_ids,
        owner_of_pos=owner_of_pos,
        pair_lo_pos=lo_pos,
        pair_hi_pos=hi_pos,
        pair_seq=seq,
        types=types,
        type_weights=type_weights,
        norm_weights=norm_weights,
        type_last_update=type_last_update,
        shards=blocks,
    )
    _frozen(norm_weights, *index.to_payload()[0].values())
    for shard in shards:
        shard._changed, shard._log_base = set(), index
    return index


class ShardedBehaviorNetwork:
    """N hash-partitioned :class:`BehaviorNetwork` shards behind one facade.

    Copies this much of the ``BehaviorNetwork`` surface and no more — what
    ``BNBuilder.run_window_job``, ``BNServer`` and the lambda layer call,
    plus the scalar ``add_weight`` and ``iter_edges`` the parity oracles
    replay: the writes ``add_weights`` / ``add_weight`` / ``add_node`` /
    ``expire_edges``, the delta tracking of the lambda speed layer, and the
    reads ``ttl``, ``version``, ``index`` / ``to_arrays``, membership,
    ``nodes`` / ``num_nodes`` / ``num_edges`` (plus its ``num_edges_scan``
    check), ``edge_types``, ``degree`` and ``iter_edges``.  Mutations route
    by the owner of the pair's ``lo`` endpoint and bump **one** facade
    version per batch (the cross-shard version barrier); reads that need
    cross-shard order (neighbour lists, snapshots, sampling) go through the
    memoized :meth:`index`.
    """

    def __init__(self, n_shards: int, ttl: float = DEFAULT_EDGE_TTL) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.ttl = ttl
        self.shards = [BehaviorNetwork(ttl) for _ in range(n_shards)]
        self._version = 0
        self._next_seq = 0
        self._index: ShardIndex | None = None
        self._stats = {"batches": 0, "rows": 0, "cross_shard": 0}
        self._shard_rows = [0] * n_shards

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def owner_of(self, uid: int) -> int:
        """Owner shard of ``uid`` (stable hash routing)."""
        return _shard_of_int(uid, self.n_shards)

    def claim_seq(self, seq: int | None = None) -> int:
        """Claim the next global pair-creation sequence tag."""
        if seq is None:
            seq = self._next_seq
        self._next_seq = max(self._next_seq, seq + 1)
        return seq

    # ------------------------------------------------------------------
    # Mutation (BehaviorNetwork surface)
    # ------------------------------------------------------------------
    def add_weight(
        self,
        u: int,
        v: int,
        btype: BehaviorType,
        weight: float,
        timestamp: float,
        seq: int | None = None,
    ) -> None:
        """Scalar contribution, routed to the owner of ``min(u, v)``."""
        _check_contribution(u, v, weight, timestamp)
        lo, hi = (u, v) if u < v else (v, u)
        owner = self.owner_of(lo)
        self.shards[owner].add_weight(
            u, v, btype, weight, timestamp, seq=self.claim_seq(seq)
        )
        self._stats["rows"] += 1
        if owner != self.owner_of(hi):
            self._stats["cross_shard"] += 1
        self._shard_rows[owner] += 1
        self._version += 1

    def add_weights(
        self,
        u: Sequence[int] | np.ndarray,
        v: Sequence[int] | np.ndarray,
        btypes: BehaviorType | Sequence[BehaviorType] | np.ndarray,
        weights: Sequence[float] | np.ndarray,
        timestamps: Sequence[float] | np.ndarray,
        btype_table: Sequence[BehaviorType] | None = None,
        seq: int | None = None,
    ) -> int:
        """Batched contributions with one cross-shard version barrier.

        Same contract as :meth:`BehaviorNetwork.add_weights` — per-record
        results are bit-for-bit identical because every pair's rows land on
        one shard as an order-preserving subsequence of the batch, and all
        shards stamp created pairs with the same global sequence tag.
        """
        # The stateless preparation (validate, canonicalize, group, box keys)
        # runs once for the batch and every owner gets its segments, so a
        # shard's apply is only its state-mutation and fold walk.
        groups = prepare_weight_groups(
            u,
            v,
            btypes,
            weights,
            timestamps,
            btype_table,
            expiry_width=self.shards[0]._expiry_width,
        )
        if groups is None:
            return 0
        owner = shard_of(groups.key_lo, self.n_shards)
        cross = owner != shard_of(groups.key_hi, self.n_shards)
        batch_seq = self.claim_seq(seq)
        for s in np.unique(owner).tolist():
            sub = groups.take(np.flatnonzero(owner == s))
            self.shards[s].apply_weight_groups(sub, seq=batch_seq)
            self._shard_rows[s] += sub.n
        self._stats["batches"] += 1
        self._stats["rows"] += groups.n
        lengths = np.subtract(groups.ends, groups.starts)
        self._stats["cross_shard"] += int(lengths[cross].sum())
        self._version += 1
        return groups.n

    def add_node(self, uid: int) -> None:
        """Register a node on its owner shard."""
        shard = self.shards[self.owner_of(uid)]
        if uid not in shard._adjacency:
            shard.add_node(uid)
            self._version += 1

    def expire_edges(self, now: float) -> int:
        """TTL sweep on every shard under one version barrier."""
        removed = sum(shard.expire_edges(now) for shard in self.shards)
        if removed:
            self._version += 1
        return removed

    # ------------------------------------------------------------------
    # Delta tracking (lambda speed layer) — forwarded to every shard
    # ------------------------------------------------------------------
    def track_deltas(self) -> None:
        """Enable (or reset) per-node touch counting on every shard."""
        for shard in self.shards:
            shard.track_deltas()

    def delta_tracking(self) -> bool:
        """Whether delta tracking is enabled (on every shard)."""
        return all(shard.delta_tracking() for shard in self.shards)

    def delta_touched(self) -> dict[int, int]:
        """Merged per-node touch counts across shards.

        A pair lives on exactly one shard (its lo-endpoint's owner), but a
        node can be an endpoint of pairs on several shards, so counts are
        summed per node.
        """
        merged: dict[int, int] = {}
        for shard in self.shards:
            for uid, count in shard.delta_touched().items():
                merged[uid] = merged.get(uid, 0) + count
        return merged

    def delta_size(self) -> int:
        """Total edge touches across all shards since tracking started."""
        return sum(shard.delta_size() for shard in self.shards)

    def drain_route_stats(self) -> dict[str, Any]:
        """Return and reset accumulated routing counters (BNServer drains
        these into the ``bn.shard.ingest.*`` metrics)."""
        stats = dict(self._stats)
        stats["shard_rows"] = tuple(self._shard_rows)
        self._stats = {"batches": 0, "rows": 0, "cross_shard": 0}
        self._shard_rows = [0] * self.n_shards
        return stats

    # ------------------------------------------------------------------
    # Queries (BehaviorNetwork surface)
    # ------------------------------------------------------------------
    def __contains__(self, uid: int) -> bool:
        return any(uid in shard._adjacency for shard in self.shards)

    def nodes(self) -> list[int]:
        """All registered node ids (sorted — cross-shard order is hash
        noise, so the facade canonicalizes)."""
        seen: set[int] = set()
        for shard in self.shards:
            seen.update(shard._adjacency)
        return sorted(seen)

    def num_nodes(self) -> int:
        """Distinct registered users across all shards."""
        seen: set[int] = set()
        for shard in self.shards:
            seen.update(shard._adjacency)
        return len(seen)

    def num_edges(self) -> int:
        """Live typed edges (pairs stored once, so shard sums are exact)."""
        return sum(shard.num_edges() for shard in self.shards)

    def num_edges_scan(self) -> int:
        """Full-scan edge count (diagnostic twin of :meth:`num_edges`)."""
        return sum(shard.num_edges_scan() for shard in self.shards)

    def edge_types(self) -> set[BehaviorType]:
        """Union of behavior types present on any shard."""
        types: set[BehaviorType] = set()
        for shard in self.shards:
            types.update(shard.edge_types())
        return types

    def degree(self, uid: int, btype: BehaviorType | None = None) -> int:
        """Neighbour count of ``uid`` (optionally restricted to one type)."""
        # A node's pairs are spread across shards (each stored once), so
        # the per-shard degrees are disjoint and sum exactly.
        return sum(shard.degree(uid, btype) for shard in self.shards)

    def iter_edges(
        self, btype: BehaviorType | None = None
    ) -> Iterator[tuple[int, int, BehaviorType, EdgeRecord]]:
        """Yield ``(u, v, type, record)`` in global pair-creation order."""
        pairs: list[tuple[int, int, int, dict[BehaviorType, EdgeRecord]]] = []
        for shard in self.shards:
            for (a, b), records in shard._edges.items():
                pairs.append((shard._pair_seq[(a, b)], a, b, records))
        pairs.sort(key=lambda item: item[:3])
        for _, a, b, records in pairs:
            for t, record in records.items():
                if btype is None or t == btype:
                    yield a, b, t, record

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Facade mutation counter (one bump per cross-shard barrier)."""
        return self._version

    def index(self) -> ShardIndex:
        """The merged read index, memoized against :attr:`version` and
        patched from the last one with the shards' merged change logs."""
        cached = self._index
        if cached is None or cached.version != self._version:
            cached = build_shard_index(
                self.shards, self.n_shards, self._version, base=cached
            )
            self._index = cached
        return cached

    def to_arrays(self) -> BNSnapshot:
        """Merged snapshot (bit-exact vs the unsharded ``to_arrays``)."""
        return self.index().snapshot()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_network(
        cls, bn: BehaviorNetwork, n_shards: int
    ) -> "ShardedBehaviorNetwork":
        """Partition an existing network, preserving pair-creation order.

        Each pair is replayed onto its owner shard tagged with its rank in
        the source's ``_edges`` insertion order, so the sharded index (and
        every sample taken from it) is bit-exact against the source.
        """
        sharded = cls(n_shards, ttl=bn.ttl)
        for uid in bn._adjacency:
            shard = sharded.shards[sharded.owner_of(uid)]
            if uid not in shard._adjacency:
                shard.add_node(uid)
        for rank, ((a, b), records) in enumerate(bn._edges.items()):
            shard = sharded.shards[sharded.owner_of(a)]
            for btype, record in records.items():
                shard.add_weight(
                    a, b, btype, record.weight, record.last_update, seq=rank
                )
        sharded._next_seq = len(bn._edges)
        sharded._version += 1
        return sharded
