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
  straight walk of ``iter_edges``, and the normalized weights equal the
  whole-graph snapshot mask's of ``tests/oracles/sampling.py``, including
  its ``np.add.at`` degree accumulation order;
* each node's fanout-capped neighbour selection (:meth:`ShardIndex.selection`)
  replays the creation-order neighbour lists and stable top-``fanout``
  ranking of the dict walk in ``tests/oracles/sampling.py``.

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

import weakref
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Collection, Iterator, Sequence

import numpy as np

from ..datagen.behavior_types import BehaviorType
from ..nn.sparse import csr_topk_rows
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

#: ``(indptr, nbr)``: a selection CSR, rows and neighbours as positions.
_Selection = tuple[np.ndarray, np.ndarray]

#: ``[lookup]``: the position -> union-row map of
#: :meth:`ShardIndex.induced_entries`, grown with the network and reused by
#: every call.  A call marks its members, reads, and resets them in a
#: ``finally``, so between calls every entry is ``-1``.
_ROWS: list = [np.empty(0, dtype=np.int64)]


def _check_fanout(fanout: int | None) -> None:
    """A negative cap would slice "all but the lightest" neighbours."""
    if fanout is not None and fanout < 0:
        raise ValueError("fanout must be non-negative or None")


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


@dataclass
class ShardIndex:
    """The merged, read-only flat view of a BN (one block when unsharded).

    The pair table (``pair_lo_pos``/``pair_hi_pos`` plus per-type dense
    weight columns) is in global pair-creation order, so per-type masks of
    it are the snapshot's edge arrays (:meth:`snapshot`); the
    per-shard :class:`ShardBlock` CSRs give each shard creation-order
    neighbour lists for the nodes it owns, and :meth:`selection` each
    node's fanout-capped top-k of them.  :meth:`to_payload` names every
    array of the view; ``degrees``, ``touched`` and ``base`` are what the
    next build and the readers' version-keyed state patch from.  An index
    built from a network is immutable: its arrays, and those of its
    :meth:`snapshot` and its selections, are read-only, because the next
    version's index copies its unchanged rows from them.
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
    #: ``(len(types), num_nodes)`` weighted degree per type, the folds the
    #: normalisation divides by; the next patch keeps its untouched columns.
    degrees: np.ndarray | None = field(default=None, repr=False, compare=False)
    #: sorted uids whose rows this build re-derived (every node after a patch
    #: of the empty base): the endpoints of the pairs written since ``base``
    #: and the nodes registered since.
    touched: np.ndarray | None = field(default=None, repr=False, compare=False)
    #: registered nodes summed over the shards (a node count that only grows).
    _registered: int = field(default=0, repr=False, compare=False)
    _base_ref: "weakref.ref[ShardIndex] | None" = field(default=None, repr=False, compare=False)
    #: ``(3, len(types), P)``: the raw weights, timestamps and normalised
    #: weights whose rows the three per-type views are.
    _columns: np.ndarray | None = field(default=None, repr=False, compare=False)
    _snapshot: BNSnapshot | None = field(default=None, repr=False, compare=False)
    #: :meth:`selection` per fanout.
    _selections: dict[int | None, _Selection] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def base(self) -> "ShardIndex | None":
        """The index this one was patched from, while that one is alive
        (``None`` after a first build); the two differ only around the
        ``touched`` nodes, and in positions a new node shifted."""
        return None if self._base_ref is None else self._base_ref()

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_pairs(self) -> int:
        return len(self.pair_lo_pos)

    def selection(self, fanout: int | None) -> _Selection:
        """Every node's fanout-capped neighbour selection, as one CSR.

        ``(indptr, nbr)``, positions both: row ``p`` is ``node_ids[p]``'s
        selection for ``types[0]``, then ``types[1]``, and so on — the
        candidate stream one BFS hop enumerates for the node.  A type's
        selection lists the neighbours the type's pair weight is positive
        for, in pair-creation order, capped at their top ``fanout`` by raw
        weight (stable, so ties keep creation order); ``None`` keeps all.
        Memoized per fanout, and read-only: the next version's index
        carries it, re-ranked at its touched rows only
        (:func:`build_shard_index`).
        """
        selection = self._selections.get(fanout)
        if selection is None:  # the patch of an empty selection: every row is ranked
            _check_fanout(fanout)
            weights = np.array([self.type_weights[btype] for btype in self.types])
            empty = (np.zeros(1, dtype=np.int64), _EMPTY_I64)
            ranked = _ranked(
                empty,
                _EMPTY_I64,
                np.ones(self.num_nodes, dtype=bool),
                _half_edges(self.shards),
                weights.reshape(len(self.types), self.num_pairs),
                fanout,
            )
            selection = self._selections[fanout] = _frozen(*ranked)
        return selection

    def induced_entries(
        self,
        union_positions: np.ndarray,
        live_shards: Sequence[int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(iu, iv, w, type_code)`` entries induced by the union node set.

        The one BN inducer — serving's batches, the sweep's targets and
        :func:`~repro.network.adjacency.typed_adjacency` — over every
        type of the index (``type_code`` indexes ``types``): instead of
        masking every edge in the graph (O(E) per batch), gather the union
        nodes' CSR rows (O(sum deg)), dedup pairs on their ``lo`` side, and
        sort the surviving pair indices ascending — pair-table order
        **is** snapshot edge order.  One ``nonzero`` over the candidates' columns
        of ``norm_weights`` then emits the entries type-major and
        pair-ascending: the full-graph masks, type after type, in content
        *and* order, which keeps the downstream per-request CSR
        construction bit-exact.  Neighbour positions map to union rows
        through a position lookup every call reuses and resets
        (:data:`_ROWS`), so a call costs O(sum deg) and allocates nothing
        sized by the network.  ``union_positions`` are distinct, in any
        order, and may contain ``-1`` (unregistered nodes stay isolated
        rows, as in the dense path); ``live_shards`` drops rows owned by
        dead shards (partial serving).
        """
        inside = union_positions >= 0
        inside_pos = union_positions[inside]
        n, lookup = len(self.node_ids), _ROWS[0]
        if len(lookup) < n:
            lookup = _ROWS[0] = np.full(max(n, 2 * len(lookup)), -1, dtype=np.int64)
        try:
            lookup[inside_pos] = inside.nonzero()[0]
            node, nbr, pair = self.row_gather(inside_pos, live_shards)
            # The gather order is free, as the pair ids are sorted below; a
            # pair is kept once, from its lo endpoint's row.
            candidates = pair[(lookup[nbr] >= 0) & (self.pair_lo_pos[pair] == node)]
            candidates.sort()
            weights = self.norm_weights[:, candidates]
            type_code, column = (weights > 0.0).nonzero()
            kept = candidates[column]
            return (
                lookup[self.pair_lo_pos[kept]],
                lookup[self.pair_hi_pos[kept]],
                weights[type_code, column],
                type_code,
            )
        finally:
            lookup[inside_pos] = -1

    def row_gather(
        self, positions: np.ndarray, live_shards: Sequence[int] | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(node, nbr, pair)`` of every half-edge in the rows of ``positions``.

        Each block slices its members' rows in one vectorized gather, so
        the half-edges come block by block, each member's in pair order.
        ``live_shards`` leaves out the rows of the blocks it does not name.
        """
        owner = self.owner_of_pos[positions] if self.n_shards > 1 else None
        parts = [(_EMPTY_I64, _EMPTY_I64, _EMPTY_I64)]
        for s, block in enumerate(self.shards):
            members = positions if owner is None else positions[owner == s]
            if not len(members) or (live_shards is not None and s not in live_shards):
                continue
            local = block.own_positions.searchsorted(members)
            starts = block.indptr[local]
            lengths = block.indptr[local + 1] - starts
            ends = lengths.cumsum()
            gather = np.arange(ends[-1]) + (starts - ends + lengths).repeat(lengths)
            parts.append((members.repeat(lengths), block.nbr_pos[gather], block.pair_idx[gather]))
        if len(parts) == 2:
            return parts[1]
        return tuple(map(np.concatenate, zip(*parts)))

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


def _empty_index(n_shards: int) -> ShardIndex:
    """What a first build patches: no node, no pair, ``n_shards`` empty blocks."""
    empty = _EMPTY_I64
    return ShardIndex(
        version=-1,
        n_shards=n_shards,
        node_ids=empty,
        owner_of_pos=empty,
        pair_lo_pos=empty,
        pair_hi_pos=empty,
        pair_seq=empty,
        types=(),
        type_weights={},
        norm_weights=np.zeros((0, 0)),
        type_last_update={},
        shards=[ShardBlock(empty, np.zeros(1, dtype=np.int64), empty, empty)] * n_shards,
        degrees=np.zeros((0, 0)),
        _columns=np.zeros((3, 0, 0)),
    )


def _merged(
    old: np.ndarray, new: np.ndarray, source: np.ndarray, new_slots: np.ndarray
) -> np.ndarray:
    """Pair columns (the last axis): ``old``'s in ``source`` order, and
    ``new``'s at ``new_slots`` (where ``source`` holds any index)."""
    out = np.empty((*old.shape[:-1], len(source)), dtype=old.dtype)
    if old.shape[-1]:
        old.take(source, axis=-1, out=out, mode="clip")
    out[..., new_slots] = new
    return out


def _retyped(matrix: np.ndarray, rows: np.ndarray, n_types: int) -> np.ndarray:
    """A per-type ``matrix`` (types on axis -2) with its rows at ``rows`` of
    ``n_types``; a type it lacks is a row of zeros."""
    if len(rows) == n_types:
        return matrix
    out = np.zeros((*matrix.shape[:-2], n_types, matrix.shape[-1]))
    out[..., rows, :] = matrix
    return out


def _insertion_points(
    base: ShardIndex,
    seq: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    again: np.ndarray,
    own_row: np.ndarray,
) -> np.ndarray:
    """``searchsorted`` of rows keyed ``(seq, lo, hi)`` (uids) over all three
    keys of ``base``'s rows.

    Rows ``again`` are re-read pairs still in ``base`` at ``own_row``: one
    that kept its tag is found at its own row.  Any other row searches the
    run of base rows that share its tag; a new tag's run is empty.
    """
    ins = np.searchsorted(base.pair_seq, seq)
    stop = np.searchsorted(base.pair_seq, seq, side="right")
    kept_tag = base.pair_seq[own_row] == seq[again]
    ins[again[kept_tag]] = stop[again[kept_tag]] = own_row[kept_tag]
    while (searching := ins < stop).any():
        mid = np.where(searching, (ins + stop) // 2, 0)
        mid_lo = base.node_ids[base.pair_lo_pos[mid]]
        mid_hi = base.node_ids[base.pair_hi_pos[mid]]
        before = (mid_lo < lo) | ((mid_lo == lo) & (mid_hi < hi))
        ins = np.where(searching & before, mid + 1, ins)
        stop = np.where(searching & ~before, mid, stop)
    return ins


def _normalised(w: np.ndarray, lo: np.ndarray, hi: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """``w / sqrt(deg[lo] * deg[hi])`` per type (rows), 0.0 where the product
    is not positive: the walk's arithmetic, pair by pair."""
    product = degrees[:, lo] * degrees[:, hi]
    positive = product > 0
    return np.divide(
        w,
        np.sqrt(product, out=np.zeros_like(product), where=positive),
        out=np.zeros_like(w),
        where=positive,
    )


def _spliced(
    old_indptr: np.ndarray,
    at: np.ndarray | None,
    rebuilt: np.ndarray,
    first_new: np.ndarray,
    counts_new: np.ndarray,
    columns: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, ...]:
    """``(indptr, *columns)`` of a CSR whose ``rebuilt`` rows are
    ``counts_new`` entries from ``first_new`` of the new columns, and whose
    other rows are the old rows landing on them (old row ``i`` on row
    ``at[i]``, or on row ``i`` when ``at`` is ``None``); ``columns`` pairs
    each old column with its new one."""
    first, counts = old_indptr[:-1], old_indptr[1:] - old_indptr[:-1]
    if at is not None:
        first, counts = np.zeros((2, len(rebuilt)), dtype=np.int64)
        first[at], counts[at] = old_indptr[:-1], old_indptr[1:] - old_indptr[:-1]
    first = np.where(rebuilt, old_indptr[-1] + first_new, first)
    counts = np.where(rebuilt, counts_new, counts)
    indptr = np.zeros(len(rebuilt) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # Element k of a row is element first + k of the old columns, then the new.
    gather = np.arange(indptr[-1]) + np.repeat(first - indptr[:-1], counts)
    return indptr, *(np.concatenate([old, new])[gather] for old, new in columns)


def _spliced_block(
    old: ShardBlock,
    own: np.ndarray,
    rebuilt: np.ndarray,
    halves: tuple[np.ndarray, np.ndarray, np.ndarray],
    node_map: np.ndarray | None,
    pair_map: np.ndarray,
) -> ShardBlock:
    """The block of positions ``own``: its ``rebuilt`` rows are ``halves``
    (``(node, nbr, pair)``, sorted by node then pair), and every other row is
    ``old``'s, its positions mapped by ``node_map`` and its pairs by
    ``pair_map``."""
    node_h, nbr_h, pair_h = halves
    nbr_old, at = old.nbr_pos, None
    if node_map is not None:
        nbr_old, at = node_map[nbr_old], np.searchsorted(own, node_map[old.own_positions])
    first = np.searchsorted(node_h, own)
    counts = np.searchsorted(node_h, own, side="right") - first
    indptr, nbr, pair = _spliced(
        old.indptr, at, rebuilt, first, counts,
        [(nbr_old, nbr_h), (pair_map[old.pair_idx], pair_h)],
    )
    return ShardBlock(own_positions=own, indptr=indptr, nbr_pos=nbr, pair_idx=pair)


def _half_edges(blocks: Sequence[ShardBlock]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(node, nbr, pair)`` of every half-edge of ``blocks``, sorted by node
    then pair (a node's half-edges are one row of its owner's block)."""
    node = np.concatenate([np.repeat(b.own_positions, np.diff(b.indptr)) for b in blocks])
    by_node = node.argsort(kind="stable")
    nbr = np.concatenate([b.nbr_pos for b in blocks])
    pair = np.concatenate([b.pair_idx for b in blocks])
    return node[by_node], nbr[by_node], pair[by_node]


def _ranked(
    base: _Selection,
    at: np.ndarray | None,
    rebuilt: np.ndarray,
    halves: tuple[np.ndarray, np.ndarray, np.ndarray],
    weights: np.ndarray,
    fanout: int | None,
) -> _Selection:
    """The selection CSR whose ``rebuilt`` rows are ranked from ``halves``
    (their half-edges ``(node, nbr, pair)``, sorted by node then pair) under
    the ``(types, pairs)`` raw ``weights``, and whose other rows are
    ``base``'s, moved as :func:`_spliced` moves them.

    One rank for every type of every rebuilt row: a ``(row, type)`` segment
    lists the row's neighbours the type's weight is positive for, in pair
    order, and :func:`~repro.nn.sparse.csr_topk_rows` caps it; a row is
    its segments in type order.
    """
    node, nbr, pair = halves
    rows = rebuilt.nonzero()[0]
    n_types = len(weights)
    w = weights[:, pair]
    code, half = (w > 0.0).nonzero()
    by_node = node[half].argsort(kind="stable")  # node, then type, then pair
    code, half = code[by_node], half[by_node]
    segment = np.searchsorted(rows, node[half]) * n_types + code
    indptr = np.zeros(len(rows) * n_types + 1, dtype=np.int64)
    np.cumsum(np.bincount(segment, minlength=len(rows) * n_types), out=indptr[1:])
    if fanout is not None:
        indptr, kept = csr_topk_rows(indptr, w[code, half], fanout)
        half = half[kept]
    bounds = indptr[np.arange(len(rows) + 1) * n_types]
    first, counts = np.zeros((2, len(rebuilt)), dtype=np.int64)
    first[rows], counts[rows] = bounds[:-1], bounds[1:] - bounds[:-1]
    return _spliced(base[0], at, rebuilt, first, counts, [(base[1], nbr[half])])


def build_shard_index(
    shards: Sequence[BehaviorNetwork],
    n_shards: int,
    version: int,
    base: ShardIndex | None = None,
) -> ShardIndex:
    """Patch ``base`` with the shards' change logs into one :class:`ShardIndex`.

    This is the build-time mirror exchange: each shard exports only the
    pairs it stores (single copy, owner of ``lo``); the pair table is in
    global pair-creation order, ``(seq, lo, hi)``; and *half-edges* go to
    the owner of each endpoint, so every shard block serves creation-order
    neighbour lists for all the nodes it owns, including those whose pairs
    live elsewhere.

    A build pays for the **touched nodes** — the endpoints of the pairs in
    the change logs, plus any node registered since — when ``base`` is the
    index the logs were last drained into:

    * only the logged pairs are read from the dicts.  Every other row is
      copied from ``base`` (which is never written) in its order, and the
      re-read rows go in by ``searchsorted`` on ``(seq, lo, hi)``: a pair
      that kept its tag goes back to its row, a removed one is gone, and
      one created (or re-created) since carries a newer tag;
    * ``node_ids`` and the owners are the base's unless a node was
      registered (nodes are never removed, so the registration count
      decides); then the base's positions are remapped in one pass;
    * only touched nodes re-fold their per-type degrees, over their pairs
      in pair order, lo side then hi side — the order of the walk's two
      ``np.add.at`` passes — and only the pairs incident to them are
      re-normalised.  Every other degree is ``base.degrees``';
    * only the touched nodes' half-edge rows are rebuilt; every other row
      is spliced in from ``base`` with its ids remapped;
    * every neighbour selection ``base`` carries (:meth:`ShardIndex.selection`,
      one per fanout) is re-ranked at the touched rows only, in one pass
      over all types, and its other rows are spliced in the same way: a
      selection ranks by raw weight, which changes only on logged pairs.

    Without such a base — a first build, a dropped log, a log drained into
    another index — it is the same patch of an empty base, in which every
    node is new and so touched.  The new index carries its touched uids
    (``touched``) and, while that one is alive, the index it was patched
    from (``base``; ``None`` after a patch of the empty base), so that
    version-keyed state derived from the base can follow it.  Either way
    the logs are drained into the new index.  A selection the base lacked
    is ranked on first read, as the same patch of an empty base.
    """
    if base is not None and all(s._changed is not None and s._log_base is base for s in shards):
        logs: list[Collection[tuple[int, int]]] = [s._changed for s in shards]
        reads = [[pair for pair in s._changed if pair in s._edges] for s in shards]
        parent = weakref.ref(base)
    else:
        logs = reads = [s._edges for s in shards]
        base, parent = _empty_index(n_shards), None
    tables = [_export_pair_table(shard, pairs) for shard, pairs in zip(shards, reads)]

    # Nodes: the base's, unless one was registered since.  Touched: every
    # new node and every endpoint of a logged pair.
    registered = sum(len(shard._adjacency) for shard in shards)
    node_ids, owner_of_pos, node_map = base.node_ids, base.owner_of_pos, None
    if registered != base._registered:
        ids = np.unique(
            np.concatenate(
                [np.fromiter(s._adjacency, np.int64, len(s._adjacency)) for s in shards]
            )
        )
        if len(ids) != base.num_nodes:
            node_ids, owner_of_pos = ids, shard_of(ids, n_shards)
            node_map = np.searchsorted(node_ids, base.node_ids)
    n = len(node_ids)
    base_lo, base_hi = base.pair_lo_pos, base.pair_hi_pos
    touched = np.zeros(n, dtype=bool)
    if node_map is not None:
        base_lo, base_hi = node_map[base_lo], node_map[base_hi]
        touched[:] = True
        touched[node_map] = False
    logged = sum(map(len, logs))
    ends = np.searchsorted(
        node_ids,
        np.fromiter(chain.from_iterable(chain.from_iterable(logs)), np.int64, 2 * logged),
    )
    touched[ends] = True
    touched_pos = touched.nonzero()[0]

    # The base rows of logged pairs leave; a re-read one goes back in below.
    around = (touched[base_lo] | touched[base_hi]).nonzero()[0]
    codes = base_lo[around] * n + base_hi[around]
    logged_out = positions_of(np.sort(ends[0::2] * n + ends[1::2]), codes) >= 0
    dropped, dropped_codes = around[logged_out], codes[logged_out]

    # The re-read rows in (seq, lo, hi) order, and their places.
    lo_uid = np.concatenate([t[0] for t in tables])
    hi_uid = np.concatenate([t[1] for t in tables])
    seq_new = np.concatenate([t[2] for t in tables])
    order = np.lexsort((hi_uid, lo_uid, seq_new))
    lo_uid, hi_uid, seq_new = lo_uid[order], hi_uid[order], seq_new[order]
    lo_new, hi_new = np.searchsorted(node_ids, lo_uid), np.searchsorted(node_ids, hi_uid)
    by_code = np.argsort(dropped_codes)
    was = positions_of(dropped_codes[by_code], lo_new * n + hi_new)
    again = (was >= 0).nonzero()[0]
    ins = _insertion_points(
        base, seq_new, lo_uid, hi_uid, again, dropped[by_code[was[again]]]
    )

    # The merged pair table: a kept base row goes from ``source`` to its new
    # row, and ``pair_map`` takes it back.
    keep = np.ones(base.num_pairs, dtype=bool)
    keep[dropped] = False
    kept = keep.nonzero()[0]
    new_slots = ins - np.searchsorted(dropped, ins) + np.arange(len(ins))
    is_new = np.zeros(len(kept) + len(ins), dtype=bool)
    is_new[new_slots] = True
    old_slots = (~is_new).nonzero()[0]
    source = np.zeros(len(is_new), dtype=np.int64)
    source[old_slots] = kept
    pair_map = np.full(base.num_pairs, -1, dtype=np.int64)
    pair_map[kept] = old_slots
    lo_pos = _merged(base_lo, lo_new, source, new_slots)
    hi_pos = _merged(base_hi, hi_new, source, new_slots)
    seq = _merged(base.pair_seq, seq_new, source, new_slots)

    # Per-type columns: raw weights, timestamps and normalised weights.
    types = tuple(sorted(set(base.types).union(*(t[3].keys() for t in tables))))
    rows = np.array([types.index(btype) for btype in base.types], dtype=np.int64)

    def typed_rows(table: _PairTable) -> np.ndarray:
        """``(3, types, pairs)`` of a re-read table; absent types are 0.0."""
        lo, _, _, w_by, lu_by = table
        absent = np.zeros(len(lo))
        stacked = [[by.get(btype, absent) for btype in types] for by in (w_by, lu_by, {})]
        return np.array(stacked).reshape(3, len(types), len(lo))

    fresh = np.concatenate([typed_rows(table) for table in tables], axis=-1)
    columns = _merged(
        _retyped(base._columns, rows, len(types)), fresh[:, :, order], source, new_slots
    )
    weights, _, norm_weights = columns

    # Degrees and normalised weights, at the touched nodes only.
    degrees = _retyped(base.degrees, rows, len(types))
    if node_map is None:
        degrees = degrees.copy()
    else:
        grown = np.zeros((len(types), n))
        grown[:, node_map] = degrees
        degrees = grown
    incident = (touched[lo_pos] | touched[hi_pos]).nonzero()[0]
    lo_j, hi_j = lo_pos[incident], hi_pos[incident]
    w_j = weights[:, incident]
    cells = np.arange(len(types))[:, None] * n
    folds = np.bincount(  # one sequential sum per cell: the lo side, then the hi side
        np.concatenate([(cells + lo_j).ravel(), (cells + hi_j).ravel()]),
        weights=np.concatenate([w_j.ravel(), w_j.ravel()]),
        minlength=len(types) * n,
    ).reshape(len(types), n)
    degrees[:, touched_pos] = folds[:, touched_pos]
    norm_weights[:, incident] = _normalised(w_j, lo_j, hi_j, degrees)
    alive = degrees.any(axis=1)
    if not alive.all():  # a type no pair carries any more leaves
        types = tuple(btype for btype, live in zip(types, alive) if live)
        columns, degrees = columns[:, alive], degrees[alive]

    # The half-edge CSR: the touched nodes' rows are rebuilt from their
    # pairs, and each block's other rows are spliced in from the base's.
    from_lo, from_hi = touched[lo_j], touched[hi_j]
    node_h = np.concatenate([lo_j[from_lo], hi_j[from_hi]])
    nbr_h = np.concatenate([hi_j[from_lo], lo_j[from_hi]])
    pair_h = np.concatenate([incident[from_lo], incident[from_hi]])
    half = np.lexsort((pair_h, node_h, owner_of_pos[node_h]))
    node_h, nbr_h, pair_h = node_h[half], nbr_h[half], pair_h[half]
    bounds = np.searchsorted(owner_of_pos[node_h], np.arange(n_shards + 1)).tolist()
    blocks: list[ShardBlock] = []
    for s, old in enumerate(base.shards):
        own = old.own_positions if node_map is None else (owner_of_pos == s).nonzero()[0]
        part = slice(bounds[s], bounds[s + 1])
        halves = (node_h[part], nbr_h[part], pair_h[part])
        blocks.append(_spliced_block(old, own, touched[own], halves, node_map, pair_map))

    # Every selection the base carried: re-ranked at the touched rows, and
    # spliced from the base's everywhere else.
    selections: dict[int | None, _Selection] = {}
    if parent is not None and base._selections:
        by_node = node_h.argsort(kind="stable")
        halves = (node_h[by_node], nbr_h[by_node], pair_h[by_node])
        for fanout, (indptr, nbr) in base._selections.items():
            moved = (indptr, nbr if node_map is None else node_map[nbr])
            selections[fanout] = _frozen(
                *_ranked(moved, node_map, touched, halves, columns[0], fanout)
            )

    touched_ids = node_ids[touched_pos]
    _frozen(columns, degrees, touched_ids, node_ids, owner_of_pos, lo_pos, hi_pos, seq)
    for block in blocks:
        _frozen(block.own_positions, block.indptr, block.nbr_pos, block.pair_idx)
    weights, last_update, norm_weights = columns
    index = ShardIndex(
        version=version,
        n_shards=n_shards,
        node_ids=node_ids,
        owner_of_pos=owner_of_pos,
        pair_lo_pos=lo_pos,
        pair_hi_pos=hi_pos,
        pair_seq=seq,
        types=types,
        type_weights=dict(zip(types, weights)),
        norm_weights=norm_weights,
        type_last_update=dict(zip(types, last_update)),
        shards=blocks,
        degrees=degrees,
        touched=touched_ids,
        _registered=registered,
        _base_ref=parent,
        _columns=columns,
        _selections=selections,
    )
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
