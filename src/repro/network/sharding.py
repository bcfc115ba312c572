"""The read index of the Behavior Network, and the hash partition over it.

The deployed Turbo serves hundreds of millions of edges by partitioning the
BN across machines (PAPER.md Fig. 8b).  Here the partition is a read-side
fault domain only: one :class:`~repro.network.bn.BehaviorNetwork` takes
every write, and a serving tier that partitions its reads maps each index
position to an owner shard with the stable integer hash :func:`shard_of`
(``shard_of(index.node_ids, n_shards)``, derived once per node set by
:class:`~repro.system.shard_router.ShardRouter`).  A shard whose gate
fails then selects nothing and loses its rows of the inducer (partial
serving); the index itself does not depend on the shard count.

:class:`ShardIndex` is the network's one memoized flat view, the read-only
snapshot that sampling and the lambda sweep read (BRIGHT-style decoupling
of graph access from scoring, PAPERS.md): ``BehaviorNetwork.index()`` is
:func:`build_shard_index` of the network, and ``to_arrays()`` is
``index().snapshot()``.

Bit-exactness is the contract that makes this testable: the index
reproduces, bit for bit, what the network's dicts expose —

* pair-creation order is reconstructed from per-pair sequence tags
  (``BehaviorNetwork`` stamps ``_pair_seq`` at creation; one ingest batch
  shares a tag and creates its pairs in ``(lo, hi)`` order, so sorting by
  ``(seq, lo, hi)`` is the ``_edges`` insertion order);
* per-type edge arrays, and therefore :class:`BNSnapshot` exports, equal a
  straight walk of ``iter_edges``, and the normalized weights equal the
  whole-graph snapshot mask's of ``tests/oracles/sampling.py``, including
  its ``np.add.at`` degree accumulation order;
* each node's fanout-capped neighbour selection (:meth:`ShardIndex.selection`)
  replays the creation-order neighbour lists and stable top-``fanout``
  ranking of the dict walk in ``tests/oracles/sampling.py``.

``tests/test_network/test_index_patch.py`` pins the index against the
every-pair walk of ``tests/oracles/read_index.py``, and
``tests/test_system/test_sampler_fuzz.py`` pins partitioned reads at shard
counts {1, 2, 4, 8} against the dict walk.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Collection, Sequence

import numpy as np

from ..datagen.behavior_types import BehaviorType
from ..nn.sparse import csr_topk_rows
from .bn import BehaviorNetwork
from .snapshot import BNSnapshot, TypedEdgeArrays, positions_of

__all__ = [
    "shard_of",
    "ShardIndex",
    "build_shard_index",
]

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

    Pure function of ``(uid, n_shards)``: the same user lands on the same
    shard in every process and at every version of the network.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    z = np.asarray(uids, dtype=np.int64).astype(np.uint64)
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z % np.uint64(n_shards)).astype(np.int64)




@dataclass
class ShardIndex:
    """The read-only flat view of a BN.

    The pair table (``pair_lo_pos``/``pair_hi_pos`` plus per-type dense
    weight columns) is in pair-creation order, so per-type masks of it are
    the snapshot's edge arrays (:meth:`snapshot`); the half-edge CSR
    (``indptr``/``nbr``/``pair``) gives each node, by position, its
    creation-order neighbour list, and :meth:`selection` each node's
    fanout-capped top-k of it.  :meth:`to_payload` names every array of the
    view; ``degrees``, ``touched`` and ``base`` are what the next build and
    the readers' version-keyed state patch from.  An index built from a
    network is immutable: its arrays, and those of its :meth:`snapshot` and
    its selections, are read-only, because the next version's index copies
    its unchanged rows from them.
    """

    version: int
    node_ids: np.ndarray  # sorted int64 user ids
    pair_lo_pos: np.ndarray  # int64, len P
    pair_hi_pos: np.ndarray  # int64, len P
    pair_seq: np.ndarray  # int64, len P: creation sequence tags (ascending)
    types: tuple[BehaviorType, ...]
    type_weights: dict[BehaviorType, np.ndarray]  # dense P raw weights
    norm_weights: np.ndarray  # (len(types), P) normalized, row k of types[k]
    type_last_update: dict[BehaviorType, np.ndarray]  # dense P timestamps
    #: Row ``p`` (``indptr[p]:indptr[p + 1]``) lists the half-edges of
    #: position ``p`` in pair-creation order: neighbour positions in ``nbr``
    #: and pair-table indices in ``pair``.
    indptr: np.ndarray  # int64, num_nodes + 1
    nbr: np.ndarray  # int64, 2 P
    pair: np.ndarray  # int64, 2 P
    #: ``(len(types), num_nodes)`` weighted degree per type, the folds the
    #: normalisation divides by; the next patch keeps its untouched columns.
    degrees: np.ndarray | None = field(default=None, repr=False, compare=False)
    #: sorted uids whose rows this build re-derived (every node after a patch
    #: of the empty base): the endpoints of the pairs written since ``base``
    #: and the nodes registered since.
    touched: np.ndarray | None = field(default=None, repr=False, compare=False)
    #: the network's registered-node count at this build (it only grows).
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
            node = np.arange(self.num_nodes).repeat(np.diff(self.indptr))
            ranked = _ranked(
                empty,
                _EMPTY_I64,
                np.ones(self.num_nodes, dtype=bool),
                (node, self.nbr, self.pair),
                weights.reshape(len(self.types), self.num_pairs),
                fanout,
            )
            selection = self._selections[fanout] = _frozen(*ranked)
        return selection

    def induced_entries(
        self, union_positions: np.ndarray, live: np.ndarray | None = None
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
        rows, as in the dense path); ``live``, a mask over them, leaves
        out the rows it is ``False`` for (partial serving: the rows of the
        shards that are down), so a pair whose ``lo`` row is left out goes.
        """
        inside = union_positions >= 0
        inside_pos = union_positions[inside]
        n, lookup = len(self.node_ids), _ROWS[0]
        if len(lookup) < n:
            lookup = _ROWS[0] = np.full(max(n, 2 * len(lookup)), -1, dtype=np.int64)
        try:
            lookup[inside_pos] = inside.nonzero()[0]
            rows = inside_pos if live is None else union_positions[inside & live]
            node, nbr, pair = self.row_gather(rows)
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

    def row_gather(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(node, nbr, pair)`` of every half-edge in the rows of ``positions``:
        one vectorized gather, row after row, each row in pair order."""
        starts = self.indptr[positions]
        lengths = self.indptr[positions + 1] - starts
        ends = lengths.cumsum()
        total = ends[-1] if len(ends) else 0
        gather = np.arange(total) + (starts - ends + lengths).repeat(lengths)
        return positions.repeat(lengths), self.nbr[gather], self.pair[gather]

    def snapshot(self) -> BNSnapshot:
        """The per-type edge-array view (what ``to_arrays()`` returns),
        memoized: sorted node ids, and per type the pairs carrying it in
        pair-creation order."""
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

        The byte-level digest the parity suites compare against a full
        re-walk of the network.
        """
        arrays: dict[str, np.ndarray] = {
            "node_ids": self.node_ids,
            "pair_lo_pos": self.pair_lo_pos,
            "pair_hi_pos": self.pair_hi_pos,
            "pair_seq": self.pair_seq,
        }
        for btype, norm in zip(self.types, self.norm_weights):
            arrays[f"w:{btype.value}"] = self.type_weights[btype]
            arrays[f"wn:{btype.value}"] = norm
            arrays[f"lu:{btype.value}"] = self.type_last_update[btype]
        arrays["indptr"], arrays["nbr"], arrays["pair"] = self.indptr, self.nbr, self.pair
        meta = {"version": self.version, "types": [btype.value for btype in self.types]}
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
    """One pass over ``pairs`` of the network's edge dict, rows in ``pairs`` order.

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


def _empty_index() -> ShardIndex:
    """What a first build patches: no node, no pair."""
    empty = _EMPTY_I64
    return ShardIndex(
        version=-1,
        node_ids=empty,
        pair_lo_pos=empty,
        pair_hi_pos=empty,
        pair_seq=empty,
        types=(),
        type_weights={},
        norm_weights=np.zeros((0, 0)),
        type_last_update={},
        indptr=np.zeros(1, dtype=np.int64),
        nbr=empty,
        pair=empty,
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
    bn: BehaviorNetwork, version: int, base: ShardIndex | None = None
) -> ShardIndex:
    """Patch ``base`` with the network's change log into one :class:`ShardIndex`.

    The pair table is in pair-creation order, ``(seq, lo, hi)``, and every
    pair has a *half-edge* in the row of each endpoint, so the CSR serves
    creation-order neighbour lists for every node.

    A build pays for the **touched nodes** — the endpoints of the pairs in
    the change log, plus any node registered since — when ``base`` is the
    index the log was last drained into:

    * only the logged pairs are read from the dicts.  Every other row is
      copied from ``base`` (which is never written) in its order, and the
      re-read rows go in by ``searchsorted`` on ``(seq, lo, hi)``: a pair
      that kept its tag goes back to its row, a removed one is gone, and
      one created (or re-created) since carries a newer tag;
    * ``node_ids`` are the base's unless a node was registered (nodes are
      never removed, so the registration count decides); then the base's
      positions are remapped in one pass;
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
    the log is drained into the new index.  A selection the base lacked
    is ranked on first read, as the same patch of an empty base.
    """
    if base is not None and bn._changed is not None and bn._log_base is base:
        log: Collection[tuple[int, int]] = bn._changed
        reads: Collection[tuple[int, int]] = [pair for pair in log if pair in bn._edges]
        parent = weakref.ref(base)
    else:
        log = reads = bn._edges
        base, parent = _empty_index(), None
    table = _export_pair_table(bn, reads)

    # Nodes: the base's, unless one was registered since.  Touched: every
    # new node and every endpoint of a logged pair.
    registered = len(bn._adjacency)
    node_ids, node_map = base.node_ids, None
    if registered != base._registered:
        ids = np.unique(np.fromiter(bn._adjacency, np.int64, registered))
        if len(ids) != base.num_nodes:
            node_ids = ids
            node_map = np.searchsorted(node_ids, base.node_ids)
    n = len(node_ids)
    base_lo, base_hi = base.pair_lo_pos, base.pair_hi_pos
    touched = np.zeros(n, dtype=bool)
    if node_map is not None:
        base_lo, base_hi = node_map[base_lo], node_map[base_hi]
        touched[:] = True
        touched[node_map] = False
    ends = np.searchsorted(
        node_ids, np.fromiter(chain.from_iterable(log), np.int64, 2 * len(log))
    )
    touched[ends] = True
    touched_pos = touched.nonzero()[0]

    # The base rows of logged pairs leave; a re-read one goes back in below.
    around = (touched[base_lo] | touched[base_hi]).nonzero()[0]
    codes = base_lo[around] * n + base_hi[around]
    logged_out = positions_of(np.sort(ends[0::2] * n + ends[1::2]), codes) >= 0
    dropped, dropped_codes = around[logged_out], codes[logged_out]

    # The re-read rows in (seq, lo, hi) order, and their places.
    lo_uid, hi_uid, seq_new, w_by, lu_by = table
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

    # Per-type columns: raw weights, timestamps and normalised weights; a
    # re-read pair lacking a type is 0.0 there.
    types = tuple(sorted(set(base.types).union(w_by)))
    rows = np.array([types.index(btype) for btype in base.types], dtype=np.int64)
    absent = np.zeros(len(lo_uid))
    fresh = np.array(
        [[by.get(btype, absent) for btype in types] for by in (w_by, lu_by, {})]
    ).reshape(3, len(types), len(lo_uid))
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
    # pairs, sorted by node then pair, and the other rows are spliced in
    # from the base's.
    from_lo, from_hi = touched[lo_j], touched[hi_j]
    node_h = np.concatenate([lo_j[from_lo], hi_j[from_hi]])
    nbr_h = np.concatenate([hi_j[from_lo], lo_j[from_hi]])
    pair_h = np.concatenate([incident[from_lo], incident[from_hi]])
    half = np.lexsort((pair_h, node_h))
    halves = node_h[half], nbr_h[half], pair_h[half]
    counts = np.bincount(halves[0], minlength=n)
    nbr_old = base.nbr if node_map is None else node_map[base.nbr]
    indptr, nbr, pair = _spliced(
        base.indptr, node_map, touched, counts.cumsum() - counts, counts,
        [(nbr_old, halves[1]), (pair_map[base.pair], halves[2])],
    )

    # Every selection the base carried: re-ranked at the touched rows, and
    # spliced from the base's everywhere else.
    selections: dict[int | None, _Selection] = {}
    if parent is not None:
        for fanout, (sel_indptr, sel_nbr) in base._selections.items():
            moved = (sel_indptr, sel_nbr if node_map is None else node_map[sel_nbr])
            selections[fanout] = _frozen(
                *_ranked(moved, node_map, touched, halves, columns[0], fanout)
            )

    touched_ids = node_ids[touched_pos]
    _frozen(columns, degrees, touched_ids, node_ids, lo_pos, hi_pos, seq, indptr, nbr, pair)
    weights, last_update, norm_weights = columns
    index = ShardIndex(
        version=version,
        node_ids=node_ids,
        pair_lo_pos=lo_pos,
        pair_hi_pos=hi_pos,
        pair_seq=seq,
        types=types,
        type_weights=dict(zip(types, weights)),
        norm_weights=norm_weights,
        type_last_update=dict(zip(types, last_update)),
        indptr=indptr,
        nbr=nbr,
        pair=pair,
        degrees=degrees,
        touched=touched_ids,
        _registered=registered,
        _base_ref=parent,
        _columns=columns,
        _selections=selections,
    )
    bn._changed, bn._log_base = set(), index
    return index
