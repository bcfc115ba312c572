"""The every-pair walk that built a network's read index before it was patched.

``build_shard_index`` used to re-read every edge record on every version
bump; it now copies the rows of unchanged pairs from the previous index and
re-reads only the pairs in the change log.  This is the walk it replaced,
unchanged but for the ``pair_seq`` column the index gained, and it touches
no change log: the patched index's payload must equal it byte for byte.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from repro.datagen.behavior_types import BehaviorType
from repro.network.bn import BehaviorNetwork
from repro.network.sharding import ShardBlock, ShardIndex, shard_of

_EMPTY_I64 = np.empty(0, dtype=np.int64)


def export_pair_table_walk(bn: BehaviorNetwork):
    """One pass over a shard's edge dict -> (lo, hi, seq, w-by-type, lu-by-type)."""
    edges = bn._edges
    count = len(edges)
    lo, hi = np.fromiter(chain.from_iterable(edges), np.int64, 2 * count).reshape(count, 2).T
    seq = np.fromiter(map(bn._pair_seq.__getitem__, edges), np.int64, count)
    w_by: dict[BehaviorType, np.ndarray] = {}
    lu_by: dict[BehaviorType, np.ndarray] = {}
    for i, records in enumerate(edges.values()):
        for btype, record in records.items():
            if btype not in w_by:
                w_by[btype] = np.zeros(count)
                lu_by[btype] = np.zeros(count)
            w_by[btype][i] = record.weight
            lu_by[btype][i] = record.last_update
    return lo, hi, seq, w_by, lu_by


def build_shard_index_walk(
    shards: Sequence[BehaviorNetwork], n_shards: int, version: int
) -> ShardIndex:
    """Every shard's every pair, merged by ``(seq, lo, hi)``; the full build."""
    tables = [export_pair_table_walk(shard) for shard in shards]
    lo = np.concatenate([t[0] for t in tables])
    hi = np.concatenate([t[1] for t in tables])
    seq = np.concatenate([t[2] for t in tables])
    order = np.lexsort((hi, lo, seq))
    lo, hi, seq = lo[order], hi[order], seq[order]
    types = tuple(sorted(set().union(*(t[3].keys() for t in tables))))

    def column(by_type: int, btype: BehaviorType) -> np.ndarray:
        parts = [
            t[by_type][btype] if btype in t[by_type] else np.zeros(len(t[0]))
            for t in tables
        ]
        return np.concatenate(parts)[order]

    type_weights = {btype: column(3, btype) for btype in types}
    type_last_update = {btype: column(4, btype) for btype in types}

    node_ids = np.unique(
        np.concatenate([np.fromiter(shard._adjacency, np.int64) for shard in shards])
    )
    lo_pos = np.searchsorted(node_ids, lo)
    hi_pos = np.searchsorted(node_ids, hi)
    owner_of_pos = shard_of(node_ids, n_shards)

    type_norm: dict[BehaviorType, np.ndarray] = {}
    num_pairs = len(lo)
    for btype in types:
        w = type_weights[btype]
        idx = np.flatnonzero(w > 0.0)
        rows, cols, values = lo_pos[idx], hi_pos[idx], w[idx]
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
        dense = np.zeros(num_pairs)
        dense[idx] = normalized
        type_norm[btype] = dense

    pair_range = np.arange(num_pairs, dtype=np.int64)
    node_half = np.concatenate([lo_pos, hi_pos])
    nbr_half = np.concatenate([hi_pos, lo_pos])
    pair_half = np.concatenate([pair_range, pair_range])
    owner_half = owner_of_pos[node_half] if len(node_half) else _EMPTY_I64
    half_order = np.lexsort((pair_half, node_half, owner_half))
    node_half, nbr_half = node_half[half_order], nbr_half[half_order]
    pair_half, owner_half = pair_half[half_order], owner_half[half_order]
    bounds = np.searchsorted(owner_half, np.arange(n_shards + 1))
    blocks: list[ShardBlock] = []
    for s in range(n_shards):
        start, end = int(bounds[s]), int(bounds[s + 1])
        own_positions = np.flatnonzero(owner_of_pos == s).astype(np.int64)
        local = np.searchsorted(own_positions, node_half[start:end])
        indptr = np.zeros(len(own_positions) + 1, dtype=np.int64)
        np.cumsum(np.bincount(local, minlength=len(own_positions)), out=indptr[1:])
        blocks.append(
            ShardBlock(
                own_positions=own_positions,
                indptr=indptr,
                nbr_pos=np.ascontiguousarray(nbr_half[start:end]),
                pair_idx=np.ascontiguousarray(pair_half[start:end]),
            )
        )
    return ShardIndex(
        version=version,
        n_shards=n_shards,
        node_ids=node_ids,
        owner_of_pos=owner_of_pos,
        pair_lo_pos=lo_pos,
        pair_hi_pos=hi_pos,
        pair_seq=seq,
        types=types,
        type_weights=type_weights,
        norm_weights=np.array([type_norm[t] for t in types]).reshape(len(types), num_pairs),
        type_last_update=type_last_update,
        shards=blocks,
    )


def full_walk(network) -> ShardIndex:
    """The walk over either network class, at its current version."""
    shards = getattr(network, "shards", None) or [network]
    return build_shard_index_walk(shards, len(shards), network.version)
