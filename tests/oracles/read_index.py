"""The every-pair walk that built a network's read index before it was patched.

``build_shard_index`` used to re-read every edge record on every version
bump; it now copies the rows of unchanged pairs from the previous index and
re-reads only the pairs in the change log.  This is the walk it replaced,
unchanged but for the ``pair_seq`` column the index gained, and it touches
no change log: the patched index's payload must equal it byte for byte.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.datagen.behavior_types import BehaviorType
from repro.network.bn import BehaviorNetwork
from repro.network.sharding import ShardIndex


def export_pair_table_walk(bn: BehaviorNetwork):
    """One pass over the edge dict -> (lo, hi, seq, w-by-type, lu-by-type)."""
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


def full_walk(bn: BehaviorNetwork) -> ShardIndex:
    """Every pair of the network, ordered by ``(seq, lo, hi)``; the full
    build, at the network's current version."""
    lo, hi, seq, w_by, lu_by = export_pair_table_walk(bn)
    order = np.lexsort((hi, lo, seq))
    lo, hi, seq = lo[order], hi[order], seq[order]
    types = tuple(sorted(w_by))
    type_weights = {btype: w_by[btype][order] for btype in types}
    type_last_update = {btype: lu_by[btype][order] for btype in types}

    node_ids = np.unique(np.fromiter(bn._adjacency, np.int64))
    lo_pos = np.searchsorted(node_ids, lo)
    hi_pos = np.searchsorted(node_ids, hi)

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
    half_order = np.lexsort((pair_half, node_half))
    indptr = np.zeros(len(node_ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(node_half, minlength=len(node_ids)), out=indptr[1:])
    return ShardIndex(
        version=bn.version,
        node_ids=node_ids,
        pair_lo_pos=lo_pos,
        pair_hi_pos=hi_pos,
        pair_seq=seq,
        types=types,
        type_weights=type_weights,
        norm_weights=np.array([type_norm[t] for t in types]).reshape(len(types), num_pairs),
        type_last_update=type_last_update,
        indptr=indptr,
        nbr=nbr_half[half_order],
        pair=pair_half[half_order],
    )
