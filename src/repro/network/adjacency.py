"""Export BN (sub)graphs as per-type sparse adjacency matrices for GNNs.

The whole-graph export that training reads comes from the
network's memoized read index (``bn.index()``): its one inducer
(:meth:`~repro.network.sharding.ShardIndex.induced_entries`, O(sum deg))
gives every type's normalized entries over the nodes, and all edge types
are built in one pass (:func:`~repro.nn.sparse.typed_symmetric_csr`).
The serving sampler induces through the same method.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ..datagen.behavior_types import BehaviorType
from ..nn.sparse import row_mean_csr, typed_symmetric_csr
from .bn import BehaviorNetwork
from .snapshot import positions_of

__all__ = [
    "typed_adjacency",
    "row_normalize",
]


def typed_adjacency(
    bn: BehaviorNetwork,
    nodes: Sequence[int],
    edge_types: Sequence[BehaviorType] | None = None,
) -> dict[BehaviorType, sp.csr_matrix]:
    """Per-type symmetric adjacency over ``nodes`` (order defines indices).

    The per-type symmetric degree normalization of Section III-A is
    applied with the degrees of the *full* BN (the index's ``degrees``),
    so a sampled subgraph sees the same edge weights the whole graph
    would.  A type the network does not carry is an empty matrix, and a
    node it does not hold an isolated row; ``nodes`` must be unique.
    """
    types = tuple(edge_types) if edge_types is not None else tuple(sorted(bn.edge_types()))
    node_arr = np.asarray(list(nodes), dtype=np.int64)
    if len(np.unique(node_arr)) != len(node_arr):
        raise ValueError("nodes must be unique")
    index = bn.index()
    iu, iv, weights, codes = index.induced_entries(positions_of(index.node_ids, node_arr))
    # The index's type k is types[slot[k]]; a type not asked for is -1.
    slot = np.array([types.index(t) if t in types else -1 for t in index.types], dtype=np.int64)
    codes = slot[codes]
    keep = codes >= 0
    entries = (iu[keep], iv[keep], weights[keep], codes[keep])
    return dict(zip(types, typed_symmetric_csr(*entries, len(types), len(node_arr))))


def row_normalize(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Random-walk normalization ``D^-1 A`` (rows sum to 1 where non-empty)."""
    return row_mean_csr([matrix])[0]
