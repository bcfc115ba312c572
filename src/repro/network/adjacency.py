"""Export BN (sub)graphs as per-type sparse adjacency matrices for GNNs.

The exports are the first leg of the BN→GNN hot path, so they run on the
:class:`~repro.network.snapshot.BNSnapshot` arrays (``bn.to_arrays()``, the
per-type view of the network's memoized read index) instead of per-edge
Python iteration, and all edge types are built in one pass
(:func:`~repro.nn.sparse.typed_symmetric_csr`).  This full-edge mask is the
whole-graph export (training, ``typed_adjacency``); the sampler induces
from the index's rows instead
(:meth:`~repro.network.sharding.ShardIndex.induced_entries`, O(sum deg))
and is pinned bit-equal to it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ..datagen.behavior_types import BehaviorType
from ..nn.sparse import row_mean_csr, typed_symmetric_csr
from .bn import BehaviorNetwork

__all__ = [
    "typed_adjacency",
    "row_normalize",
]


def _output_index(bn: BehaviorNetwork, nodes: Sequence[int]) -> np.ndarray:
    """Snapshot-position → output-row lookup array (-1 for excluded nodes)."""
    snapshot = bn.to_arrays()
    node_arr = np.asarray(list(nodes), dtype=np.int64)
    if len(np.unique(node_arr)) != len(node_arr):
        raise ValueError("nodes must be unique")
    positions = snapshot.positions_of(node_arr)
    lookup = np.full(snapshot.num_nodes, -1, dtype=np.int64)
    inside = positions >= 0
    lookup[positions[inside]] = np.flatnonzero(inside)
    return lookup


def _typed_entries(
    bn: BehaviorNetwork,
    lookup: np.ndarray,
    btype: BehaviorType,
    normalize: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kept ``(iu, iv, w)`` entries of one type, with ``u < v`` per edge."""
    snapshot = bn.to_arrays()
    arrays = snapshot.edges.get(btype)
    if arrays is None or not arrays.num_edges:
        return (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    iu = lookup[arrays.rows]
    iv = lookup[arrays.cols]
    weights = arrays.weights
    if normalize:
        # Degrees come from the whole BN even when exporting a subset, so a
        # sampled subgraph sees the same edge weights the full graph would.
        degrees = snapshot.weighted_degrees(btype)
        product = degrees[arrays.rows] * degrees[arrays.cols]
        weights = np.divide(
            weights,
            np.sqrt(product, out=np.zeros_like(product), where=product > 0),
            out=np.zeros_like(weights),
            where=product > 0,
        )
    keep = (iu >= 0) & (iv >= 0) & (weights > 0.0)
    return iu[keep], iv[keep], weights[keep]


def _stack_entries(
    entries: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate per-type ``(iu, iv, w)`` into ``(iu, iv, w, type_code)``."""
    empty = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    iu, iv, weights = map(np.concatenate, zip(empty, *entries))
    codes = np.repeat(np.arange(len(entries)), [len(e[0]) for e in entries])
    return iu, iv, weights, codes


def typed_adjacency(
    bn: BehaviorNetwork,
    nodes: Sequence[int],
    edge_types: Sequence[BehaviorType] | None = None,
    normalize: bool = True,
) -> dict[BehaviorType, sp.csr_matrix]:
    """Per-type symmetric adjacency over ``nodes`` (order defines indices).

    With ``normalize=True`` the per-type symmetric degree normalization of
    Section III-A is applied (computed on the *full* BN, so a sampled
    subgraph sees the same edge weights the whole graph would).
    """
    types = tuple(edge_types) if edge_types is not None else tuple(sorted(bn.edge_types()))
    stacked = _induced_entries(bn, nodes, types, normalize)
    return dict(zip(types, typed_symmetric_csr(*stacked, len(types), len(nodes))))


def _induced_entries(
    bn: BehaviorNetwork,
    nodes: Sequence[int],
    types: Sequence[BehaviorType],
    normalize: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(iu, iv, w, type_code)`` over ``nodes`` of every type in ``types``,
    type after type: what :func:`typed_adjacency` builds its matrices from."""
    lookup = _output_index(bn, nodes)
    return _stack_entries([_typed_entries(bn, lookup, btype, normalize) for btype in types])


def row_normalize(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Random-walk normalization ``D^-1 A`` (rows sum to 1 where non-empty)."""
    return row_mean_csr([matrix])[0]
