"""Export BN (sub)graphs as per-type sparse adjacency matrices for GNNs.

The exports are the first leg of the BN→GNN hot path, so they run on the
:class:`~repro.network.snapshot.BNSnapshot` arrays (``bn.to_arrays()``, the
per-type view of the network's memoized read index) instead of per-edge
Python iteration, and all edge types are built in one pass
(:func:`~repro.nn.sparse.typed_symmetric_csr`).  This full-edge mask is the
whole-graph export (training, ``typed_adjacency``) and the scalar
sampler's induction; the serving tiers induce from the index's rows
instead (:meth:`~repro.network.sharding.ShardIndex.induced_entries`,
O(sum deg)) and are pinned bit-equal to it.  The original per-edge
typed export is retained as ``typed_adjacency_reference`` for the
equivalence tests and the perf harness.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ..datagen.behavior_types import BehaviorType
from ..nn.sparse import row_mean_csr, symmetric_csr, typed_symmetric_csr
from .bn import BehaviorNetwork
from .normalize import normalized_weight, type_weighted_degrees

__all__ = [
    "typed_adjacency",
    "merged_adjacency",
    "typed_adjacency_reference",
    "row_normalize",
    "gcn_normalize",
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
    lookup = _output_index(bn, nodes)
    types = tuple(edge_types) if edge_types is not None else tuple(sorted(bn.edge_types()))
    stacked = _stack_entries(
        [_typed_entries(bn, lookup, btype, normalize) for btype in types]
    )
    return dict(zip(types, typed_symmetric_csr(*stacked, len(types), len(nodes))))


def merged_adjacency(
    bn: BehaviorNetwork,
    nodes: Sequence[int],
    edge_types: Sequence[BehaviorType] | None = None,
    normalize: bool = True,
) -> sp.csr_matrix:
    """Collapse all edge types into one adjacency (for homogeneous GNNs).

    This is also the graph HAG sees under the CFO(-) ablation of Table V.
    Built as a single COO construction over every type's entries — the
    duplicate ``(i, j)`` coordinates sum on conversion — rather than
    accumulating ``total + matrix`` per type.
    """
    lookup = _output_index(bn, nodes)
    types = tuple(edge_types) if edge_types is not None else tuple(sorted(bn.edge_types()))
    iu, iv, weights, _ = _stack_entries(
        [_typed_entries(bn, lookup, btype, normalize) for btype in types]
    )
    return symmetric_csr(iu, iv, weights, len(nodes))


# ----------------------------------------------------------------------
# Reference implementations (pre-vectorization semantics)
# ----------------------------------------------------------------------
def typed_adjacency_reference(
    bn: BehaviorNetwork,
    nodes: Sequence[int],
    edge_types: Sequence[BehaviorType] | None = None,
    normalize: bool = True,
) -> dict[BehaviorType, sp.csr_matrix]:
    """Per-edge Python-loop export; kept to pin :func:`typed_adjacency`."""
    index = {uid: i for i, uid in enumerate(nodes)}
    if len(index) != len(nodes):
        raise ValueError("nodes must be unique")
    types = tuple(edge_types) if edge_types is not None else tuple(sorted(bn.edge_types()))
    n = len(nodes)
    result: dict[BehaviorType, sp.csr_matrix] = {}
    for btype in types:
        degrees = type_weighted_degrees(bn, btype) if normalize else None
        rows: list[int] = []
        cols: list[int] = []
        weights: list[float] = []
        for u, v, _t, record in bn.iter_edges(btype):
            iu, iv = index.get(u), index.get(v)
            if iu is None or iv is None:
                continue
            w = record.weight
            if degrees is not None:
                w = normalized_weight(w, degrees[u], degrees[v])
            if w <= 0.0:
                continue
            rows.extend((iu, iv))
            cols.extend((iv, iu))
            weights.extend((w, w))
        result[btype] = sp.csr_matrix(
            (np.asarray(weights), (rows, cols)), shape=(n, n)
        )
    return result


def row_normalize(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Random-walk normalization ``D^-1 A`` (rows sum to 1 where non-empty)."""
    return row_mean_csr([matrix])[0]


def gcn_normalize(matrix: sp.spmatrix, add_self_loops: bool = True) -> sp.csr_matrix:
    """Symmetric GCN normalization ``D^-1/2 (A + I) D^-1/2`` (Eq. 1)."""
    matrix = matrix.tocsr()
    if add_self_loops:
        matrix = matrix + sp.eye(matrix.shape[0], format="csr")
    degree = np.asarray(matrix.sum(axis=1)).ravel()
    inv_sqrt = np.divide(
        1.0, np.sqrt(degree), out=np.zeros_like(degree), where=degree > 0
    )
    d = sp.diags(inv_sqrt)
    return (d @ matrix @ d).tocsr()
