"""The dict-walk sampler the array BFS over the read index replaced.

:func:`computation_subgraph` walks the network's neighbour dicts node by
node and type by type, ranking each ``(node, type)`` with its own
``argsort`` (:func:`_select_neighbors`), and induces the subgraph's
adjacency with the whole-graph snapshot mask (:func:`_induced_entries`,
normalized by its own degree fold, :func:`_weighted_degrees`).  It
shares no code with :func:`repro.network.sampling.computation_subgraphs_batch`,
which reads the index's one selection CSR (``ShardIndex.selection``) and
its one inducer (``ShardIndex.induced_entries``), so every sampling tier
and :func:`repro.network.adjacency.typed_adjacency` are pinned to it:
same node order, same CSR bits.  Its ``rng`` mode (weighted draws
instead of top-k) is kept as it was.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.datagen.behavior_types import BehaviorType
from repro.network.bn import BehaviorNetwork
from repro.network.snapshot import BNSnapshot
from repro.network.sampling import ComputationSubgraph
from repro.network.sharding import _check_fanout


def computation_subgraph(
    bn: BehaviorNetwork,
    target: int,
    hops: int = 2,
    fanout: int | None = 25,
    allowed: set[int] | None = None,
    edge_types: Sequence[BehaviorType] | None = None,
    rng: np.random.Generator | None = None,
) -> ComputationSubgraph:
    """Sample the computation subgraph ``G_v`` for ``target``.

    Parameters
    ----------
    bn:
        The behavior network to sample from.
    target:
        The user the detection request targets; included even if isolated.
    hops:
        Neighbourhood radius ``k`` (the paper uses 2-layer GNNs).
    fanout:
        Per-node, per-type neighbour cap.  ``None`` keeps every neighbour;
        otherwise the top-``fanout`` by edge weight are kept (or sampled
        proportionally to weight when ``rng`` is supplied), which bounds the
        subgraph size in the presence of public-resource cliques.
    allowed:
        If given, restrict expansion to these nodes (the paper's ``G_v`` only
        contains users having transactions).
    edge_types:
        Edge types to traverse and export (defaults to all types in BN).
    rng:
        Optional generator enabling weighted sampling instead of top-k.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    _check_fanout(fanout)
    types = tuple(edge_types) if edge_types is not None else tuple(sorted(bn.edge_types()))

    selected: list[int] = [target]
    seen: set[int] = {target}
    frontier = [target]
    for _ in range(hops):
        next_frontier: list[int] = []
        for node in frontier:
            for btype in types:
                neighbors = _select_neighbors(bn, node, btype, fanout, rng)
                for neighbor in neighbors:
                    if neighbor in seen:
                        continue
                    if allowed is not None and neighbor not in allowed:
                        continue
                    seen.add(neighbor)
                    selected.append(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier

    entries = _induced_entries(bn, selected, types)
    return ComputationSubgraph(target=target, nodes=selected, types=types, entries=entries)


def _select_neighbors(
    bn: BehaviorNetwork,
    node: int,
    btype: BehaviorType,
    fanout: int | None,
    rng: np.random.Generator | None,
) -> list[int]:
    neighbors = bn.neighbors(node, btype)
    if fanout is None or len(neighbors) <= fanout:
        return neighbors
    weights = np.asarray([bn.weight(node, v, btype) for v in neighbors])
    if rng is None:
        order = np.argsort(-weights, kind="stable")[:fanout]
        return [neighbors[i] for i in order]
    support = np.flatnonzero(weights > 0)
    if len(support) < fanout:
        # Too few neighbours carry probability mass for a ``replace=False``
        # draw: keep the whole support and top up deterministically with the
        # first zero-weight neighbours in index order.
        zero = np.flatnonzero(weights <= 0)[: fanout - len(support)]
        chosen = np.concatenate([support, zero])
    else:
        probabilities = weights / weights.sum()
        chosen = rng.choice(len(neighbors), size=fanout, replace=False, p=probabilities)
    return [neighbors[i] for i in chosen]


def _weighted_degrees(snapshot: BNSnapshot, btype: BehaviorType) -> np.ndarray:
    """Weighted degree per snapshot position (Section III-A's ``deg'_r``)."""
    degrees = np.zeros(snapshot.num_nodes, dtype=np.float64)
    arrays = snapshot.edges.get(btype)
    if arrays is not None and arrays.num_edges:
        np.add.at(degrees, arrays.rows, arrays.weights)
        np.add.at(degrees, arrays.cols, arrays.weights)
    return degrees


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
        degrees = _weighted_degrees(snapshot, btype)
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


def _induced_entries(
    bn: BehaviorNetwork,
    nodes: Sequence[int],
    types: Sequence[BehaviorType],
    normalize: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(iu, iv, w, type_code)`` over ``nodes`` of every type in ``types``,
    type after type: the whole-graph mask ``typed_adjacency`` induced
    through before it read the index's inducer."""
    lookup = _output_index(bn, nodes)
    return _stack_entries([_typed_entries(bn, lookup, btype, normalize) for btype in types])
