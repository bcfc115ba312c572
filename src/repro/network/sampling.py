"""Computation-subgraph sampling for inductive inference (Section III-A).

Turbo supports real-time detection by feeding HAG a *computation subgraph*
``G_v`` — the k-hop neighbourhood that contains everything the GNN needs to
compute the target's representation — instead of the entire BN (the
GraphSAGE-style inductive setting).  The BN server samples ``G_v`` when a
detection request arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ..datagen.behavior_types import BehaviorType
from ..nn.sparse import sum_csr, typed_symmetric_csr
from .adjacency import _output_index, _stack_entries, _typed_entries, typed_adjacency
from .bn import BehaviorNetwork

__all__ = [
    "ComputationSubgraph",
    "computation_subgraph",
    "computation_subgraphs_batch",
    "slice_union_subgraphs",
    "BatchSampleStats",
]


@dataclass(slots=True)
class ComputationSubgraph:
    """A sampled k-hop neighbourhood around ``target``.

    ``nodes[0]`` is always the target; ``adjacency`` holds per-type
    normalized CSR matrices indexed consistently with ``nodes``.
    """

    target: int
    nodes: list[int]
    adjacency: dict[BehaviorType, sp.csr_matrix] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def merged(self) -> sp.csr_matrix:
        """Sum the typed adjacencies into one homogeneous matrix.

        One construction over every type's entries, duplicates summed in
        type order (:func:`~repro.nn.sparse.sum_csr`) — so the sum of a
        subgraph is the same alone and inside a block-diagonal pack.
        """
        return sum_csr(list(self.adjacency.values()), len(self.nodes))


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

    adjacency = typed_adjacency(bn, selected, types, normalize=True)
    return ComputationSubgraph(target=target, nodes=selected, adjacency=adjacency)


@dataclass(frozen=True, slots=True)
class BatchSampleStats:
    """Coalescing accounting for one :func:`computation_subgraphs_batch` call."""

    requests: int
    sampled_nodes: int  # sum of per-request subgraph sizes
    unique_nodes: int  # size of the union node set
    expansions: int  # (node, type) frontier expansions requested
    unique_expansions: int  # distinct (node, type) pairs actually expanded
    #: Request indices served from an incomplete frontier because one or
    #: more shards were down (always empty on the single-network path).
    partial: tuple[int, ...] = ()

    @property
    def coalescing(self) -> float:
        """Sampled-to-unique node ratio — >1 means frontiers overlapped."""
        return self.sampled_nodes / max(1, self.unique_nodes)


def computation_subgraphs_batch(
    bn: BehaviorNetwork,
    targets: Sequence[int],
    hops: int = 2,
    fanout: int | None = 25,
    allowed: set[int] | None = None,
    edge_types: Sequence[BehaviorType] | None = None,
    selection_cache: dict[tuple[int, BehaviorType], list[int]] | None = None,
) -> tuple[list[ComputationSubgraph], BatchSampleStats]:
    """Sample every target's ``G_v`` with the union frontier coalesced.

    Returns subgraphs that are bit-for-bit what per-target
    :func:`computation_subgraph` calls produce — same node order, same CSR
    bits — but shares work across requests two ways:

    * neighbour selection is memoized per ``(node, type)``: deterministic
      top-``fanout`` selection depends only on the node, so a hub expanded
      by many requests is ranked once and each request replays the cached
      list through its own BFS bookkeeping;
    * adjacency extraction masks the snapshot's edge arrays once per type
      against the *union* node set (the O(E) part), then slices each
      request's entries out of the union block with O(E_union) index maps
      and builds its ``|R|`` matrices as one type-stacked CSR.

    Weighted sampling (the scalar path's ``rng``) is intentionally not
    offered: random draws are per-request by construction and would defeat
    the memoization; the serving path uses deterministic top-k.

    ``selection_cache`` lets a caller serving many batches against one
    pinned BN version carry the per-``(node, type)`` rankings across calls
    (the BN server does this keyed on ``bn.version``); entries are only
    valid for the graph state and ``fanout`` they were ranked under, so the
    owner must drop the dict when either changes.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    types = tuple(edge_types) if edge_types is not None else tuple(sorted(bn.edge_types()))

    if selection_cache is None:
        selection_cache = {}
    expansions = 0
    touched: set[tuple[int, BehaviorType]] = set()
    node_lists: list[list[int]] = []
    for target in targets:
        selected: list[int] = [target]
        seen: set[int] = {target}
        frontier = [target]
        for _ in range(hops):
            next_frontier: list[int] = []
            for node in frontier:
                for btype in types:
                    expansions += 1
                    key = (node, btype)
                    touched.add(key)
                    neighbors = selection_cache.get(key)
                    if neighbors is None:
                        neighbors = _select_neighbors(bn, node, btype, fanout, None)
                        selection_cache[key] = neighbors
                    for neighbor in neighbors:
                        if neighbor in seen:
                            continue
                        if allowed is not None and neighbor not in allowed:
                            continue
                        seen.add(neighbor)
                        selected.append(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        node_lists.append(selected)

    union_nodes: list[int] = []
    union_index: dict[int, int] = {}
    for nodes in node_lists:
        for uid in nodes:
            if uid not in union_index:
                union_index[uid] = len(union_nodes)
                union_nodes.append(uid)
    union_lookup = _output_index(bn, union_nodes)
    # Entries are indexed into the union node list; each request's CSRs are
    # cut from them by a membership mask (slice_union_subgraphs).
    typed_entries = {
        btype: _typed_entries(bn, union_lookup, btype, normalize=True)
        for btype in types
    }

    subgraphs = slice_union_subgraphs(
        targets, node_lists, union_index, typed_entries
    )

    stats = BatchSampleStats(
        requests=len(node_lists),
        sampled_nodes=sum(len(nodes) for nodes in node_lists),
        unique_nodes=len(union_nodes),
        expansions=expansions,
        unique_expansions=len(touched),
    )
    return subgraphs, stats


def slice_union_subgraphs(
    targets: Sequence[int],
    node_lists: Sequence[list[int]],
    union_index: dict[int, int],
    typed_entries: dict[
        BehaviorType, tuple[np.ndarray, np.ndarray, np.ndarray]
    ],
) -> list[ComputationSubgraph]:
    """Cut every request's typed adjacency out of one union block.

    ``typed_entries[btype]`` holds ``(iu, iv, w)`` indexed into the union
    node list (``union_index`` maps uid to union row).  The types are
    stacked once per call; each request masks the stack to its own nodes
    (O(E_union)) and builds all its matrices in one
    :func:`~repro.nn.sparse.typed_symmetric_csr` pass, bit-identical to the
    scalar ``typed_adjacency`` over the same nodes.  Shared by the
    single-network and the shard-index batch samplers.
    """
    types = list(typed_entries)
    iu, iv, weights, codes = _stack_entries(list(typed_entries.values()))
    subgraphs: list[ComputationSubgraph] = []
    request_of_union = np.full(len(union_index), -1, dtype=np.int64)
    for target, nodes in zip(targets, node_lists):
        n = len(nodes)
        positions = np.asarray([union_index[uid] for uid in nodes], dtype=np.int64)
        request_of_union[positions] = np.arange(n, dtype=np.int64)
        riu = request_of_union[iu]
        riv = request_of_union[iv]
        keep = (riu >= 0) & (riv >= 0)
        matrices = typed_symmetric_csr(
            riu[keep], riv[keep], weights[keep], codes[keep], len(types), n
        )
        request_of_union[positions] = -1
        subgraphs.append(
            ComputationSubgraph(
                target=target, nodes=nodes, adjacency=dict(zip(types, matrices))
            )
        )
    return subgraphs


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
