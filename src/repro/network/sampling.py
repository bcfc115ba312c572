"""Computation-subgraph sampling for inductive inference (Section III-A).

Turbo supports real-time detection by feeding HAG a *computation subgraph*
``G_v`` — the k-hop neighbourhood that contains everything the GNN needs to
compute the target's representation — instead of the entire BN (the
GraphSAGE-style inductive setting).  The BN server samples ``G_v`` when a
detection request arrives.

Two samplers, one contract.  :func:`computation_subgraphs_batch` is what
every serving tier runs: it reads the network's one flat read index
(``bn.index()``), so an unsharded deployment is simply the one-block case
of a sharded one.  Scalar :func:`computation_subgraph` stays on the dict
walk and the snapshot mask: it is the rng-capable research sampler and the
independent oracle the batch sampler is pinned bit-equal to.

A :class:`ComputationSubgraph` carries its ``|R|`` adjacencies as the typed
entries the sampler induced (HAG's inference packs them as they are); the
type-stacked CSR and the per-type scipy matrices are built off them only
when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from ..datagen.behavior_types import BehaviorType
from ..nn.sparse import StackedCSR, stacked_symmetric_csr, sum_csr
from .adjacency import _induced_entries
from .bn import BehaviorNetwork
from .sharding import ShardIndex, _shard_of_int
from .snapshot import positions_of

__all__ = [
    "ComputationSubgraph",
    "computation_subgraph",
    "computation_subgraphs_batch",
    "BatchSampleStats",
]


_Entries = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class ComputationSubgraph:
    """A sampled k-hop neighbourhood around ``target``.

    ``nodes[0]`` is always the target.  The per-type normalized adjacencies,
    indexed consistently with ``nodes``, live in one of two forms: the
    samplers hand over the entries they induced (``types`` + ``entries``:
    ``(iu, iv, w, type_code)``, each undirected edge once, ``type_code``
    indexing ``types``); a subgraph built from an ``adjacency`` dict keeps
    the dict.  :meth:`stored_entries` reads either form as it is — the
    forward packs requests from it — while :meth:`typed_stack`,
    ``adjacency`` (the same matrices as a dict of canonical scipy CSRs, bit
    for bit) and :meth:`merged` are built on first read.
    """

    __slots__ = ("target", "nodes", "_types", "_entries", "_adjacency")

    def __init__(
        self,
        target: int,
        nodes: list[int],
        adjacency: dict[BehaviorType, sp.csr_matrix] | None = None,
        *,
        types: Sequence[BehaviorType] = (),
        entries: _Entries | None = None,
    ) -> None:
        self.target = target
        self.nodes = nodes
        self._types = tuple(types)
        self._entries = entries
        self._adjacency = {} if adjacency is None and entries is None else adjacency

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def adjacency(self) -> dict[BehaviorType, sp.csr_matrix]:
        """Per-type adjacency matrices (split off :meth:`typed_stack` on first access)."""
        if self._adjacency is None:
            types, stack = self.typed_stack()
            self._adjacency = dict(zip(types, stack.split()))
        return self._adjacency

    def typed_stack(self) -> tuple[tuple[BehaviorType, ...], StackedCSR]:
        """``(types, stack)``: block ``k`` of the stack is ``types[k]``'s adjacency."""
        if self._entries is not None:
            n_types, n = len(self._types), self.num_nodes
            return self._types, stacked_symmetric_csr(*self._entries, n_types, n)
        return tuple(self._adjacency), StackedCSR.from_matrices(
            list(self._adjacency.values())
        )

    def stored_entries(
        self,
    ) -> tuple[tuple[BehaviorType, ...], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(types, rows, cols, data, type_code)``: every stored adjacency entry.

        The sampler's entries in both directions, or a dict's matrices'
        stored entries; a matrix that is not ``(n, n)`` is a ``ValueError``.
        """
        if self._entries is not None:
            iu, iv, w, code = self._entries
            return (
                self._types,
                np.concatenate([iu, iv]),
                np.concatenate([iv, iu]),
                np.concatenate([w, w]),
                np.concatenate([code, code]),
            )
        n = self.num_nodes
        types, stack = self.typed_stack()
        if any(shape != (n, n) for shape in stack.shapes):
            raise ValueError(f"adjacency blocks {stack.shapes} are not all ({n}, {n})")
        stacked_row = np.repeat(np.arange(len(stack.indptr) - 1), np.diff(stack.indptr))
        code, rows = np.divmod(stacked_row, max(n, 1))
        return types, rows, stack.indices, stack.data, code

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


@dataclass(frozen=True, slots=True)
class BatchSampleStats:
    """Coalescing accounting for one :func:`computation_subgraphs_batch` call."""

    requests: int
    sampled_nodes: int  # sum of per-request subgraph sizes
    unique_nodes: int  # size of the union node set
    expansions: int  # (node, type) frontier expansions requested
    unique_expansions: int  # distinct (node, type) pairs actually expanded
    #: Request indices served from an incomplete frontier because one or
    #: more shards were down (always empty on a plain network's one block).
    partial: tuple[int, ...] = ()

    @property
    def coalescing(self) -> float:
        """Sampled-to-unique node ratio — >1 means frontiers overlapped."""
        return self.sampled_nodes / max(1, self.unique_nodes)


def computation_subgraphs_batch(
    index: ShardIndex,
    targets: Sequence[int],
    hops: int = 2,
    fanout: int | None = 25,
    allowed: set[int] | None = None,
    selection_cache: dict[tuple[int, BehaviorType], list[int]] | None = None,
    resolve: Callable[[int, list[tuple[int, BehaviorType]]], list[list[int]] | None]
    | None = None,
    on_exchange: Callable[[int, dict[int, list], int], None] | None = None,
) -> tuple[list[ComputationSubgraph], BatchSampleStats]:
    """Sample every target's ``G_v`` off a read index, frontiers in lockstep.

    The one union-frontier sampler under every serving tier: ``index`` is
    ``bn.index()`` of a plain network (one block) or of a sharded facade
    (N blocks).  Returns
    subgraphs that are bit-for-bit what per-target
    :func:`computation_subgraph` calls produce — same node order, same CSR
    bits — but shares work across requests two ways:

    * neighbour selection is memoized per ``(node, type)``: deterministic
      top-``fanout`` selection depends only on the node, so each hop ranks
      the batch's outstanding keys once, grouped by owner block (the
      *frontier exchange*), and every request replays the cached lists
      through its own BFS bookkeeping;
    * adjacency extraction gathers the *union* node set's index rows once
      (:meth:`ShardIndex.induced_entries`, O(sum deg) over precomputed
      normalized weights), then slices each request's entries out of the
      union block; its matrices are built only if read.

    Weighted sampling (the scalar path's ``rng``) is intentionally not
    offered: random draws are per-request by construction and would defeat
    the memoization; the serving path uses deterministic top-k.

    ``selection_cache`` lets a caller serving many batches carry the
    rankings across calls (the BN server does).  An entry is valid for the
    ``fanout`` it was ranked under and for as long as no pair incident to
    its node changes: the owner drops the dict when the fanout or the
    network changes, and the keys of an index's ``touched`` nodes when it
    moves to an index patched from the one the dict was ranked under.

    ``resolve(block_id, keys)`` overrides in-process selection (the shard
    router's fault gates); returning ``None`` marks the block's shard dead
    for this batch — its keys select nothing, its adjacency rows are
    dropped, affected requests are listed in ``stats.partial``, and dead
    selections are **not** written to ``selection_cache`` (a recovered
    shard must not serve stale emptiness).
    ``on_exchange(hop, groups_by_block, lost_keys)`` observes each
    exchange for metrics/spans.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    _check_fanout(fanout)
    types = index.types
    if selection_cache is None:
        selection_cache = {}
    targets = [int(t) for t in targets]
    n_requests = len(targets)
    selected_lists: list[list[int]] = [[t] for t in targets]
    seen_sets: list[set[int]] = [{t} for t in targets]
    frontiers: list[list[int]] = [[t] for t in targets]
    dead_keys: set[tuple[int, BehaviorType]] = set()
    dead_shards: set[int] = set()
    partial = [False] * n_requests
    expansions = 0
    touched: set[tuple[int, BehaviorType]] = set()

    for hop in range(hops):
        pending: list[tuple[int, BehaviorType]] = []
        pending_set: set[tuple[int, BehaviorType]] = set()
        for frontier in frontiers:
            for node in frontier:
                for btype in types:
                    key = (node, btype)
                    if (
                        key in selection_cache
                        or key in pending_set
                        or key in dead_keys
                    ):
                        continue
                    pending_set.add(key)
                    pending.append(key)
        groups: dict[int, list[tuple[int, BehaviorType]]] = {}
        for key in pending:
            groups.setdefault(_shard_of_int(key[0], index.n_shards), []).append(key)
        lost = 0
        for shard_id in sorted(groups):
            keys = groups[shard_id]
            selections: list[list[int]] | None
            if resolve is not None:
                selections = resolve(shard_id, keys)
            else:
                selections = index.select_neighbors(keys, fanout)
            if selections is None:
                dead_keys.update(keys)
                dead_shards.add(shard_id)
                lost += len(keys)
                continue
            for key, neighbors in zip(keys, selections):
                selection_cache[key] = neighbors
        if on_exchange is not None and pending:
            on_exchange(hop, groups, lost)

        for i in range(n_requests):
            frontier = frontiers[i]
            if not frontier:
                continue
            selected = selected_lists[i]
            seen = seen_sets[i]
            next_frontier: list[int] = []
            for node in frontier:
                for btype in types:
                    expansions += 1
                    key = (node, btype)
                    touched.add(key)
                    if key in dead_keys:
                        partial[i] = True
                        continue
                    for neighbor in selection_cache[key]:
                        if neighbor in seen:
                            continue
                        if allowed is not None and neighbor not in allowed:
                            continue
                        seen.add(neighbor)
                        selected.append(neighbor)
                        next_frontier.append(neighbor)
            frontiers[i] = next_frontier

    union_nodes: list[int] = []
    union_index: dict[int, int] = {}
    for nodes in selected_lists:
        for uid in nodes:
            if uid not in union_index:
                union_index[uid] = len(union_nodes)
                union_nodes.append(uid)
    positions = positions_of(index.node_ids, union_nodes)
    live_shards = (
        None
        if not dead_shards
        else [s for s in range(index.n_shards) if s not in dead_shards]
    )
    entries = index.induced_entries(positions, live_shards)
    if dead_shards:
        # Adjacency rows owned by dead shards were dropped too — flag every
        # request whose subgraph contains such a node.
        owner = np.full(len(union_nodes), -1, dtype=np.int64)
        inside = positions >= 0
        owner[inside] = index.owner_of_pos[positions[inside]]
        dead_row = np.isin(owner, list(dead_shards))
        for i, nodes in enumerate(selected_lists):
            if partial[i]:
                continue
            if any(dead_row[union_index[uid]] for uid in nodes):
                partial[i] = True

    subgraphs = slice_union_subgraphs(targets, selected_lists, union_index, types, entries)

    stats = BatchSampleStats(
        requests=n_requests,
        sampled_nodes=sum(len(nodes) for nodes in selected_lists),
        unique_nodes=len(union_nodes),
        expansions=expansions,
        unique_expansions=len(touched),
        partial=tuple(i for i in range(n_requests) if partial[i]),
    )
    return subgraphs, stats


def slice_union_subgraphs(
    targets: Sequence[int],
    node_lists: Sequence[list[int]],
    union_index: dict[int, int],
    types: Sequence[BehaviorType],
    entries: _Entries,
) -> list[ComputationSubgraph]:
    """Cut every request's typed entries out of one union block.

    ``entries`` holds ``(iu, iv, w, type_code)`` indexed into the union
    node list (``union_index`` maps uid to union row) and into ``types``.
    Each request masks them to its own nodes (O(E_union)) and keeps its
    renumbered entries: the forward packs them as they are, and the
    subgraph's matrices — bit-identical, once built, to the scalar
    ``typed_adjacency`` over the same nodes — are built only if read.
    """
    types = tuple(types)
    iu, iv, weights, codes = entries
    subgraphs: list[ComputationSubgraph] = []
    request_of_union = np.full(len(union_index), -1, dtype=np.int64)
    for target, nodes in zip(targets, node_lists):
        positions = np.asarray([union_index[uid] for uid in nodes], dtype=np.int64)
        request_of_union[positions] = np.arange(len(nodes), dtype=np.int64)
        riu = request_of_union[iu]
        riv = request_of_union[iv]
        keep = (riu >= 0) & (riv >= 0)
        request_of_union[positions] = -1
        local = (riu[keep], riv[keep], weights[keep], codes[keep])
        subgraphs.append(
            ComputationSubgraph(target=target, nodes=nodes, types=types, entries=local)
        )
    return subgraphs


def _check_fanout(fanout: int | None) -> None:
    """A negative cap would slice "all but the lightest" neighbours."""
    if fanout is not None and fanout < 0:
        raise ValueError("fanout must be non-negative or None")


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
