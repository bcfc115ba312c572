"""The dict-walk sampler the array BFS over the read index replaced.

:func:`computation_subgraph` walks the network's neighbour dicts node by
node and type by type, ranking each ``(node, type)`` with its own
``argsort`` (:func:`_select_neighbors`), and induces the subgraph's
adjacency with the whole-graph snapshot mask.  It shares no code with
:func:`repro.network.sampling.computation_subgraphs_batch`, which reads
the index's one selection CSR (``ShardIndex.selection``), so every
sampling tier is pinned to it: same node order, same CSR bits.  Its
``rng`` mode (weighted draws instead of top-k) is kept as it was.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.datagen.behavior_types import BehaviorType
from repro.network.adjacency import _induced_entries
from repro.network.bn import BehaviorNetwork
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
