"""The per-node loops the vectorized sampler and inducer replaced.

``sample_khop_nodes`` expands whole frontiers at a time and
``induced_adjacencies`` remaps gathered rows through a dump column; these
are the loops they are pinned against, unchanged: the same node sets in
the same order, the same fanout tie-breaking and the same rng stream
(both sides draw through ``_weighted_keep``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.minibatch import _weighted_keep


def sample_khop_nodes_reference(
    adjacencies: Sequence[sp.spmatrix],
    seeds: np.ndarray,
    hops: int = 2,
    fanout: int | None = 10,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Per-node Python-loop sampler; kept to pin :func:`sample_khop_nodes`."""
    if hops < 0:
        raise ValueError("hops must be non-negative")
    csrs = [a.tocsr() for a in adjacencies]
    seeds = np.asarray(seeds, dtype=np.int64)
    selected: list[int] = list(dict.fromkeys(int(s) for s in seeds))
    seen = set(selected)
    frontier = list(selected)
    for _ in range(hops):
        next_frontier: list[int] = []
        for node in frontier:
            for csr in csrs:
                start, stop = csr.indptr[node], csr.indptr[node + 1]
                neighbors = csr.indices[start:stop]
                if fanout is not None and len(neighbors) > fanout:
                    weights = csr.data[start:stop]
                    if rng is None:
                        keep = np.argsort(-weights, kind="stable")[:fanout]
                    else:
                        keep = _weighted_keep(weights, fanout, rng)
                    neighbors = neighbors[keep]
                for neighbor in neighbors:
                    v = int(neighbor)
                    if v not in seen:
                        seen.add(v)
                        selected.append(v)
                        next_frontier.append(v)
        frontier = next_frontier
    return np.asarray(selected, dtype=np.int64)


def induced_adjacencies_reference(
    adjacencies: Sequence[sp.spmatrix], nodes: np.ndarray
) -> list[sp.csr_matrix]:
    """Double fancy-index induction; kept to pin :func:`induced_adjacencies`."""
    return [a.tocsr()[np.ix_(nodes, nodes)].tocsr() for a in adjacencies]
