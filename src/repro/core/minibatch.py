"""Neighbor sampling for mini-batch training (the paper's batch-256 protocol).

Full-graph training touches every node each step; the deployment-faithful
alternative — and the only one that scales past memory — is GraphSAGE-style
neighbor sampling: each step draws a batch of target nodes, expands a
fanout-capped k-hop frontier, and trains on the induced subgraph only.
This module holds the kernels of that protocol: the k-hop sampler, whose
deterministic (top-k) policy is a :class:`PresampledGraph` replay — one
:func:`~repro.nn.sparse.csr_topk_rows` selection walked by serving's BFS
(:func:`~repro.network.sampling._bfs_positions`) — and whose weighted
policy draws per batch; and the one subgraph inducer.  The epoch loop
that drives them lives in :mod:`repro.core.train_engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ..network.sampling import _EMPTY_I64, _bfs_positions, _marks
from ..nn.sparse import csr_interleave, csr_topk_rows

__all__ = [
    "sample_khop_nodes",
    "induced_adjacencies",
]


def _check_graph(csrs: Sequence[sp.csr_matrix], fanout: int | None) -> int:
    """Node count of square, same-shape adjacencies under a legal fanout."""
    if not csrs:
        raise ValueError("sampling requires at least one adjacency")
    n = csrs[0].shape[0]
    if any(c.shape != (n, n) for c in csrs):
        raise ValueError(
            f"adjacencies must be square and same-shape, got {[c.shape for c in csrs]}"
        )
    if fanout is not None and fanout < 0:
        raise ValueError("fanout must be non-negative or None")
    return n


def _check_indices(name: str, idx: np.ndarray, n: int) -> np.ndarray:
    """``idx`` as int64 node indices, all inside ``[0, n)``."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"{name} must lie in [0, {n})")
    return idx


def _roots(seeds: np.ndarray) -> np.ndarray:
    """``seeds`` without repeats, each at its first occurrence."""
    _, first = np.unique(seeds, return_index=True)
    return seeds[np.sort(first)]


def _weighted_keep(
    weights: np.ndarray, fanout: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of a weighted ``fanout``-subset draw without replacement.

    ``rng.choice(..., replace=False, p=p)`` raises when fewer than
    ``fanout`` entries carry probability mass; in that case keep the whole
    nonzero support and top up deterministically with the first zero-weight
    entries in index order.  Shared by the vectorized sampler and the
    per-node reference loop (``tests/oracles/minibatch.py``) so both
    consume the rng stream identically.
    """
    if fanout == 0:
        return np.empty(0, dtype=np.int64)
    support = np.flatnonzero(weights > 0)
    if len(support) < fanout:
        zero = np.flatnonzero(weights <= 0)[: fanout - len(support)]
        return np.concatenate([support, zero])
    p = weights / weights.sum()
    return rng.choice(len(weights), size=fanout, replace=False, p=p)


def _expand_frontier(
    csrs: Sequence[sp.csr_matrix],
    frontier: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One hop of weighted fanout draws over the whole frontier.

    Returns candidate neighbour ids (duplicates included) ordered exactly
    like the reference loop: frontier-node-major, adjacency-matrix-inner,
    and within each (node, matrix) segment either the CSR's stored order
    (segments within the fanout) or the draw order (oversized segments).

    Each kept element's within-segment ranks are contiguous from zero, so
    its output position is ``base[segment] + type_offset + rank`` where the
    offsets come from cumulative kept-counts — the ordering is a direct
    counting scatter, no sort required.
    """
    n_types = len(csrs)
    n_front = len(frontier)
    if n_front == 0 or fanout == 0:
        # fanout 0 keeps nothing anywhere (and consumes no rng draws).
        return np.empty(0, dtype=np.int64)
    # One entry per type with candidates: (ti, neigh, counts, excl, seg,
    # key, keep); the last three stay None when every candidate is kept.
    parts: list[tuple] = []
    pending: list[tuple[int, int, int, int, int, np.ndarray]] = []
    # kept[ti, s] = how many neighbours survive for frontier node s, type ti.
    kept_counts = np.zeros((n_types, n_front), dtype=np.int64)

    for ti, csr in enumerate(csrs):
        starts = csr.indptr[frontier]
        stops = csr.indptr[frontier + 1]
        counts = (stops - starts).astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            continue
        excl = np.concatenate(([0], np.cumsum(counts)[:-1]))
        flat = np.repeat(starts - excl, counts) + np.arange(total)
        kept_counts[ti] = np.minimum(counts, fanout)
        seg = key = keep = None
        big = counts > fanout
        if np.any(big):
            seg = np.repeat(np.arange(n_front), counts)
            key = np.arange(total) - np.repeat(excl, counts)
            # Weighted draws consume the rng stream per oversized segment;
            # queue them so the draws happen in the reference's (node,
            # matrix) order across all matrices.
            keep = ~big[seg]
            part = len(parts)
            for s in np.flatnonzero(big):
                lo = int(excl[s])
                hi = lo + int(counts[s])
                pending.append((int(s), ti, part, lo, hi, csr.data[flat[lo:hi]]))
        parts.append((ti, csr.indices[flat], counts, excl, seg, key, keep))

    if not parts:
        return np.empty(0, dtype=np.int64)

    if pending:
        pending.sort(key=lambda item: (item[0], item[1]))
        for _seg, _ti, part, lo, _hi, weights in pending:
            chosen = _weighted_keep(weights, fanout, rng)
            parts[part][6][lo + chosen] = True
            parts[part][5][lo + chosen] = np.arange(len(chosen))

    # Counting scatter: each kept element's output slot is the number of
    # kept elements that precede it in (segment, type, rank) order.
    totals_per_seg = kept_counts.sum(axis=0)
    base = np.concatenate(([0], np.cumsum(totals_per_seg)[:-1]))
    type_offset = np.cumsum(kept_counts, axis=0) - kept_counts
    out = np.empty(int(totals_per_seg.sum()), dtype=np.int64)
    for ti, neigh, counts, excl, seg, key, keep in parts:
        if key is None:
            # All kept: positions are contiguous per segment, so build them
            # with the same repeat-plus-arange trick used for `flat`.
            slot = base + type_offset[ti] - excl
            out[np.repeat(slot, counts) + np.arange(len(neigh))] = neigh
        else:
            kidx = np.flatnonzero(keep)
            segk = seg[kidx]
            out[base[segk] + type_offset[ti, segk] + key[kidx]] = neigh[kidx]
    return out


def sample_khop_nodes(
    adjacencies: Sequence[sp.spmatrix],
    seeds: np.ndarray,
    hops: int = 2,
    fanout: int | None = 10,
    rng: np.random.Generator | None = None,
    scratch: list | None = None,
) -> np.ndarray:
    """Union k-hop node set around ``seeds`` with per-type fanout caps.

    Returns node indices with the seeds first (order preserved, repeats
    dropped).  Without an ``rng`` (or without a cap) every row keeps its
    top-``fanout`` neighbours by weight, and the call is one
    :class:`PresampledGraph` replay; with an ``rng`` each oversized row
    draws its neighbours weighted, whole frontiers at a time.  Either way
    the node set is *identical* to the per-node reference loop of
    ``tests/oracles/minibatch.py``, including order, fanout tie-breaking,
    and rng stream consumption.  A seed outside ``[0, n)`` is a
    ``ValueError``.  A weighted draw marks the nodes it selects in
    ``scratch``, a caller-owned ``[marks, stamp]`` pair (see
    :func:`~repro.network.sampling._marks`; a fresh one when ``None``), so
    a training loop that passes the same pair allocates nothing the size
    of the graph per batch.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    if rng is None or fanout is None:
        return PresampledGraph.build(adjacencies, fanout).sample(seeds, hops)
    csrs = [a.tocsr() for a in adjacencies]
    n = _check_graph(csrs, fanout)
    frontier = _roots(_check_indices("seeds", seeds, n))
    marks, stamp = _marks(n, [_EMPTY_I64, 0] if scratch is None else scratch)
    chunks = [frontier]
    marks[frontier] = stamp
    for _ in range(hops):
        if frontier.size == 0:
            break
        candidates = _expand_frontier(csrs, frontier, fanout, rng)
        # Drop already-selected nodes, then keep first occurrences — the
        # vectorized equivalent of the reference's sequential `seen` check.
        # Marked back to front, a node keeps its first occurrence's
        # (negative, so never a stamp) mark: no sort is needed.
        candidates = candidates[marks[candidates] != stamp]
        order = -1 - np.arange(candidates.size)
        marks[candidates[::-1]] = order[::-1]
        fresh = candidates[marks[candidates] == order]
        if fresh.size == 0:
            break
        marks[fresh] = stamp
        chunks.append(fresh)
        frontier = fresh
    return np.concatenate(chunks)


def induced_adjacencies(
    adjacencies: Sequence[sp.spmatrix], nodes: np.ndarray
) -> list[sp.csr_matrix]:
    """Node-induced sub-adjacency per type, indexed like ``nodes``.

    Gathers the kept rows with scipy's C row indexer, then remaps columns
    through a lookup array — O(edges touched), versus the full fancy-index
    machinery (column argsort plus O(columns) bookkeeping per matrix) of
    the reference path.  Out-of-subgraph neighbours are remapped to a dump
    column ``k`` and dropped by a single C-level column slice, so no numpy
    boolean compaction pass is needed.  ``nodes`` must not contain
    duplicates (the sampler never produces them).
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    k = len(nodes)
    result: list[sp.csr_matrix] = []
    lookup: np.ndarray | None = None
    for a in adjacencies:
        csr = a.tocsr()
        if lookup is None or lookup.shape[0] != csr.shape[1]:
            lookup = np.full(csr.shape[1], k, dtype=np.int32)
            lookup[nodes] = np.arange(k, dtype=np.int32)
        rows = csr[nodes]
        # Reinterpret the (k, n) row slab as (k, k+1) by remapping columns
        # — attribute assignment skips re-validation — then drop column k.
        wide = sp.csr_matrix((k, k + 1))
        wide.data = rows.data
        wide.indices = lookup[rows.indices]
        wide.indptr = rows.indptr.astype(np.int32, copy=False)
        result.append(wide[:, :k])
    return result


@dataclass(slots=True, eq=False)
class PresampledGraph:
    """Epoch-invariant sampling structure: fanout selection + BFS CSR.

    The deterministic fanout policy (weight-descending, CSR-position
    tie-break) is a pure function of the adjacency, so it is computed
    **once** per training run instead of once per (batch, epoch):

    * ``all_*`` — every type's fanout-capped rows
      (:func:`~repro.nn.sparse.csr_topk_rows`) interleaved node-major /
      type-inner into one CSR: the same shape as the read index's
      selection (:meth:`~repro.network.sharding.ShardIndex.selection`),
      so serving's BFS (:func:`~repro.network.sampling._bfs_positions`)
      walks it;
    * ``adjacencies`` — the original CSRs, referenced (not copied) for the
      induced-subgraph slice, which is *not* fanout-capped.

    It keys directly off the training adjacency matrices (no BN weight
    masking): its contract is bit-exactness against the per-node loops of
    ``tests/oracles/minibatch.py``.
    """

    n: int
    fanout: int | None
    all_indptr: np.ndarray
    all_indices: np.ndarray
    adjacencies: list[sp.csr_matrix]
    #: ``[marks, stamp]`` of this graph's walks.  Its own, not serving's
    #: module scratch: training walks run on the prefetch thread.
    _scratch: list = field(
        default_factory=lambda: [np.empty(0, dtype=np.int64), 0], init=False, repr=False
    )

    @classmethod
    def build(
        cls, adjacencies: Sequence[sp.spmatrix], fanout: int | None
    ) -> "PresampledGraph":
        """Precompute the interleaved selection CSR for ``adjacencies``."""
        csrs = [a.tocsr() for a in adjacencies]
        n = _check_graph(csrs, fanout)
        sel_indptr: list[np.ndarray] = []
        sel_indices: list[np.ndarray] = []
        for csr in csrs:
            indptr = np.asarray(csr.indptr, dtype=np.int64)
            indices = np.asarray(csr.indices, dtype=np.int64)
            if fanout is not None:
                indptr, order = csr_topk_rows(indptr, csr.data, fanout)
                indices = indices[order]
            sel_indptr.append(indptr)
            sel_indices.append(indices)
        all_indptr, all_indices = csr_interleave(n, sel_indptr, sel_indices)
        return cls(n, fanout, all_indptr, all_indices, csrs)

    def sample(self, seeds: np.ndarray, hops: int) -> np.ndarray:
        """k-hop node set of ``seeds``: one BFS over the selection CSR.

        The roots are the seeds without repeats; each hop enumerates the
        frontier's selection rows in order, first occurrence wins.  Inputs
        are checked before the walk takes a stamp.
        """
        if hops < 0:
            raise ValueError("hops must be non-negative")
        seeds = _check_indices("seeds", seeds, self.n)
        selection = (self.all_indptr, self.all_indices)
        return _bfs_positions(selection, None, _roots(seeds), hops, scratch=self._scratch)[0]

    def induced(self, nodes: np.ndarray) -> list[sp.csr_matrix]:
        """Induced sub-CSRs over the *original* adjacency (fanout-free)."""
        return induced_adjacencies(self.adjacencies, nodes)
