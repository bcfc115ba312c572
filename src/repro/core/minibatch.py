"""Neighbor sampling for mini-batch training (the paper's batch-256 protocol).

Full-graph training touches every node each step; the deployment-faithful
alternative — and the only one that scales past memory — is GraphSAGE-style
neighbor sampling: each step draws a batch of target nodes, expands a
fanout-capped k-hop frontier, and trains on the induced subgraph only.
This module holds the two kernels of that protocol — the one-shot,
rng-capable k-hop sampler and the one subgraph inducer; the epoch loop
that drives them lives in :mod:`repro.core.train_engine`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "sample_khop_nodes",
    "induced_adjacencies",
]


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


def _topk_rank_group(
    data: np.ndarray,
    flat: np.ndarray,
    counts: np.ndarray,
    excl: np.ndarray,
    segs: np.ndarray,
    fanout: int,
    keep: np.ndarray,
    key: np.ndarray,
) -> None:
    """Write top-``fanout`` survivors and their ranks for oversized segments.

    Each segment's elements are ranked by (weight desc, CSR position asc) —
    identical to the reference's stable argsort — with survivors marked in
    ``keep`` and their selection order in ``key``.  Two execution shapes:

    * a per-segment O(c) argpartition loop, used for few segments or for
      groups so skewed that padding to the longest segment would waste the
      batched work;
    * a padded ``(n_seg, max_count)`` batch (+inf padding sorts last): one
      stable row argsort when rows are narrow — dispatch-cheap and exact on
      ties — or an O(w) row partition plus explicit boundary-tie resolution
      in column order when rows are wide.

    Callers split mixed degree distributions into narrow/wide groups first
    so hub segments never inflate the padding of the bulk.
    """
    n_seg = len(segs)
    gcounts = counts[segs]
    gmax = int(gcounts.max())
    gtotal = int(gcounts.sum())
    wide = gmax > max(64, 2 * fanout)
    if n_seg <= 16 or (
        wide and (n_seg <= 256 or n_seg * gmax > 4 * gtotal)
    ):
        for s in segs:
            lo = int(excl[s])
            hi = lo + int(counts[s])
            w = data[flat[lo:hi]]
            top = np.argpartition(-w, fanout - 1)[:fanout]
            vstar = w[top].min()
            strict = np.flatnonzero(w > vstar)
            ties = np.flatnonzero(w == vstar)
            kept_idx = np.concatenate([strict, ties[: fanout - len(strict)]])
            order = kept_idx[np.argsort(-w[kept_idx], kind="stable")]
            keep[lo:hi] = False
            keep[lo + order] = True
            key[lo + order] = np.arange(fanout)
        return

    gexcl = np.concatenate(([0], np.cumsum(gcounts)[:-1]))
    gidx = np.repeat(excl[segs] - gexcl, gcounts) + np.arange(gtotal)
    w = data[flat[gidx]]
    brow = np.repeat(np.arange(n_seg), gcounts)
    bcol = np.arange(gtotal) - np.repeat(gexcl, gcounts)
    pad = np.full((n_seg, gmax), np.inf)
    pad[brow, bcol] = -w
    if not wide:
        order = np.argsort(pad, axis=1, kind="stable")
        ranks = np.empty((n_seg, gmax), dtype=np.int64)
        np.put_along_axis(
            ranks,
            order,
            np.broadcast_to(np.arange(gmax), (n_seg, gmax)),
            axis=1,
        )
        rflat = ranks[brow, bcol]
        keep[gidx] = rflat < fanout
        key[gidx] = rflat
    else:
        top = np.partition(pad, fanout - 1, axis=1)[:, fanout - 1]
        strict = pad < top[:, None]
        tie = pad == top[:, None]
        n_strict = strict.sum(axis=1)
        tie_rank = np.cumsum(tie, axis=1)
        kept2d = strict | (tie & (tie_rank <= (fanout - n_strict)[:, None]))
        # Rank the fanout survivors of each row by (weight desc, column
        # asc).  Extracting with the boolean mask walks rows in column
        # order, so a stable small argsort inherits the tie order.
        vals = pad[kept2d].reshape(n_seg, fanout)
        order = np.argsort(vals, axis=1, kind="stable")
        ranks = np.empty((n_seg, fanout), dtype=np.int64)
        np.put_along_axis(
            ranks,
            order,
            np.broadcast_to(np.arange(fanout), (n_seg, fanout)),
            axis=1,
        )
        kept_flat = kept2d[brow, bcol]
        keep[gidx] = kept_flat
        key[gidx[kept_flat]] = ranks.ravel()


def _expand_frontier(
    csrs: Sequence[sp.csr_matrix],
    frontier: np.ndarray,
    fanout: int | None,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """One hop of whole-frontier expansion via ``indptr``/``indices`` slicing.

    Returns candidate neighbour ids (duplicates included) ordered exactly
    like the reference loop: frontier-node-major, adjacency-matrix-inner,
    and within each (node, matrix) segment either the CSR's stored order
    (small segments) or the fanout selection order (capped segments).

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
        kept_counts[ti] = counts if fanout is None else np.minimum(counts, fanout)
        seg = key = keep = None

        if fanout is not None:
            big = counts > fanout
            if np.any(big):
                seg = np.repeat(np.arange(n_front), counts)
                key = np.arange(total) - np.repeat(excl, counts)
                keep = np.ones(total, dtype=bool)
                if rng is None:
                    # Segment-wise top-k over the oversized segments only.
                    # Hub-style segments (wide) and bulk segments (narrow)
                    # get ranked as separate groups so a handful of
                    # hot-spot nodes never dictates the padding of the
                    # thousands of ordinary ones.
                    big_segs = np.flatnonzero(big)
                    bcounts = counts[big_segs]
                    wide = bcounts > max(64, 2 * fanout)
                    if wide.any() and not wide.all():
                        groups = (big_segs[~wide], big_segs[wide])
                    else:
                        groups = (big_segs,)
                    for group in groups:
                        _topk_rank_group(
                            csr.data, flat, counts, excl, group,
                            fanout, keep, key,
                        )
                else:
                    # Weighted draws consume the rng stream per oversized
                    # segment; queue them so the draws happen in the
                    # reference's (node, matrix) order across all matrices.
                    keep = ~big[seg]
                    part = len(parts)
                    for s in np.flatnonzero(big):
                        lo = int(excl[s])
                        hi = lo + int(counts[s])
                        pending.append(
                            (int(s), ti, part, lo, hi, csr.data[flat[lo:hi]])
                        )
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
) -> np.ndarray:
    """Union k-hop node set around ``seeds`` with per-type fanout caps.

    Returns node indices with the seeds first (order preserved).  The
    expansion is fully vectorized — whole frontiers at a time — and returns
    node sets *identical* to the per-node reference loop of
    ``tests/oracles/minibatch.py``, including order, fanout tie-breaking,
    and rng stream consumption.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    csrs = [a.tocsr() for a in adjacencies]
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.size == 0:
        return seeds.copy()
    _, first = np.unique(seeds, return_index=True)
    frontier = seeds[np.sort(first)]
    if not csrs:
        return frontier
    chunks = [frontier]
    seen = np.zeros(csrs[0].shape[0], dtype=bool)
    seen[frontier] = True
    for _ in range(hops):
        if frontier.size == 0:
            break
        candidates = _expand_frontier(csrs, frontier, fanout, rng)
        if candidates.size == 0:
            break
        # First-occurrence dedupe, then drop already-selected nodes — the
        # vectorized equivalent of the reference's sequential `seen` check.
        # Scattering positions in reverse makes the earliest occurrence the
        # surviving write, so no sort is needed.
        stamp = np.full(seen.shape[0], -1, dtype=np.int32)
        stamp[candidates[::-1]] = np.arange(
            candidates.size - 1, -1, -1, dtype=np.int32
        )
        ordered = candidates[stamp[candidates] == np.arange(candidates.size)]
        fresh = ordered[~seen[ordered]]
        if fresh.size == 0:
            break
        seen[fresh] = True
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
