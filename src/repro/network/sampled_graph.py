"""Global sampled-adjacency view of one BN version (InferTurbo-style).

The serving path's fanout-limited top-k neighbour selection
(:func:`repro.network.sampling._select_neighbors`) is a deterministic
function of the graph state — the batch sampler already memoizes it per
``(node, type)`` for one read index.  This module materializes that
observation as one flat structure per BN version: :class:`SampledGraph`
holds, for **every** node at once,

* the per-type *selection CSR* — each node's selected neighbour list,
  bit-exact in content and order against ``_select_neighbors`` (creation
  order when the candidate list fits the fanout, stable descending-weight
  rank order when truncated);
* the merged *incidence CSR* — every node's half-edges in pair-creation
  order with their global pair-table ids, which turns induced-adjacency
  extraction into O(sum degree) gathers with a reusable scratch array
  (:meth:`SampledGraph.induced_entries`) over one merged CSR with a
  reusable scratch, where the batch sampler gathers per shard block;
* reachability helpers for the lambda tier's incremental rematerialization:
  reverse-BFS over selection edges bounds which targets' sampled subgraphs
  can see a delta (*score cone*), BFS over the incidence restricted to the
  target set bounds which layer-state rows can change (*layer cone*).

Construction is fully vectorized off the network's read index
(``bn.index()``, a :class:`ShardIndex` whose bytes do not depend on the
shard count — see ``network/sharding.py``), so the same ``SampledGraph``
bits come out of a single :class:`~repro.network.bn.BehaviorNetwork` or a
:class:`~repro.network.sharding.ShardedBehaviorNetwork`.  The full-graph
sweep's forked children (:func:`~repro.system.fork_pool.fork_map`) read
the parent's graph by fork inheritance; nothing is copied to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..datagen.behavior_types import BehaviorType
from ..nn.sparse import csr_gather_rows, csr_interleave, csr_topk_rows
from .sampling import _check_fanout
from .sharding import ShardIndex
from .snapshot import positions_of

__all__ = ["SampledGraph", "build_sampled_graph"]

_EMPTY_I64 = np.empty(0, dtype=np.int64)


@dataclass
class SampledGraph:
    """Fanout-limited selection + incidence CSRs over one BN version.

    All node references are *positions* into the sorted ``node_ids`` (the
    snapshot position space shared with :class:`ShardIndex`).  ``types``
    is the sorted tuple of behaviour types present in the graph — the same
    expansion order the scalar BFS uses.
    """

    version: int
    fanout: int | None
    node_ids: np.ndarray  # sorted int64 user ids
    types: tuple[BehaviorType, ...]
    #: per-type selection CSR: row ``p`` is ``_select_neighbors`` output
    #: for ``node_ids[p]`` under this type/fanout, as positions.
    sel_indptr: dict[BehaviorType, np.ndarray]
    sel_nbr: dict[BehaviorType, np.ndarray]
    #: all types' selection rows concatenated per node in type order —
    #: exactly the candidate stream one BFS hop enumerates for a node.
    all_indptr: np.ndarray
    all_nbr: np.ndarray
    #: merged incidence CSR: row ``p`` lists every half-edge of the node in
    #: pair-creation order (neighbour position + global pair-table id).
    inc_indptr: np.ndarray
    inc_nbr: np.ndarray
    inc_pair: np.ndarray
    #: global pair table (pair-creation order) and per-type dense
    #: normalized weights — views shared with the source ``ShardIndex``.
    pair_lo_pos: np.ndarray
    pair_hi_pos: np.ndarray
    type_norm: dict[BehaviorType, np.ndarray]
    _scratch: np.ndarray | None = field(default=None, repr=False, compare=False)
    _seen: np.ndarray | None = field(default=None, repr=False, compare=False)
    _rev: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_pairs(self) -> int:
        return len(self.pair_lo_pos)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_index(cls, index: ShardIndex, fanout: int | None) -> "SampledGraph":
        """Build the global selection + incidence CSRs off a merged index.

        One vectorized pass: merge the per-shard half-edge blocks, resort
        by ``(node, pair)`` (pair-table order is creation order, so this
        yields every node's half-edges in creation order), then rank each
        node's per-type candidate segment exactly the way
        ``_select_neighbors`` does — creation order when the segment fits
        the fanout, stable ``argsort(-weight)`` order truncated to
        ``fanout`` otherwise.
        """
        _check_fanout(fanout)
        num_nodes = index.num_nodes
        node_parts: list[np.ndarray] = []
        nbr_parts: list[np.ndarray] = []
        pair_parts: list[np.ndarray] = []
        for block in index.shards:
            if not len(block.nbr_pos):
                continue
            counts = np.diff(block.indptr)
            node_parts.append(np.repeat(block.own_positions, counts))
            nbr_parts.append(block.nbr_pos)
            pair_parts.append(block.pair_idx)
        if node_parts:
            node_all = np.concatenate(node_parts)
            nbr_all = np.concatenate(nbr_parts)
            pair_all = np.concatenate(pair_parts)
            order = np.lexsort((pair_all, node_all))
            node_all = node_all[order]
            nbr_all = nbr_all[order]
            pair_all = pair_all[order]
        else:
            node_all = nbr_all = pair_all = _EMPTY_I64
        inc_indptr = np.searchsorted(
            node_all, np.arange(num_nodes + 1, dtype=np.int64)
        ).astype(np.int64)

        sel_indptr: dict[BehaviorType, np.ndarray] = {}
        sel_nbr: dict[BehaviorType, np.ndarray] = {}
        for btype in index.types:
            dense_w = index.type_weights[btype]
            w_all = dense_w[pair_all] if len(pair_all) else np.empty(0)
            mask = w_all > 0.0
            indptr = np.zeros(num_nodes + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(node_all[mask], minlength=num_nodes), out=indptr[1:]
            )
            kept_nbr = nbr_all[mask]
            if fanout is not None:
                # _select_neighbors keeps creation order when the segment
                # fits the fanout and the stable descending-weight rank
                # order (truncated) otherwise.
                indptr, order = csr_topk_rows(indptr, w_all[mask], fanout)
                kept_nbr = kept_nbr[order]
            sel_indptr[btype] = indptr
            sel_nbr[btype] = np.ascontiguousarray(kept_nbr, dtype=np.int64)

        all_indptr, all_nbr = csr_interleave(
            num_nodes, [sel_indptr[t] for t in index.types], [sel_nbr[t] for t in index.types]
        )
        return cls(
            version=int(index.version),
            fanout=fanout,
            node_ids=index.node_ids,
            types=tuple(index.types),
            sel_indptr=sel_indptr,
            sel_nbr=sel_nbr,
            all_indptr=all_indptr,
            all_nbr=all_nbr,
            inc_indptr=inc_indptr,
            inc_nbr=np.ascontiguousarray(nbr_all, dtype=np.int64),
            inc_pair=np.ascontiguousarray(pair_all, dtype=np.int64),
            pair_lo_pos=index.pair_lo_pos,
            pair_hi_pos=index.pair_hi_pos,
            type_norm=dict(index.type_norm_weights),
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def position_of(self, uid: int) -> int:
        """Position of ``uid`` in ``node_ids`` (-1 when not registered)."""
        return int(positions_of(self.node_ids, uid))

    def positions_of(self, uids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`position_of` (-1 per unregistered uid)."""
        return positions_of(self.node_ids, uids)

    def allowed_mask(self, allowed: set[int] | None) -> np.ndarray | None:
        """Dense position mask of an ``allowed`` uid set (``None`` passes)."""
        if allowed is None:
            return None
        mask = np.zeros(self.num_nodes, dtype=bool)
        uids = np.fromiter(allowed, dtype=np.int64, count=len(allowed))
        pos = self.positions_of(uids)
        mask[pos[pos >= 0]] = True
        return mask

    def selected(self, uid: int, btype: BehaviorType) -> list[int]:
        """``_select_neighbors`` replay for one ``(uid, type)`` (uid list)."""
        pos = self.position_of(uid)
        if pos < 0 or btype not in self.sel_indptr:
            return []
        indptr = self.sel_indptr[btype]
        row = self.sel_nbr[btype][indptr[pos] : indptr[pos + 1]]
        return self.node_ids[row].tolist()

    # ------------------------------------------------------------------
    # Per-target sampling (bit-exact scalar-BFS replay)
    # ------------------------------------------------------------------
    def subgraph_positions(
        self, pos: int, hops: int, allowed_mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, int]:
        """BFS over selection edges from ``pos``; positions in discovery order.

        Returns ``(positions, expanded)`` where ``expanded`` is the number
        of frontier nodes whose selection rows were enumerated (each counts
        ``len(types)`` expansions in the scalar path's accounting).  The
        discovery order is exactly the scalar BFS's: per frontier node in
        order, per type in order, per selected neighbour in order, first
        occurrence wins — reproduced here by a stable first-occurrence
        dedup over the concatenated candidate stream.
        """
        seen = self._seen
        if seen is None or len(seen) != self.num_nodes:
            seen = np.zeros(self.num_nodes, dtype=bool)
            self._seen = seen
        seen[pos] = True
        frontier = np.asarray([pos], dtype=np.int64)
        parts = [frontier]
        expanded = 0
        for _ in range(hops):
            if not len(frontier):
                break
            expanded += len(frontier)
            _, gidx = csr_gather_rows(self.all_indptr, frontier)
            cand = self.all_nbr[gidx]
            if len(cand):
                keep = ~seen[cand]
                if allowed_mask is not None:
                    keep &= allowed_mask[cand]
                cand = cand[keep]
            if len(cand):
                first = np.unique(cand, return_index=True)[1]
                first.sort()
                cand = cand[first]
                seen[cand] = True
            parts.append(cand)
            frontier = cand
        out = np.concatenate(parts) if len(parts) > 1 else parts[0]
        seen[out] = False
        return out, expanded

    # ------------------------------------------------------------------
    # Induced adjacency (frontier-local _typed_entries replay)
    # ------------------------------------------------------------------
    def half_edges_of(
        self, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(local_row, nbr_pos, pair_id)`` of every half-edge of ``positions``."""
        indptr, gidx = csr_gather_rows(self.inc_indptr, positions)
        rows = np.repeat(
            np.arange(len(positions), dtype=np.int64), np.diff(indptr)
        )
        return rows, self.inc_nbr[gidx], self.inc_pair[gidx]

    def induced_entries(
        self, positions: np.ndarray, types: Sequence[BehaviorType]
    ) -> dict[BehaviorType, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-type ``(iu, iv, w)`` entries induced by ``positions``.

        Bit-exact (content *and* order) against
        :func:`repro.network.adjacency._typed_entries` masked to the same
        node set: candidate pair ids are deduped on their ``lo`` side and
        sorted ascending, and pair-table order **is** snapshot edge order.
        Unlike :meth:`ShardIndex.induced_entries`, which binary-searches
        a request's few union positions, this keeps a reusable
        O(num_nodes) scratch across calls (touched entries are reset on
        exit), so a sweep over 10^5 targets costs O(sum degree), not
        O(targets * num_nodes).  ``positions`` may contain ``-1``
        (unregistered nodes stay isolated rows).
        """
        positions = np.asarray(positions, dtype=np.int64)
        scratch = self._scratch
        if scratch is None or len(scratch) != self.num_nodes:
            scratch = np.full(self.num_nodes, -1, dtype=np.int64)
            self._scratch = scratch
        inside = positions >= 0
        in_pos = positions[inside]
        scratch[in_pos] = np.flatnonzero(inside)
        rows, nbr, pid = self.half_edges_of(in_pos)
        if len(pid):
            keep = (scratch[nbr] >= 0) & (self.pair_lo_pos[pid] == in_pos[rows])
            candidates = np.unique(pid[keep]) if keep.any() else _EMPTY_I64
        else:
            candidates = _EMPTY_I64
        out: dict[BehaviorType, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for btype in types:
            norm = self.type_norm.get(btype)
            if norm is None:
                out[btype] = (_EMPTY_I64, _EMPTY_I64, np.empty(0))
                continue
            w = norm[candidates]
            mask = w > 0.0
            kept = candidates[mask]
            out[btype] = (
                scratch[self.pair_lo_pos[kept]],
                scratch[self.pair_hi_pos[kept]],
                w[mask],
            )
        scratch[in_pos] = -1
        return out

    # ------------------------------------------------------------------
    # Cones (incremental rematerialization)
    # ------------------------------------------------------------------
    def _reverse_selection(self) -> tuple[np.ndarray, np.ndarray]:
        """Transposed selection CSR (who can reach me in one hop), memoized."""
        if self._rev is None:
            src = np.repeat(
                np.arange(self.num_nodes, dtype=np.int64),
                np.diff(self.all_indptr),
            )
            dst = self.all_nbr
            order = np.argsort(dst, kind="stable")
            rev_nbr = src[order]
            rev_indptr = np.searchsorted(
                dst[order], np.arange(self.num_nodes + 1, dtype=np.int64)
            ).astype(np.int64)
            self._rev = (rev_indptr, rev_nbr)
        return self._rev

    def reverse_reachable(self, seeds: np.ndarray, hops: int) -> np.ndarray:
        """Positions that can reach a seed within ``hops`` selection steps.

        This is the *score cone*: a target whose BFS tree cannot reach any
        touched node within ``hops`` hops of the current selection graph
        has a subgraph made entirely of untouched nodes — whose selection
        rows, induced entries (degrees included) and feature rows are all
        unchanged — so its replayed score is bit-identical.  Seeds
        themselves are included.
        """
        rev_indptr, rev_nbr = self._reverse_selection()
        reached = np.zeros(self.num_nodes, dtype=bool)
        frontier = np.unique(np.asarray(seeds, dtype=np.int64))
        frontier = frontier[frontier >= 0]
        reached[frontier] = True
        for _ in range(hops):
            if not len(frontier):
                break
            _, gidx = csr_gather_rows(rev_indptr, frontier)
            nxt = np.unique(rev_nbr[gidx])
            nxt = nxt[~reached[nxt]]
            reached[nxt] = True
            frontier = nxt
        return np.flatnonzero(reached)

    def undirected_reachable(
        self,
        seeds: np.ndarray,
        hops: int,
        member_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Positions within ``hops`` undirected incidence hops of ``seeds``.

        With ``member_mask`` the walk is confined to the masked node set —
        this is the *layer cone* over the target-induced full adjacency
        (incidence is a superset of any normalized typed adjacency, so the
        cone is conservative).
        """
        reached = np.zeros(self.num_nodes, dtype=bool)
        frontier = np.unique(np.asarray(seeds, dtype=np.int64))
        frontier = frontier[frontier >= 0]
        if member_mask is not None:
            frontier = frontier[member_mask[frontier]]
        reached[frontier] = True
        for _ in range(hops):
            if not len(frontier):
                break
            _, gidx = csr_gather_rows(self.inc_indptr, frontier)
            nxt = np.unique(self.inc_nbr[gidx])
            nxt = nxt[~reached[nxt]]
            if member_mask is not None:
                nxt = nxt[member_mask[nxt]]
            reached[nxt] = True
            frontier = nxt
        return np.flatnonzero(reached)

    # ------------------------------------------------------------------
    # Byte digest
    # ------------------------------------------------------------------
    def to_payload(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """Every array of the graph by name, plus JSON-safe meta.

        The byte-level digest the parity suites compare across shard
        counts.
        """
        arrays: dict[str, np.ndarray] = {
            "node_ids": self.node_ids,
            "all_indptr": self.all_indptr,
            "all_nbr": self.all_nbr,
            "inc_indptr": self.inc_indptr,
            "inc_nbr": self.inc_nbr,
            "inc_pair": self.inc_pair,
            "pair_lo_pos": self.pair_lo_pos,
            "pair_hi_pos": self.pair_hi_pos,
        }
        for btype in self.types:
            arrays[f"selp:{btype.value}"] = self.sel_indptr[btype]
            arrays[f"seln:{btype.value}"] = self.sel_nbr[btype]
            arrays[f"norm:{btype.value}"] = self.type_norm[btype]
        meta = {
            "version": self.version,
            "fanout": -1 if self.fanout is None else int(self.fanout),
            "types": [btype.value for btype in self.types],
        }
        return arrays, meta


def build_sampled_graph(bn, fanout: int | None) -> SampledGraph:
    """Build the :class:`SampledGraph` of ``bn``'s current version.

    Reads ``bn.index()``, so a plain
    :class:`~repro.network.bn.BehaviorNetwork` and a
    :class:`~repro.network.sharding.ShardedBehaviorNetwork` produce
    identical bits for the same graph.
    """
    return SampledGraph.from_index(bn.index(), fanout)
