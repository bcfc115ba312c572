"""Global sampled-adjacency view of one BN version (InferTurbo-style).

The serving path's fanout-limited top-k neighbour selection is a
deterministic function of the graph state, ranked once per BN version on
the read index (:meth:`~repro.network.sharding.ShardIndex.selection`).
:class:`SampledGraph` bundles it with what the full-graph sweep needs
besides, for **every** node at once:

* the *selection CSR* — the index's, each node's selected neighbours for
  every type in type order (creation order when a type's candidate list
  fits the fanout, stable descending-weight rank order when truncated),
  which the sweep's per-target BFS
  (:func:`~repro.network.sampling._bfs_positions`) walks as serving does;
* the merged *incidence CSR* — every node's half-edges in pair-creation
  order with their global pair-table ids, which turns induced-adjacency
  extraction into O(sum degree) gathers over one merged CSR with a
  reusable lookup (:meth:`SampledGraph.induced_entries`), where the
  sampler gathers per shard block;
* reachability helpers for the lambda tier's incremental rematerialization:
  reverse-BFS over selection edges bounds which targets' sampled subgraphs
  can see a delta (*score cone*), BFS over the incidence restricted to the
  target set bounds which layer-state rows can change (*layer cone*).

Construction is vectorized off the network's read index
(``bn.index()``, a :class:`ShardIndex` whose bytes do not depend on the
shard count — see ``network/sharding.py``), so the same ``SampledGraph``
bits come out of a single :class:`~repro.network.bn.BehaviorNetwork` or a
:class:`~repro.network.sharding.ShardedBehaviorNetwork`.  The full-graph
sweep's forked children (:func:`~repro.system.fork_pool.fork_map`) read
the parent's graph by fork inheritance; nothing is copied to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..datagen.behavior_types import BehaviorType
from ..nn.sparse import csr_gather_rows
from .sharding import ShardIndex, _half_edges
from .snapshot import positions_of

__all__ = ["SampledGraph", "build_sampled_graph"]


@dataclass
class SampledGraph:
    """Fanout-limited selection + incidence CSRs over one BN version.

    All node references are *positions* into the sorted ``node_ids`` (the
    snapshot position space shared with :class:`ShardIndex`).  ``types``
    is the sorted tuple of behaviour types present in the graph — the
    order of each selection row's per-type runs.
    """

    version: int
    fanout: int | None
    node_ids: np.ndarray  # sorted int64 user ids
    types: tuple[BehaviorType, ...]
    #: ``ShardIndex.selection(fanout)``: all types' selection rows per node
    #: in type order — exactly the candidate stream one BFS hop enumerates.
    all_indptr: np.ndarray
    all_nbr: np.ndarray
    #: merged incidence CSR: row ``p`` lists every half-edge of the node in
    #: pair-creation order (neighbour position + global pair-table id).
    inc_indptr: np.ndarray
    inc_nbr: np.ndarray
    inc_pair: np.ndarray
    #: global pair table (pair-creation order) and the ``(types, pairs)``
    #: normalized weights — the source ``ShardIndex``'s arrays.
    pair_lo_pos: np.ndarray
    pair_hi_pos: np.ndarray
    norm_weights: np.ndarray
    _lookup: np.ndarray | None = field(default=None, repr=False, compare=False)
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
        """The index's selection for ``fanout`` plus the merged incidence CSR.

        The incidence is every node's half-edges in creation order: the
        per-shard blocks merged by node (pair-table order is creation
        order, and a node's half-edges are one row of its owner's block).
        """
        all_indptr, all_nbr = index.selection(fanout)
        node_all, nbr_all, pair_all = _half_edges(index.shards)
        return cls(
            version=int(index.version),
            fanout=fanout,
            node_ids=index.node_ids,
            types=tuple(index.types),
            all_indptr=all_indptr,
            all_nbr=all_nbr,
            inc_indptr=np.searchsorted(node_all, np.arange(index.num_nodes + 1)),
            inc_nbr=nbr_all,
            inc_pair=pair_all,
            pair_lo_pos=index.pair_lo_pos,
            pair_hi_pos=index.pair_hi_pos,
            norm_weights=index.norm_weights,
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

    # ------------------------------------------------------------------
    # Induced adjacency (frontier-local _typed_entries replay)
    # ------------------------------------------------------------------
    def induced_entries(
        self, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(iu, iv, w, type_code)`` entries induced by ``positions``.

        What :meth:`ShardIndex.induced_entries` returns for them, bit for
        bit: every type's entries of
        :func:`repro.network.adjacency._typed_entries` masked to the node
        set, type after type, in pair order.  Instead of binary-searching a
        request's few positions, it marks them in a position lookup every
        call reuses (and resets), so a sweep over 10^5 targets costs
        O(sum degree).  ``positions`` may contain ``-1`` (unregistered
        nodes stay isolated rows).
        """
        lookup = self._lookup
        if lookup is None:
            lookup = self._lookup = np.full(self.num_nodes, -1, dtype=np.int64)
        inside = positions >= 0
        in_pos = positions[inside]
        lookup[in_pos] = inside.nonzero()[0]
        indptr, gather = csr_gather_rows(self.inc_indptr, in_pos)
        nbr, pair = self.inc_nbr[gather], self.inc_pair[gather]
        from_lo = self.pair_lo_pos[pair] == np.repeat(in_pos, np.diff(indptr))
        candidates = np.unique(pair[(lookup[nbr] >= 0) & from_lo])
        weights = self.norm_weights[:, candidates]
        code, column = (weights > 0.0).nonzero()
        kept = candidates[column]
        entries = (
            lookup[self.pair_lo_pos[kept]],
            lookup[self.pair_hi_pos[kept]],
            weights[code, column],
            code,
        )
        lookup[in_pos] = -1
        return entries

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
        for btype, norm in zip(self.types, self.norm_weights):
            arrays[f"norm:{btype.value}"] = norm
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
