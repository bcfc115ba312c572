"""Computation-subgraph sampling for inductive inference (Section III-A).

Turbo supports real-time detection by feeding HAG a *computation subgraph*
``G_v`` — the k-hop neighbourhood that contains everything the GNN needs to
compute the target's representation — instead of the entire BN (the
GraphSAGE-style inductive setting).  The BN server samples ``G_v`` when a
detection request arrives.

One sampler: :func:`computation_subgraphs_batch` is what every serving
tier runs.  It reads the network's one flat read index (``bn.index()``;
a sharded deployment partitions the reads of the same index), whose
fanout-capped neighbour selection is ranked once per BN version
(:meth:`~repro.network.sharding.ShardIndex.selection`): a request's
BFS (:func:`_bfs_positions`) walks that CSR, and the index's one
inducer (:meth:`~repro.network.sharding.ShardIndex.induced_entries`)
gives its adjacency.  The lambda sweep
(:func:`repro.core.lambda_infer.score_slice`) runs the same two per
target, and sampled training walks its own selection of the training
matrices (:class:`~repro.core.minibatch.PresampledGraph`) with the same
BFS.  The dict walk they replaced lives on in
``tests/oracles/sampling.py`` as the independent oracle.

A :class:`ComputationSubgraph` carries its ``|R|`` adjacencies as the typed
entries the sampler induced (HAG's inference packs them as they are); the
type-stacked CSR and the per-type scipy matrices are built off them only
when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Collection, Sequence

import numpy as np
import scipy.sparse as sp

from ..datagen.behavior_types import BehaviorType
from ..nn.sparse import StackedCSR, stacked_symmetric_csr, sum_csr
from .sharding import ShardIndex, shard_of
from .snapshot import positions_of

__all__ = [
    "ComputationSubgraph",
    "computation_subgraphs_batch",
    "BatchSampleStats",
]


_Entries = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
_EMPTY_I64 = np.empty(0, dtype=np.int64)


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


@dataclass(frozen=True, slots=True)
class BatchSampleStats:
    """Coalescing accounting for one :func:`computation_subgraphs_batch` call."""

    requests: int
    sampled_nodes: int  # sum of per-request subgraph sizes
    unique_nodes: int  # size of the union node set
    #: Request indices served from an incomplete frontier because one or
    #: more shards were down (always empty without a partition).
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
    owner: np.ndarray | None = None,
    n_shards: int = 1,
    dead_shards: Collection[int] = (),
    on_exchange: Callable[[int, dict[int, int], int], None] | None = None,
) -> tuple[list[ComputationSubgraph], BatchSampleStats]:
    """Sample every target's ``G_v`` off a read index.

    The one sampler under every serving tier; ``index`` is ``bn.index()``.
    Each target's ``hops``-hop BFS walks the index's selection CSR for
    ``fanout`` (:meth:`ShardIndex.selection`, ranked once per BN version):
    per frontier node in order, its selection row in order, first
    occurrence wins, and a candidate joins only if ``allowed`` (``None``
    admits all) holds it.  The adjacency is gathered once for the union
    of the batch's nodes (:meth:`ShardIndex.induced_entries`, O(sum deg))
    and each request's typed entries are cut out of it: the forward packs
    them as they are, and the matrices are built only if read.  Node order
    and entry bits equal the dict walk's (``tests/oracles/sampling.py``).
    Nothing here allocates an array sized by the network: the BFS marks
    what it saw in scratch that every call reuses.

    A sharded tier partitions the reads: ``owner`` is the owner shard of
    every index position, ``shard_of(index.node_ids, n_shards)`` (a uid
    the index lacks is owned by its ``shard_of``), and
    ``dead_shards`` are the shards that cannot serve: their rows select
    nothing.  A dead shard a walk tried to expand also loses its adjacency
    rows for the whole batch, and every request that expanded or holds
    one of its nodes is listed in ``stats.partial``.
    ``on_exchange(hop, rows_by_shard, lost)`` observes each hop's union
    frontier: its rows per owner shard and how many of them are on dead
    shards.  Without ``owner`` the index is one shard that is never down.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    selection = index.selection(fanout)
    node_ids = index.node_ids
    targets = list(map(int, targets))
    dead = None
    if dead_shards:
        dead = np.zeros(n_shards, dtype=bool)
        dead[list(dead_shards)] = True
    found, levels_of, node_lists = [], [], []
    roots = positions_of(node_ids, targets)
    for i, target in enumerate(targets):
        root = roots[i : i + 1]
        positions, levels = _bfs_positions(selection, node_ids, root, hops, allowed, owner, dead)
        nodes = node_ids[positions].tolist() if root[0] >= 0 else [target]
        found.append(positions)
        levels_of.append(levels)
        node_lists.append(nodes)

    partial = [False] * len(targets)
    gone = None
    if dead is not None:
        hit: set[int] = set()
        for i, (nodes, levels) in enumerate(zip(node_lists, levels_of)):
            # The first levels[hops] nodes were expanded (if a type was).
            expanded = nodes[: levels[hops]] if index.types else []
            shards = shard_of(expanded, n_shards)  # an unregistered uid's too
            lost = shards[dead[shards]].tolist()
            partial[i] = bool(lost)
            hit.update(lost)
        if hit:
            gone = np.zeros(n_shards, dtype=bool)
            gone[list(hit)] = True
            for i, positions in enumerate(found):
                partial[i] = partial[i] or bool(gone[owner[positions[positions >= 0]]].any())
    if on_exchange is not None:
        for hop in range(hops):
            frontier: set[int] = set()
            for nodes, levels in zip(node_lists, levels_of):
                frontier.update(nodes[levels[hop] : levels[hop + 1]])
            if frontier:
                counts = np.bincount(shard_of(list(frontier), n_shards)).tolist()
                rows = {s: count for s, count in enumerate(counts) if count}
                on_exchange(hop, rows, sum(rows.get(s, 0) for s in dead_shards))

    union = np.concatenate(found) if found else _EMPTY_I64
    union.sort()
    first = np.empty(len(union), dtype=bool)
    first[:1] = True
    np.not_equal(union[1:], union[:-1], out=first[1:])
    union = union[first]
    # Each request keeps the union entries between two of its nodes,
    # renumbered to its own rows; a shard that lost its rows reads none.
    live = None if gone is None else ~gone[owner[union]]
    iu, iv, weights, codes = index.induced_entries(union, live)
    subgraphs: list[ComputationSubgraph] = []
    row_of = np.full(len(union), -1, dtype=np.int64)
    for target, nodes, positions in zip(targets, node_lists, found):
        rows = union.searchsorted(positions)
        row_of[rows] = np.arange(len(nodes), dtype=np.int64)
        riu, riv = row_of[iu], row_of[iv]
        keep = (riu >= 0) & (riv >= 0)
        row_of[rows] = -1
        entries = (riu[keep], riv[keep], weights[keep], codes[keep])
        subgraphs.append(
            ComputationSubgraph(target=target, nodes=nodes, types=index.types, entries=entries)
        )
    stats = BatchSampleStats(
        requests=len(targets),
        sampled_nodes=sum(map(len, node_lists)),
        unique_nodes=len(set().union(*node_lists)),
        partial=tuple(compress(range(len(targets)), partial)),
    )
    return subgraphs, stats


#: ``[marks, stamp]``: per-position marks every serving BFS reuses, grown
#: with the network.  Each walk takes a new stamp, so ``marks[p] == stamp``
#: means "discovered by this walk" and nothing is ever cleared; a hop's
#: first occurrences are found with negative marks, which no stamp equals.
#: What an earlier walk left in it never matches, so no call can see
#: another's.  A walker on another thread passes its own pair.
_MARKS: list = [_EMPTY_I64, 0]


def _marks(n: int, scratch: list) -> tuple[np.ndarray, int]:
    """``(marks, stamp)`` of ``scratch`` covering ``n`` positions, with a fresh stamp."""
    marks, stamp = scratch
    if len(marks) < n:
        marks = scratch[0] = np.zeros(max(n, 2 * len(marks)), dtype=np.int64)
    scratch[1] = stamp = stamp + 1
    return marks, stamp


def _bfs_positions(
    selection: tuple[np.ndarray, np.ndarray],
    node_ids: np.ndarray | None,
    roots: np.ndarray,
    hops: int,
    allowed: set[int] | None = None,
    owner: np.ndarray | None = None,
    dead: np.ndarray | None = None,
    scratch: list | None = None,
) -> tuple[np.ndarray, list[int]]:
    """``roots``' ``hops``-hop BFS over a selection CSR: ``(positions, levels)``.

    ``positions`` in discovery order — the roots (distinct), then per
    frontier node in order, its selection row in order, first occurrence
    wins — and the ones found at hop ``h`` are
    ``positions[levels[h]:levels[h + 1]]`` (``hops + 2`` bounds: the first
    ``levels[hops]`` were expanded).  A candidate joins only if ``allowed``
    (uids, read through ``node_ids``; ``None`` admits all) holds its uid.
    An unregistered root (``-1``) selects nothing, and with ``dead`` (a
    mask over shards, read through ``owner``) neither does a dead shard's
    row.  ``scratch`` is the ``[marks, stamp]`` pair the walk marks in
    (:data:`_MARKS` by default): the serving thread's own.  This is the
    one selection-CSR BFS: requests walk the read index's selection
    with it, and training walks :class:`~repro.core.minibatch.PresampledGraph`'s.
    """
    indptr, nbr = selection
    marks, stamp = _marks(len(indptr) - 1, _MARKS if scratch is None else scratch)
    found, levels = [roots], [0, len(roots)]
    frontier = roots[roots >= 0]
    for hop in range(hops):
        if not len(frontier):
            levels += [levels[-1]] * (hops - hop)
            break
        marks[frontier] = stamp
        rows = frontier if dead is None else frontier[~dead[owner[frontier]]]
        if len(rows) == 1:
            candidates = nbr[indptr[rows[0]] : indptr[rows[0] + 1]]
        else:  # the rows' entries, end to end
            starts = indptr[rows]
            lengths = indptr[rows + 1] - starts
            ends = lengths.cumsum()
            total = ends[-1] if len(ends) else 0
            candidates = nbr[np.arange(total) + (starts - ends + lengths).repeat(lengths)]
        candidates = candidates[marks[candidates] != stamp]
        if len(candidates) > 1:
            # Marked back to front, a node keeps its first occurrence's mark.
            order = -1 - np.arange(len(candidates))
            marks[candidates[::-1]] = order[::-1]
            candidates = candidates[marks[candidates] == order]
        if allowed is not None and len(candidates):
            uids = node_ids[candidates].tolist()
            candidates = candidates[np.fromiter(map(allowed.__contains__, uids), bool, len(uids))]
        found.append(candidates)
        levels.append(levels[-1] + len(candidates))
        frontier = candidates
    return np.concatenate(found), levels
