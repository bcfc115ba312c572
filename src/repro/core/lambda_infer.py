"""Lambda-architecture batch layer: checkpointable HAG aggregation state.

Turbo's paper serves every request by sampling a fresh k-hop subgraph and
running full HAG inference.  *BRIGHT* and *GNNs in Real-Time Fraud Detection
with Lambda Architecture* (PAPERS.md) split the same workload into a **batch
layer** that periodically precomputes per-node aggregation state over the
full BN, and a **speed layer** that answers requests from that state plus
only the edges ingested since the last batch pass.

This module is the batch layer's core: storage- and serving-agnostic.

* :class:`HAGState` — the versioned, serializable per-node state one batch
  pass produces: exact replayed scores, the feature provenance that gates
  cache hits (which transaction/time each score was computed for), the
  sampled-subgraph membership CSR that prices staleness, and every SAO
  tower's layer-``k`` hidden states from a full-graph pass
  (:meth:`repro.core.hag.HAG.layer_states`).  Round-trips losslessly
  through a flat ``dict[str, np.ndarray]`` (:meth:`HAGState.to_arrays` /
  :meth:`HAGState.from_arrays`), which is exactly what
  :class:`~repro.system.storage.LocalDatabase` checkpoints and
  :class:`~repro.network.shm.SharedSnapshotStore` publishes.

* :func:`materialize` — the full-graph batch pass.  Scores are an
  **all-targets replay** of the exact serving path: the union-frontier
  sampler (:func:`~repro.network.sampling.computation_subgraphs_batch`)
  over every target, then the packed per-request-block forward
  (:meth:`~repro.core.hag.HAG.predict_subgraphs`).  Both are pinned
  bit-for-bit equal to the scalar path, so a cached score is *bit-exact*
  with what the fresh sampled path would compute — a full-graph embedding
  cache could not promise that, because the sampled path's aggregation is
  row-normalized within each target's own fanout-truncated subgraph.

The speed layer that serves from this state lives in
:mod:`repro.system.lambda_layer`; staleness accounting rides on
:meth:`repro.network.bn.BehaviorNetwork.track_deltas`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

import scipy.sparse as sp

from .. import nn
from ..nn import Tensor
from ..nn.sparse import csr_gather_rows
from ..network.adjacency import typed_adjacency
from ..network.sampled_graph import SampledGraph, build_sampled_graph
from ..network.sampling import (
    BatchSampleStats,
    ComputationSubgraph,
    computation_subgraphs_batch,
)
from .hag import HAG, prepare_aggregators
from .sao import neighbor_mean_matrix

__all__ = [
    "HAGState",
    "MaterializeStats",
    "SliceResult",
    "materialize",
    "materialize_fullgraph",
    "rematerialize",
    "score_slice",
]

#: ``meta`` array layout of a serialized state (see :meth:`HAGState.to_arrays`).
_META_LEN = 3
#: Prefix separating layer-state arrays from the fixed per-node columns.
_LAYER_PREFIX = "state:"


@dataclass(slots=True)
class HAGState:
    """Versioned per-node aggregation state of one lambda batch pass.

    Keyed on ``bn_version`` — the facade version of the BN the pass ran
    against; a served score is only meaningful relative to that graph
    state plus whatever delta the speed layer accounts on top.

    Per-node columns (aligned with the sorted ``node_ids``):

    * ``scores`` — the exact probability the fresh sampled path computes
      for the node's latest application at its audit time;
    * ``txn_ids`` / ``nows`` — the transaction and as-of time each score
      was computed for.  A request is only a cache hit when both match:
      the target feature row depends on them, so a newer transaction must
      fall through to the fresh path;
    * ``subgraph_indptr`` / ``subgraph_nodes`` — CSR over each target's
      sampled subgraph node set.  Staleness of a cached score is the
      number of delta edge touches that landed inside this set — a
      conservative superset of what could have changed the score, and
      exactly zero when no edges arrived.

    ``layers`` holds the full-graph pass artifacts: every SAO tower's
    layer-``k`` hidden state and the fused (CFO) embedding, keyed
    ``tower{t}.layer{k}`` / ``fused``, one row per ``node_ids`` entry.
    """

    bn_version: int
    hops: int
    fanout: int | None
    node_ids: np.ndarray
    scores: np.ndarray
    txn_ids: np.ndarray
    nows: np.ndarray
    subgraph_indptr: np.ndarray
    subgraph_nodes: np.ndarray
    layers: dict[str, np.ndarray] = field(default_factory=dict)
    _positions: dict[int, int] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        n = len(self.node_ids)
        if not len(self.scores) == len(self.txn_ids) == len(self.nows) == n:
            raise ValueError("per-node columns must share one length")
        if len(self.subgraph_indptr) != n + 1:
            raise ValueError("subgraph_indptr must have num_nodes + 1 entries")
        if n and np.any(np.diff(self.node_ids) <= 0):
            raise ValueError("node_ids must be strictly increasing")

    @property
    def num_nodes(self) -> int:
        """Targets covered by this state."""
        return len(self.node_ids)

    def position_of(self, uid: int) -> int | None:
        """Row of ``uid`` in the per-node columns (``None`` if uncovered)."""
        positions = self._positions
        if positions is None:
            positions = {int(u): i for i, u in enumerate(self.node_ids)}
            self._positions = positions
        return positions.get(int(uid))

    def subgraph_of(self, position: int) -> np.ndarray:
        """Node ids of the sampled subgraph behind ``scores[position]``."""
        lo = int(self.subgraph_indptr[position])
        hi = int(self.subgraph_indptr[position + 1])
        return self.subgraph_nodes[lo:hi]

    def lookup(self, uid: int, txn_id: int, now: float) -> tuple[float, int] | None:
        """Cached score for ``(uid, txn_id, now)``; ``None`` unless exact.

        Eligibility is exact by construction: the cached score was computed
        from the feature row of ``txn_ids[row]`` observed at ``nows[row]``,
        so any other transaction or as-of time must take the fresh path.
        """
        position = self.position_of(uid)
        if position is None:
            return None
        if int(self.txn_ids[position]) != int(txn_id):
            return None
        if float(self.nows[position]) != float(now):
            return None
        return float(self.scores[position]), position

    def staleness_of(self, position: int, touched: Mapping[int, int]) -> int:
        """Delta edge touches inside the target's cached subgraph node set.

        ``touched`` is :meth:`~repro.network.bn.BehaviorNetwork.delta_touched`
        (per-node counts since the batch pass).  Zero iff nothing the cached
        score could have seen changed — the bit-exactness guarantee.
        """
        if not touched:
            return 0
        return sum(
            touched.get(int(node), 0) for node in self.subgraph_of(position)
        )

    # ------------------------------------------------------------------
    # Serialization (storage checkpoints + shared-memory publication)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten to named numpy arrays (lossless; see :meth:`from_arrays`).

        The payload shape is what both backends want: a
        :class:`~repro.system.storage.LocalDatabase` ``put`` checkpoints
        the dict as one value, and a
        :class:`~repro.network.shm.SharedSnapshotStore` publishes each
        array as one zero-copy shared-memory region.
        """
        arrays = {
            "meta": np.asarray(
                [
                    self.bn_version,
                    self.hops,
                    -1 if self.fanout is None else self.fanout,
                ],
                dtype=np.int64,
            ),
            "node_ids": np.asarray(self.node_ids, dtype=np.int64),
            "scores": np.asarray(self.scores, dtype=np.float64),
            "txn_ids": np.asarray(self.txn_ids, dtype=np.int64),
            "nows": np.asarray(self.nows, dtype=np.float64),
            "subgraph_indptr": np.asarray(self.subgraph_indptr, dtype=np.int64),
            "subgraph_nodes": np.asarray(self.subgraph_nodes, dtype=np.int64),
        }
        for name, value in self.layers.items():
            arrays[_LAYER_PREFIX + name] = np.asarray(value)
        return arrays

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "HAGState":
        """Rebuild a state from :meth:`to_arrays` output (or a shm view)."""
        meta = np.asarray(arrays["meta"], dtype=np.int64)
        if len(meta) != _META_LEN:
            raise ValueError("malformed HAGState meta array")
        fanout = int(meta[2])
        return cls(
            bn_version=int(meta[0]),
            hops=int(meta[1]),
            fanout=None if fanout < 0 else fanout,
            node_ids=np.asarray(arrays["node_ids"], dtype=np.int64),
            scores=np.asarray(arrays["scores"], dtype=np.float64),
            txn_ids=np.asarray(arrays["txn_ids"], dtype=np.int64),
            nows=np.asarray(arrays["nows"], dtype=np.float64),
            subgraph_indptr=np.asarray(arrays["subgraph_indptr"], dtype=np.int64),
            subgraph_nodes=np.asarray(arrays["subgraph_nodes"], dtype=np.int64),
            layers={
                name[len(_LAYER_PREFIX):]: np.asarray(value)
                for name, value in arrays.items()
                if name.startswith(_LAYER_PREFIX)
            },
        )


def materialize(
    model: HAG,
    bn,
    targets: Sequence[int],
    txn_ids: Sequence[int],
    nows: Sequence[float],
    feature_fn: Callable[[int, Sequence[int]], np.ndarray],
    *,
    hops: int,
    fanout: int | None,
    edge_type_order: Sequence,
    allowed: set[int] | None = None,
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
    selection_cache: dict | None = None,
    chunk: int = 256,
    layer_features: np.ndarray | None = None,
) -> tuple[HAGState, BatchSampleStats]:
    """One full-graph batch pass; returns ``(state, sample_stats)``.

    ``targets`` / ``txn_ids`` / ``nows`` describe every node to precompute
    (they are sorted together by node id).  ``feature_fn(k, nodes)``
    returns the raw feature matrix for sorted-target ``k``'s subgraph
    ``nodes`` — exactly what the feature module would assemble for a live
    request on that transaction at that time; ``transform`` is the serving
    scaler (applied here so the replay matches the prediction server
    bit-for-bit).

    Scoring replays the serving path per target — union-frontier sampling
    (with the selection memoized per ``(node, type)`` across all targets)
    and the packed per-request-block forward — in ``chunk``-sized slices
    to bound peak memory; each slice is bit-exact per request regardless
    of slicing.

    ``layer_features`` (rows aligned with the sorted targets, already
    scaled) additionally runs one full-graph
    :meth:`~repro.core.hag.HAG.layer_states` pass over the induced
    full-graph adjacency and stores every tower's layer-``k`` hidden state
    plus the fused embedding in ``state.layers``.  ``None`` skips the
    layer pass (scores alone are enough to serve).
    """
    if not len(targets) == len(txn_ids) == len(nows):
        raise ValueError("targets, txn_ids and nows must share one length")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    node_ids = np.asarray(targets, dtype=np.int64)
    if len(node_ids) != len(np.unique(node_ids)):
        raise ValueError("targets must be unique")
    order = np.argsort(node_ids, kind="stable")
    node_ids = node_ids[order]
    txn_arr = np.asarray(txn_ids, dtype=np.int64)[order]
    now_arr = np.asarray(nows, dtype=np.float64)[order]

    subgraphs, stats = computation_subgraphs_batch(
        bn,
        node_ids.tolist(),
        hops=hops,
        fanout=fanout,
        allowed=allowed,
        selection_cache=selection_cache,
    )

    n = len(subgraphs)
    scores = np.zeros(n, dtype=np.float64)
    for start in range(0, n, chunk):
        block = subgraphs[start : start + chunk]
        matrices = []
        for offset, subgraph in enumerate(block):
            matrix = feature_fn(start + offset, subgraph.nodes)
            matrices.append(matrix if transform is None else transform(matrix))
        probabilities = model.predict_subgraphs(
            block, matrices, edge_type_order=edge_type_order
        )
        scores[start : start + len(block)] = probabilities

    sizes = np.asarray([subgraph.num_nodes for subgraph in subgraphs], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    flat_nodes = (
        np.concatenate(
            [np.asarray(subgraph.nodes, dtype=np.int64) for subgraph in subgraphs]
        )
        if subgraphs
        else np.empty(0, dtype=np.int64)
    )

    layers: dict[str, np.ndarray] = {}
    if layer_features is not None and n:
        layers = _layer_pass(
            model, bn, node_ids, layer_features, edge_type_order, None
        )

    state = HAGState(
        bn_version=int(bn.version),
        hops=int(hops),
        fanout=fanout,
        node_ids=node_ids,
        scores=scores,
        txn_ids=txn_arr,
        nows=now_arr,
        subgraph_indptr=indptr,
        subgraph_nodes=flat_nodes,
        layers=layers,
    )
    return state, stats


@dataclass(frozen=True, slots=True)
class MaterializeStats:
    """Work accounting for one :func:`materialize_fullgraph` /
    :func:`rematerialize` call.

    ``rows_computed`` counts target scores actually recomputed (the full
    pass recomputes all ``total_rows``; the incremental pass only the
    affected cone).  ``edges_touched`` counts induced per-target adjacency
    entries processed by the scoring replay.  ``cone_rows`` is the score
    cone's size in target rows (equals ``total_rows`` on a full pass),
    ``layer_rows`` the layer-state rows recomputed (0 when the layer pass
    is skipped).  ``slices`` is how many executor slices scored the sweep.
    """

    mode: str
    total_rows: int
    rows_computed: int
    edges_touched: int
    cone_rows: int
    layer_rows: int
    slices: int = 1

    @property
    def work_fraction(self) -> float:
        """Recomputed share of the covered rows (1.0 on a full pass)."""
        return self.rows_computed / max(1, self.total_rows)


@dataclass(frozen=True, slots=True)
class SliceResult:
    """One contiguous slice of a full-graph scoring sweep.

    Arrays are aligned with the slice's targets in sorted-target order:
    ``scores`` per target, ``indptr``/``flat_nodes`` the per-target sampled
    subgraph CSR (node *ids*), ``expanded`` the per-target count of BFS
    frontier nodes expanded (the first ``expanded[k]`` entries of row ``k``
    are exactly the expanded nodes), ``edges`` the induced adjacency
    entries processed.  Cheap to ship across processes: five flat arrays.
    """

    scores: np.ndarray
    indptr: np.ndarray
    flat_nodes: np.ndarray
    expanded: np.ndarray
    edges: int

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {
            "scores": np.asarray(self.scores, dtype=np.float64),
            "indptr": np.asarray(self.indptr, dtype=np.int64),
            "flat_nodes": np.asarray(self.flat_nodes, dtype=np.int64),
            "expanded": np.asarray(self.expanded, dtype=np.int64),
            "edges": np.asarray([self.edges], dtype=np.int64),
        }

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "SliceResult":
        return cls(
            scores=np.asarray(arrays["scores"], dtype=np.float64),
            indptr=np.asarray(arrays["indptr"], dtype=np.int64),
            flat_nodes=np.asarray(arrays["flat_nodes"], dtype=np.int64),
            expanded=np.asarray(arrays["expanded"], dtype=np.int64),
            edges=int(np.asarray(arrays["edges"])[0]),
        )


def _score_packed_chunk(
    model: HAG,
    matrices: Sequence[np.ndarray],
    sizes: Sequence[int],
    parts: Mapping,
    edge_type_order: Sequence,
) -> np.ndarray:
    """One packed forward over a chunk's pre-offset typed COO triples.

    The CFO fast path of :func:`score_slice`: equivalent to stacking each
    target's canonical per-type CSR block-diagonally
    (:meth:`~repro.core.hag.HAG.predict_subgraphs`), but the conversion to
    canonical CSR happens once per ``(chunk, type)``.  Bit-exact because
    the triples carry no duplicate coordinates — construction is placement,
    not summation — and every dense op downstream is row-local under
    ``nn.row_blocks``.
    """
    boundaries = np.concatenate(
        ([0], np.cumsum(np.asarray(sizes, dtype=np.int64)))
    )
    total = int(boundaries[-1])
    packed = np.vstack(matrices)
    adjacencies = []
    for btype in edge_type_order:
        triples = parts.get(btype, ())
        if triples:
            iu = np.concatenate([t[0] for t in triples])
            iv = np.concatenate([t[1] for t in triples])
            w = np.concatenate([t[2] for t in triples])
        else:
            iu = iv = np.empty(0, dtype=np.int64)
            w = np.empty(0, dtype=np.float64)
        adjacencies.append(
            sp.csr_matrix(
                (
                    np.concatenate([w, w]),
                    (np.concatenate([iu, iv]), np.concatenate([iv, iu])),
                ),
                shape=(total, total),
            )
        )
    aggregators = prepare_aggregators(adjacencies)
    with nn.row_blocks(boundaries):
        probabilities = model.predict_proba(packed, aggregators)
    return probabilities[boundaries[:-1]]


def score_slice(
    model: HAG,
    sampled: SampledGraph,
    uids: np.ndarray,
    indices: np.ndarray,
    feature_fn: Callable[[int, Sequence[int]], np.ndarray],
    *,
    hops: int,
    edge_type_order: Sequence,
    allowed_mask: np.ndarray | None,
    transform: Callable[[np.ndarray], np.ndarray] | None,
    chunk: int,
) -> SliceResult:
    """Replay the per-target serving path for ``uids[indices]`` off the
    sampled-adjacency CSR.

    Per-request semantics are identical to the union-frontier batch
    sampler: same BFS discovery order over the same memoized selections,
    same induced normalized adjacency bits, same packed per-request-block
    forward — but each target costs O(its subgraph) instead of O(union
    edge list), which is what makes the sweep scale.  ``feature_fn`` is
    called with the *global* sorted-target index (``indices[k]``), exactly
    like :func:`materialize` calls it.
    """
    indices = np.asarray(indices, dtype=np.int64)
    n = len(indices)
    positions = sampled.positions_of(uids[indices])
    types = sampled.types
    scores = np.zeros(n, dtype=np.float64)
    expanded = np.zeros(n, dtype=np.int64)
    node_arrays: list[np.ndarray] = []
    edges = 0
    expand_types = len(types) if hops >= 1 else 0
    # CFO models take one block-diagonal aggregator per type, so the whole
    # chunk's adjacency can be assembled as offset COO triples and converted
    # to canonical CSR once per (chunk, type) instead of once per (target,
    # type) — the dominant cost of the sweep.  Coordinates are unique (the
    # incidence pairs are deduplicated and loop-free), so the canonical CSR
    # is a pure placement of the same values with the same sorted-row
    # structure :func:`_block_diag_csr` produces: every downstream row-local
    # op sees identical bits.  The merged-adjacency (CFO-) path sums typed
    # matrices per subgraph, where scipy's operand order matters; it keeps
    # the per-target replay.
    packed_types = bool(getattr(model, "use_cfo", False))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block: list[ComputationSubgraph] = []
        matrices: list[np.ndarray] = []
        sizes_block: list[int] = []
        parts_block: dict = {btype: [] for btype in types}
        offset = 0
        for k in range(start, stop):
            pos = int(positions[k])
            uid = int(uids[indices[k]])
            if pos < 0:
                plist = np.asarray([-1], dtype=np.int64)
                nodes = np.asarray([uid], dtype=np.int64)
                expanded[k] = 1 if expand_types else 0
            else:
                plist, exp = sampled.subgraph_positions(pos, hops, allowed_mask)
                nodes = sampled.node_ids[plist]
                expanded[k] = exp if expand_types else 0
            entries = sampled.induced_entries(plist, types)
            size = len(plist)
            if packed_types:
                for btype in types:
                    iu, iv, w = entries[btype]
                    edges += len(w)
                    if len(w):
                        # induced_entries reuses scratch: copy now.
                        parts_block[btype].append(
                            (iu + offset, iv + offset, w.copy())
                        )
                offset += size
                sizes_block.append(size)
            else:
                adjacency: dict = {}
                for btype in types:
                    iu, iv, w = entries[btype]
                    edges += len(w)
                    adjacency[btype] = sp.csr_matrix(
                        (
                            np.concatenate([w, w]),
                            (np.concatenate([iu, iv]), np.concatenate([iv, iu])),
                        ),
                        shape=(size, size),
                    )
                block.append(
                    ComputationSubgraph(
                        target=uid, nodes=nodes, adjacency=adjacency
                    )
                )
            matrix = feature_fn(int(indices[k]), nodes)
            matrices.append(matrix if transform is None else transform(matrix))
            node_arrays.append(nodes)
        if packed_types:
            scores[start:stop] = _score_packed_chunk(
                model, matrices, sizes_block, parts_block, edge_type_order
            )
        else:
            probabilities = model.predict_subgraphs(
                block, matrices, edge_type_order=edge_type_order
            )
            scores[start:stop] = probabilities
    sizes = np.asarray([len(a) for a in node_arrays], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    flat = (
        np.concatenate(node_arrays) if node_arrays else np.empty(0, dtype=np.int64)
    )
    return SliceResult(
        scores=scores, indptr=indptr, flat_nodes=flat, expanded=expanded, edges=edges
    )


def _layer_adjacency(
    model: HAG, bn, node_ids: np.ndarray, edge_type_order: Sequence
) -> list[sp.csr_matrix]:
    """Raw per-aggregator adjacency of the full-graph layer pass.

    One matrix per SAO tower: the induced normalized typed adjacencies in
    ``edge_type_order``, or their sum for the CFO(-) single-tower ablation.
    """
    types = tuple(edge_type_order)
    adjacency = typed_adjacency(bn, node_ids.tolist(), types, normalize=True)
    if model.use_cfo:
        return [adjacency[t] for t in types]
    # The CFO(-) ablation runs one tower on the merged graph; sum the
    # typed matrices so the layer pass matches its forward.
    merged = adjacency[types[0]]
    for btype in types[1:]:
        merged = merged + adjacency[btype]
    return [merged.tocsr()]


def _layer_pass(
    model: HAG,
    bn,
    node_ids: np.ndarray,
    layer_features: np.ndarray,
    edge_type_order: Sequence,
    observer: Callable[[str], None] | None,
) -> dict[str, np.ndarray]:
    """One full-graph :meth:`~repro.core.hag.HAG.layer_states` pass."""
    if layer_features.shape[0] != len(node_ids):
        raise ValueError("layer_features rows must align with sorted targets")
    aggregators = prepare_aggregators(
        _layer_adjacency(model, bn, node_ids, edge_type_order)
    )
    model.eval()
    with nn.no_grad():
        fused, states = model.layer_states(
            Tensor(layer_features), aggregators, observer
        )
    model.train()
    layers: dict[str, np.ndarray] = {}
    for t, tower_states in enumerate(states):
        for k, hidden in enumerate(tower_states):
            layers[f"tower{t}.layer{k}"] = hidden.numpy()
    layers["fused"] = fused.numpy()
    return layers


def _sample_stats(
    results: Sequence[SliceResult], n_types: int, requests: int
) -> BatchSampleStats:
    """Scalar-path-equivalent :class:`BatchSampleStats` for a sweep.

    ``expansions`` counts ``(node, type)`` frontier expansions exactly like
    the union sampler (every expanded node costs one per traversed type);
    ``unique_expansions`` counts distinct such pairs across the sweep.
    """
    flats = [r.flat_nodes for r in results if len(r.flat_nodes)]
    sampled_nodes = int(sum(len(f) for f in flats))
    unique_nodes = int(len(np.unique(np.concatenate(flats)))) if flats else 0
    expansions = 0
    expanded_parts: list[np.ndarray] = []
    for r in results:
        expansions += int(r.expanded.sum()) * n_types
        if len(r.expanded):
            gid_indptr, gidx = csr_gather_rows_with_counts(r.indptr, r.expanded)
            expanded_parts.append(r.flat_nodes[gidx])
    unique_expanded = (
        int(len(np.unique(np.concatenate(expanded_parts)))) if expanded_parts else 0
    )
    return BatchSampleStats(
        requests=requests,
        sampled_nodes=sampled_nodes,
        unique_nodes=unique_nodes,
        expansions=expansions,
        unique_expansions=unique_expanded * n_types,
    )


def csr_gather_rows_with_counts(
    indptr: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather the first ``counts[r]`` entries of every CSR row ``r``."""
    starts = indptr[:-1]
    counts = np.minimum(np.asarray(counts, dtype=np.int64), np.diff(indptr))
    out_indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out_indptr[1:])
    total = int(out_indptr[-1])
    if not total:
        return out_indptr, np.empty(0, dtype=np.int64)
    gidx = (
        np.arange(total, dtype=np.int64)
        - np.repeat(out_indptr[:-1], counts)
        + np.repeat(starts, counts)
    )
    return out_indptr, gidx


def materialize_fullgraph(
    model: HAG,
    bn,
    targets: Sequence[int],
    txn_ids: Sequence[int],
    nows: Sequence[float],
    feature_fn: Callable[[int, Sequence[int]], np.ndarray],
    *,
    hops: int,
    fanout: int | None,
    edge_type_order: Sequence,
    allowed: set[int] | None = None,
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
    sampled: SampledGraph | None = None,
    chunk: int = 256,
    layer_features: np.ndarray | None = None,
    executor: Callable[
        [Sequence[tuple[int, int]]], Sequence[SliceResult | None]
    ] | None = None,
    slices: int = 1,
    observer: Callable[[str], None] | None = None,
) -> tuple[HAGState, BatchSampleStats, MaterializeStats]:
    """Full-graph batch pass off the global sampled-adjacency CSR.

    Produces the same :class:`HAGState` contract as :func:`materialize` —
    per-target scores bit-exact with the serving replay (pinned by tests
    and the ``BENCH_lambda_fullgraph`` gates), identical layer-state
    arrays from the same full-graph layer pass — but replaces the union
    sampler's O(targets x union-edges) per-request masking with
    O(sum subgraph size) gathers off the :class:`SampledGraph`, which is
    what lets the sweep scale to millions of users.

    ``executor`` (optional) shards the scoring sweep: it receives the
    ``slices`` contiguous ``(lo, hi)`` bounds over the sorted targets and
    returns one :class:`SliceResult` per bound (``None`` means that worker
    died; the slice is recomputed in-process — degrade, don't die).  The
    :class:`~repro.system.shard_workers.ShardWorkerPool` provides one via
    ``lambda_materialize_executor``.  ``observer`` receives stage names
    (``"scores"``, each layer, ``"fused"``) as they complete.
    """
    if not len(targets) == len(txn_ids) == len(nows):
        raise ValueError("targets, txn_ids and nows must share one length")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    node_ids = np.asarray(targets, dtype=np.int64)
    if len(node_ids) != len(np.unique(node_ids)):
        raise ValueError("targets must be unique")
    order = np.argsort(node_ids, kind="stable")
    node_ids = node_ids[order]
    txn_arr = np.asarray(txn_ids, dtype=np.int64)[order]
    now_arr = np.asarray(nows, dtype=np.float64)[order]

    if sampled is None:
        sampled = build_sampled_graph(bn, fanout)
    if sampled.version != int(bn.version):
        raise ValueError("sampled graph version does not match bn.version")
    if sampled.fanout != fanout:
        raise ValueError("sampled graph fanout does not match the request")
    allowed_mask = sampled.allowed_mask(allowed)

    n = len(node_ids)
    if executor is not None and slices > 1 and n:
        cuts = np.linspace(0, n, slices + 1).astype(np.int64)
        bounds = [
            (int(cuts[i]), int(cuts[i + 1]))
            for i in range(slices)
            if cuts[i] < cuts[i + 1]
        ]
    else:
        bounds = [(0, n)]
    results: list[SliceResult | None]
    if executor is not None and len(bounds) > 1:
        results = list(executor(bounds))
    else:
        results = [None] * len(bounds)
    for i, (lo, hi) in enumerate(bounds):
        if results[i] is None:
            results[i] = score_slice(
                model,
                sampled,
                node_ids,
                np.arange(lo, hi, dtype=np.int64),
                feature_fn,
                hops=hops,
                edge_type_order=edge_type_order,
                allowed_mask=allowed_mask,
                transform=transform,
                chunk=chunk,
            )
    slice_results: list[SliceResult] = results  # type: ignore[assignment]
    if observer is not None:
        observer("scores")

    scores = (
        np.concatenate([r.scores for r in slice_results])
        if slice_results
        else np.empty(0, dtype=np.float64)
    )
    flat_nodes = (
        np.concatenate([r.flat_nodes for r in slice_results])
        if slice_results
        else np.empty(0, dtype=np.int64)
    )
    sizes_parts = [np.diff(r.indptr) for r in slice_results]
    sizes = (
        np.concatenate(sizes_parts) if sizes_parts else np.empty(0, dtype=np.int64)
    )
    indptr = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    stats = _sample_stats(slice_results, len(sampled.types), n)

    layers: dict[str, np.ndarray] = {}
    if layer_features is not None and n:
        layers = _layer_pass(
            model, bn, node_ids, layer_features, edge_type_order, observer
        )

    state = HAGState(
        bn_version=int(bn.version),
        hops=int(hops),
        fanout=fanout,
        node_ids=node_ids,
        scores=scores,
        txn_ids=txn_arr,
        nows=now_arr,
        subgraph_indptr=indptr,
        subgraph_nodes=flat_nodes,
        layers=layers,
    )
    mstats = MaterializeStats(
        mode="full",
        total_rows=n,
        rows_computed=n,
        edges_touched=int(sum(r.edges for r in slice_results)),
        cone_rows=n,
        layer_rows=n if layers else 0,
        slices=len(bounds),
    )
    return state, stats, mstats


def rematerialize(
    model: HAG,
    bn,
    prior: HAGState,
    targets: Sequence[int],
    txn_ids: Sequence[int],
    nows: Sequence[float],
    feature_fn: Callable[[int, Sequence[int]], np.ndarray],
    *,
    hops: int,
    fanout: int | None,
    edge_type_order: Sequence,
    allowed: set[int] | None = None,
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
    sampled: SampledGraph | None = None,
    chunk: int = 256,
    touched: Mapping[int, int] | None = None,
    layer_row_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    observer: Callable[[str], None] | None = None,
) -> tuple[HAGState, BatchSampleStats, MaterializeStats]:
    """Incremental batch pass: recompute only the delta's affected cone.

    ``prior`` is the state of an *ancestor* version of ``bn`` computed with
    the same ``hops``/``fanout``; ``touched`` is
    :meth:`~repro.network.bn.BehaviorNetwork.delta_touched` accumulated
    since that pass.  The affected cone is every target that can reach a
    touched node within ``hops`` steps of the **current** selection graph
    (reverse-BFS over :class:`SampledGraph`), plus targets whose feature
    provenance changed (new transaction / as-of time) and targets new to
    the sweep.  Anything outside the cone kept its selection rows, induced
    adjacency (weights *and* degrees), and feature rows — so its cached
    score and subgraph row are copied bit-for-bit.

    Layer states are spliced the same way: rows within ``L`` undirected
    hops of a seed (over the target-induced adjacency, ``L`` = SAO depth)
    are recomputed through the rectangular
    :meth:`~repro.core.hag.HAG.layer_states_rows` path — fed by
    ``layer_row_fn(global_rows) -> scaled feature rows`` for the cone's
    layer-0 inputs — and all other rows are byte-copies of ``prior``.
    Raises ``ValueError`` when ``prior`` is not a valid ancestor
    (hops/fanout mismatch, or missing layer arrays while the model expects
    them) — callers fall back to :func:`materialize_fullgraph`.
    """
    if int(prior.hops) != int(hops) or prior.fanout != fanout:
        raise ValueError("prior state hops/fanout do not match the request")
    if not len(targets) == len(txn_ids) == len(nows):
        raise ValueError("targets, txn_ids and nows must share one length")
    node_ids = np.asarray(targets, dtype=np.int64)
    if len(node_ids) != len(np.unique(node_ids)):
        raise ValueError("targets must be unique")
    order = np.argsort(node_ids, kind="stable")
    node_ids = node_ids[order]
    txn_arr = np.asarray(txn_ids, dtype=np.int64)[order]
    now_arr = np.asarray(nows, dtype=np.float64)[order]
    n = len(node_ids)

    if sampled is None:
        sampled = build_sampled_graph(bn, fanout)
    if sampled.version != int(bn.version):
        raise ValueError("sampled graph version does not match bn.version")
    if sampled.fanout != fanout:
        raise ValueError("sampled graph fanout does not match the request")
    allowed_mask = sampled.allowed_mask(allowed)

    want_layers = bool(prior.layers) and layer_row_fn is not None
    if want_layers:
        expected = [
            f"tower{t}.layer{k}"
            for t in range(model.n_types)
            for k in range(len(model.hidden))
        ] + ["fused"]
        if any(name not in prior.layers for name in expected):
            raise ValueError("prior state lacks the model's layer arrays")

    # --- map new targets onto prior rows --------------------------------
    prior_rows = np.searchsorted(prior.node_ids, node_ids)
    prior_rows = np.minimum(prior_rows, max(prior.num_nodes - 1, 0))
    has_prior = (
        (prior.node_ids[prior_rows] == node_ids)
        if prior.num_nodes
        else np.zeros(n, dtype=bool)
    )
    provenance_changed = has_prior & (
        (txn_arr != prior.txn_ids[prior_rows])
        | (now_arr != prior.nows[prior_rows])
    )
    target_seeds = provenance_changed | ~has_prior

    # --- affected cone over the current selection graph -----------------
    touched = touched or {}
    touched_uids = (
        np.fromiter(touched.keys(), dtype=np.int64, count=len(touched))
        if touched
        else np.empty(0, dtype=np.int64)
    )
    target_positions = sampled.positions_of(node_ids)
    seed_positions = np.concatenate(
        [
            sampled.positions_of(touched_uids),
            target_positions[target_seeds],
        ]
    )
    seed_positions = seed_positions[seed_positions >= 0]
    cone_mask = np.zeros(sampled.num_nodes, dtype=bool)
    if len(seed_positions):
        cone_mask[sampled.reverse_reachable(seed_positions, hops)] = True
    affected = target_seeds | ((target_positions >= 0) & cone_mask[target_positions])
    affected_idx = np.flatnonzero(affected)

    result = score_slice(
        model,
        sampled,
        node_ids,
        affected_idx,
        feature_fn,
        hops=hops,
        edge_type_order=edge_type_order,
        allowed_mask=allowed_mask,
        transform=transform,
        chunk=chunk,
    )
    if observer is not None:
        observer("scores")

    # --- splice scores + subgraph CSR -----------------------------------
    scores = np.zeros(n, dtype=np.float64)
    keep_idx = np.flatnonzero(~affected)
    if len(keep_idx) and not np.all(has_prior[keep_idx]):
        raise ValueError("unaffected target missing from the prior state")
    scores[keep_idx] = prior.scores[prior_rows[keep_idx]]
    scores[affected_idx] = result.scores
    sizes = np.zeros(n, dtype=np.int64)
    sizes[affected_idx] = np.diff(result.indptr)
    kept_prior = prior_rows[keep_idx]
    sizes[keep_idx] = (
        prior.subgraph_indptr[kept_prior + 1] - prior.subgraph_indptr[kept_prior]
    )
    indptr = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    flat_nodes = np.empty(int(indptr[-1]), dtype=np.int64)
    _, gidx_a = csr_gather_rows(indptr, affected_idx)
    flat_nodes[gidx_a] = result.flat_nodes
    _, gidx_k = csr_gather_rows(indptr, keep_idx)
    _, src_k = csr_gather_rows(prior.subgraph_indptr, kept_prior)
    flat_nodes[gidx_k] = prior.subgraph_nodes[src_k]
    stats = _sample_stats([result], len(sampled.types), len(affected_idx))

    # --- splice layer states --------------------------------------------
    def mapped(name: str) -> np.ndarray:
        """Prior layer array re-rowed onto the new target ordering."""
        src = prior.layers[name]
        out = np.zeros((n, src.shape[1]), dtype=src.dtype)
        out[has_prior] = src[prior_rows[has_prior]]
        return out

    layers: dict[str, np.ndarray] = {}
    layer_rows = 0
    if want_layers and n:
        depth = len(model.hidden)
        member_mask = np.zeros(sampled.num_nodes, dtype=bool)
        registered = target_positions >= 0
        member_mask[target_positions[registered]] = True
        # graph position -> target row for registered targets
        row_of_position = np.full(sampled.num_nodes, -1, dtype=np.int64)
        row_of_position[target_positions[registered]] = np.flatnonzero(registered)
        cone_positions = (
            sampled.undirected_reachable(seed_positions, depth, member_mask)
            if len(seed_positions)
            else np.empty(0, dtype=np.int64)
        )
        rows_mask = np.zeros(n, dtype=bool)
        rows_mask[row_of_position[cone_positions]] = True
        # unregistered provenance-changed/new targets have no graph
        # position but still need fresh (isolated) layer rows
        rows_mask |= target_seeds & ~registered
        rows = np.flatnonzero(rows_mask)
        layer_rows = len(rows)

        if len(rows):
            mats = _layer_adjacency(model, bn, node_ids, edge_type_order)
            rect_aggregators = [
                nn.PreparedAggregator(neighbor_mean_matrix(m)[rows])
                for m in mats
            ]
            need = np.zeros(n, dtype=bool)
            need[rows] = True
            for agg in rect_aggregators:
                need[np.unique(agg.matrix.indices)] = True
            need_rows = np.flatnonzero(need)
            x_full = np.zeros((n, model.in_dim), dtype=np.float64)
            x_full[need_rows] = layer_row_fn(need_rows)

            assembled = {
                name: mapped(name) for name in prior.layers if name != "fused"
            }

            def inputs_fn(t: int, k: int, fresh_prev: np.ndarray | None):
                if k == 0:
                    return x_full
                arr = assembled[f"tower{t}.layer{k - 1}"]
                arr[rows] = fresh_prev
                return arr

            model.eval()
            with nn.no_grad():
                fused, states = model.layer_states_rows(
                    rows, inputs_fn, rect_aggregators, observer
                )
            model.train()
            for t, tower_states in enumerate(states):
                for k, hidden in enumerate(tower_states):
                    name = f"tower{t}.layer{k}"
                    arr = assembled[name]
                    arr[rows] = hidden.numpy()
                    layers[name] = arr
            fused_full = mapped("fused")
            fused_full[rows] = fused.numpy()
            layers["fused"] = fused_full
        else:
            layers = {name: mapped(name) for name in prior.layers}
            if observer is not None:
                observer("fused")
    elif prior.layers and n:
        # Scores-only refresh (no layer_row_fn): carry the prior arrays
        # over, re-rowed onto the new target ordering (new targets get
        # zero rows — they have no checkpointed layer state yet).
        layers = {name: mapped(name) for name in prior.layers}

    state = HAGState(
        bn_version=int(bn.version),
        hops=int(hops),
        fanout=fanout,
        node_ids=node_ids,
        scores=scores,
        txn_ids=txn_arr,
        nows=now_arr,
        subgraph_indptr=indptr,
        subgraph_nodes=flat_nodes,
        layers=layers,
    )
    mstats = MaterializeStats(
        mode="incremental",
        total_rows=n,
        rows_computed=len(affected_idx),
        edges_touched=result.edges,
        cone_rows=len(affected_idx),
        layer_rows=layer_rows,
    )
    return state, stats, mstats
