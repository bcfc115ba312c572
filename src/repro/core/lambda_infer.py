"""Lambda-architecture batch layer: checkpointable per-target HAG scores.

Turbo's paper serves every request by sampling a fresh k-hop subgraph and
running full HAG inference.  *BRIGHT* and *GNNs in Real-Time Fraud Detection
with Lambda Architecture* (PAPERS.md) split the same workload into a **batch
layer** that periodically precomputes per-node aggregation state over the
full BN, and a **speed layer** that answers requests from that state plus
only the edges ingested since the last batch pass.

This module is the batch layer's core: storage- and serving-agnostic.

* :class:`HAGState` — the versioned, serializable per-node state one batch
  pass produces: exact replayed scores, the feature provenance that gates
  cache hits (which transaction/time each score was computed for) and the
  sampled-subgraph membership CSR that prices staleness.  Round-trips
  losslessly through a flat ``dict[str, np.ndarray]``
  (:meth:`HAGState.to_arrays` / :meth:`HAGState.from_arrays`), which is
  exactly what :class:`~repro.system.storage.LocalDatabase` checkpoints;
  a payload that does not describe a consistent state is rejected with
  ``ValueError`` at that boundary.

* :func:`materialize` — the one batch pass.  It recomputes the *cone* of
  its seeds (nodes touched since a ``prior`` state, targets whose feature
  provenance moved, targets new to the sweep) and byte-copies every other
  row from the prior; with no prior every target is a seed, the cone is
  everything and the pass is a full sweep.  :func:`score_slice` scores
  each target through the serving path itself: the BFS over the read
  index's selection (``bn.index().selection(fanout)``, ranked once per BN
  version), the index's one inducer and :meth:`~repro.core.hag.HAG.predict_subgraphs`,
  so a cached score is *bit-exact* with what the fresh sampled path would
  compute.  A full-graph embedding cache could not promise that, because
  the sampled path's aggregation is row-normalized within each target's
  own fanout-truncated subgraph.

The speed layer that serves from this state lives in
:mod:`repro.system.lambda_layer`; staleness accounting rides on
:meth:`repro.network.bn.BehaviorNetwork.track_deltas`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..nn.sparse import csr_gather_rows
from ..network.sampling import BatchSampleStats, ComputationSubgraph, _bfs_positions
from ..network.sharding import ShardIndex
from ..network.snapshot import positions_of
from .hag import HAG

__all__ = [
    "HAGState",
    "MaterializeStats",
    "materialize",
]

#: ``meta`` array layout of a serialized state (see :meth:`HAGState.to_arrays`).
_META_LEN = 3
#: The arrays of a serialized state.
_COLUMNS = (
    "meta",
    "allowed",
    "node_ids",
    "scores",
    "txn_ids",
    "nows",
    "subgraph_indptr",
    "subgraph_nodes",
)
#: Targets that share one :meth:`~repro.core.hag.HAG.predict_subgraphs` in
#: :func:`score_slice`.  Scores do not depend on it (dense products run per
#: request block under ``nn.row_blocks``), so a larger pack buys no larger
#: GEMM, only a larger block-diagonal adjacency: 32 measured fastest
#: (``docs/PERFORMANCE.md``).
SCORE_CHUNK = 32


def allowed_digest(allowed: set[int] | None) -> str | None:
    """sha256 of a sampling policy's ``allowed`` set as sorted int64 uids
    (``None`` for no restriction): what a :class:`HAGState` records of it."""
    if allowed is None:
        return None
    uids = np.sort(np.fromiter(allowed, dtype=np.int64, count=len(allowed)))
    return hashlib.sha256(uids.tobytes()).hexdigest()


@dataclass(slots=True)
class HAGState:
    """Versioned per-node state of one lambda batch pass: scores, provenance
    and sampled subgraphs.

    Keyed on ``bn_version`` — the version of the BN the pass ran
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

    ``allowed`` is the :func:`allowed_digest` of the sampling policy's
    ``allowed`` set: the BFS skips every node outside it, so a state
    scored under another set is not what this policy's fresh path
    computes, however equal ``hops`` / ``fanout`` are.

    Construction validates that the columns describe one consistent state
    (``ValueError`` naming the offending array otherwise) — a truncated or
    corrupt checkpoint must not come back as a state whose empty subgraph
    rows price every score at zero staleness.
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
    allowed: str | None = None
    _positions: dict[int, int] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        n = len(self.node_ids)
        for name in ("scores", "txn_ids", "nows"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have one entry per node_ids entry")
        if n and np.any(np.diff(self.node_ids) <= 0):
            raise ValueError("node_ids must be strictly increasing")
        indptr = self.subgraph_indptr
        if len(indptr) != n + 1:
            raise ValueError("subgraph_indptr must have num_nodes + 1 entries")
        if int(indptr[0]) != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError("subgraph_indptr must start at 0 and never decrease")
        if len(self.subgraph_nodes) != int(indptr[-1]):
            raise ValueError(
                "subgraph_nodes must hold exactly subgraph_indptr[-1] entries"
            )
        scores = np.asarray(self.scores, dtype=np.float64)
        if not np.all((scores >= 0.0) & (scores <= 1.0)):  # NaN fails both
            raise ValueError("scores must be probabilities in [0, 1]")

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
    # Serialization (storage checkpoints)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten to named numpy arrays (lossless; see :meth:`from_arrays`).

        A :class:`~repro.system.storage.LocalDatabase` ``put`` checkpoints
        the dict as one value.
        """
        return {
            "meta": np.asarray(
                [
                    self.bn_version,
                    self.hops,
                    -1 if self.fanout is None else self.fanout,
                ],
                dtype=np.int64,
            ),
            # The digest's 32 bytes; empty for an unrestricted policy.
            "allowed": np.frombuffer(
                b"" if self.allowed is None else bytes.fromhex(self.allowed),
                dtype=np.uint8,
            ),
            "node_ids": np.asarray(self.node_ids, dtype=np.int64),
            "scores": np.asarray(self.scores, dtype=np.float64),
            "txn_ids": np.asarray(self.txn_ids, dtype=np.int64),
            "nows": np.asarray(self.nows, dtype=np.float64),
            "subgraph_indptr": np.asarray(self.subgraph_indptr, dtype=np.int64),
            "subgraph_nodes": np.asarray(self.subgraph_nodes, dtype=np.int64),
        }

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "HAGState":
        """Rebuild a state from :meth:`to_arrays` output.

        Raises ``ValueError`` when an array is missing (an older checkpoint
        without the ``allowed`` digest, whose policy is unknown), when one
        is not a state column (an older checkpoint's ``state:*`` layer
        arrays), or when the arrays do not describe a consistent state
        (see the class docstring).
        """
        missing = [name for name in _COLUMNS if name not in arrays]
        if missing:
            raise ValueError(f"HAGState payload lacks array(s) {missing}")
        unknown = next((name for name in arrays if name not in _COLUMNS), None)
        if unknown is not None:
            raise ValueError(f"HAGState payload carries array {unknown!r}, not a state column")
        meta = np.asarray(arrays["meta"], dtype=np.int64)
        if len(meta) != _META_LEN:
            raise ValueError("malformed HAGState meta array")
        fanout = int(meta[2])
        digest = np.asarray(arrays["allowed"], dtype=np.uint8)
        if len(digest) not in (0, 32):
            raise ValueError("malformed HAGState allowed digest")
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
            allowed=digest.tobytes().hex() if len(digest) else None,
        )


@dataclass(frozen=True, slots=True)
class MaterializeStats:
    """Work accounting for one :func:`materialize` call.

    ``mode`` is ``"full"`` for a pass without a prior state and
    ``"incremental"`` for one with.  ``rows_computed`` counts target
    scores actually recomputed (all ``total_rows`` without a prior, only
    the affected cone with one).  ``edges_touched`` counts induced
    per-target adjacency entries processed by the scoring replay.
    ``slices`` is how many executor slices scored the sweep.
    """

    mode: str
    total_rows: int
    rows_computed: int
    edges_touched: int
    slices: int = 1


@dataclass(frozen=True, slots=True)
class SliceResult:
    """One :func:`score_slice` result — a contiguous slice of a sweep.

    Arrays are aligned with the slice's targets in sorted-target order:
    ``scores`` per target, ``indptr``/``flat_nodes`` the per-target sampled
    subgraph CSR (node *ids*), ``edges`` the induced adjacency entries
    processed.  Cheap to ship across processes: three flat arrays and an
    int, pickled over a forked child's pipe.
    """

    scores: np.ndarray
    indptr: np.ndarray
    flat_nodes: np.ndarray
    edges: int


def score_slice(
    model: HAG,
    index: ShardIndex,
    uids: np.ndarray,
    indices: np.ndarray,
    feature_fn: Callable[[int, Sequence[int]], np.ndarray],
    *,
    hops: int,
    fanout: int | None,
    edge_type_order: Sequence,
    allowed: set[int] | None,
    transform: Callable[[np.ndarray], np.ndarray] | None,
) -> SliceResult:
    """Score ``uids[indices]`` through the serving path, one target at a time.

    Each target is a request of its own, as the paper serves it: its BFS
    (:func:`~repro.network.sampling._bfs_positions`) over
    ``index.selection(fanout)``, its adjacency from the index's one
    inducer (:meth:`~repro.network.sharding.ShardIndex.induced_entries`),
    and :data:`SCORE_CHUNK` targets share one
    :meth:`~repro.core.hag.HAG.predict_subgraphs`, bit for bit what each
    would score alone.  ``feature_fn`` is called with the *global*
    sorted-target index (``indices[k]``).
    """
    indices = np.asarray(indices, dtype=np.int64)
    selection = index.selection(fanout)
    roots = positions_of(index.node_ids, uids[indices])
    scores: list[float] = []
    node_arrays: list[np.ndarray] = []
    edges = 0
    for start in range(0, len(indices), SCORE_CHUNK):
        subgraphs, matrices = [], []
        for i, k in enumerate(indices[start : start + SCORE_CHUNK].tolist(), start):
            root = roots[i : i + 1]
            positions, _ = _bfs_positions(selection, index.node_ids, root, hops, allowed)
            nodes = index.node_ids[positions] if root[0] >= 0 else uids[k : k + 1]
            entries = index.induced_entries(positions)
            edges += len(entries[2])
            subgraphs.append(
                ComputationSubgraph(int(uids[k]), nodes, types=index.types, entries=entries)
            )
            matrix = feature_fn(k, nodes)
            matrices.append(matrix if transform is None else transform(matrix))
            node_arrays.append(nodes)
        scores += model.predict_subgraphs(subgraphs, matrices, edge_type_order)
    indptr = np.zeros(len(indices) + 1, dtype=np.int64)
    np.cumsum([len(a) for a in node_arrays], out=indptr[1:])
    return SliceResult(
        scores=np.asarray(scores, dtype=np.float64),
        indptr=indptr,
        flat_nodes=np.concatenate([np.empty(0, dtype=np.int64), *node_arrays]),
        edges=edges,
    )


def _sample_stats(results: Sequence[SliceResult], requests: int) -> BatchSampleStats:
    """Scalar-path-equivalent :class:`BatchSampleStats` for a sweep."""
    flat = np.concatenate([np.empty(0, dtype=np.int64), *(r.flat_nodes for r in results)])
    return BatchSampleStats(
        requests=requests, sampled_nodes=len(flat), unique_nodes=len(np.unique(flat))
    )


def _score_cone(
    selection: tuple[np.ndarray, np.ndarray], seeds: np.ndarray, hops: int
) -> np.ndarray:
    """Mask of the positions that can reach a seed within ``hops`` selection steps.

    This is the *score cone*: a target whose BFS tree cannot reach any
    touched node within ``hops`` hops of the current selection graph has a
    subgraph made entirely of untouched nodes — whose selection rows,
    induced entries (degrees included) and feature rows are all unchanged
    — so its replayed score is bit-identical.  Seeds themselves are
    included.  The walk runs over the selection reversed (who selects me).
    """
    indptr, nbr = selection
    n = len(indptr) - 1
    by_nbr = np.argsort(nbr, kind="stable")
    selector = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))[by_nbr]
    rev_indptr = np.searchsorted(nbr[by_nbr], np.arange(n + 1, dtype=np.int64))
    reached = np.zeros(n, dtype=bool)
    frontier = np.unique(seeds)
    reached[frontier] = True
    for _ in range(hops):
        frontier = np.unique(selector[csr_gather_rows(rev_indptr, frontier)[1]])
        frontier = frontier[~reached[frontier]]
        reached[frontier] = True
    return reached


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
    prior: HAGState | None = None,
    touched: Mapping[int, int] | None = None,
    executor: Callable[
        [Callable[[tuple[int, int]], SliceResult], Sequence[tuple[int, int]]],
        Sequence[SliceResult | None],
    ] | None = None,
    slices: int = 1,
) -> tuple[HAGState, BatchSampleStats, MaterializeStats]:
    """One batch pass: recompute the cone of the seeds, copy the rest.

    ``targets`` / ``txn_ids`` / ``nows`` describe every node to precompute
    (they are sorted together by node id).  ``feature_fn(k, nodes)``
    returns the raw feature matrix for sorted-target ``k``'s subgraph
    ``nodes`` — exactly what the feature module would assemble for a live
    request on that transaction at that time; ``transform`` is the serving
    scaler (applied here so the replay matches the prediction server
    bit-for-bit).  The pass reads ``bn.index()``, the network's read index
    of its current version, and its selection for ``fanout``.

    **Seeds** are the nodes ``touched`` since ``prior`` was computed
    (:meth:`~repro.network.bn.BehaviorNetwork.delta_touched`) plus every
    target ``prior`` does not cover with the same transaction and as-of
    time.  Without a ``prior`` every target is a seed, the cone is the
    whole target set and the pass is a full sweep (``mode == "full"``):
    a pass whose targets are all seeds builds no cone.
    ``prior`` must be the state of an *ancestor* version of ``bn`` under
    the same ``hops`` / ``fanout`` / ``allowed`` (``ValueError`` for a
    different policy and for a version ``bn`` has not reached).

    The **score cone** is every target that can reach a seed within
    ``hops`` steps of the current selection graph (reverse BFS over the
    index's selection).  Those targets are rescored through
    :func:`score_slice`; anything outside kept its selection rows,
    induced adjacency (weights *and* degrees) and feature rows, so its
    score and subgraph row are copied from ``prior`` bit-for-bit.

    ``executor`` (optional) shards the scoring of a sweep whose cone is
    the whole target range: ``executor(score, bounds)`` receives the
    closure that scores one ``(lo, hi)`` slice of the sorted targets and
    the ``slices`` contiguous bounds, and returns one :class:`SliceResult`
    per bound (``None`` means that slice was lost; it is recomputed
    in-process — degrade, don't die).
    :func:`~repro.system.fork_pool.fork_map` is one: it scores the slices
    in forked children that inherit every input.
    """
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

    index = bn.index()
    selection = index.selection(fanout)
    digest = allowed_digest(allowed)

    if prior is not None:
        if int(prior.hops) != int(hops) or prior.fanout != fanout:
            raise ValueError("prior state hops/fanout do not match the request")
        if prior.allowed != digest:
            raise ValueError("prior state's allowed set does not match the request")
        if int(prior.bn_version) > int(bn.version):
            raise ValueError("prior state's bn_version is newer than bn.version")

    # --- seeds: targets the prior does not cover with this provenance -----
    if prior is not None and prior.num_nodes:
        prior_rows = np.minimum(
            np.searchsorted(prior.node_ids, node_ids), prior.num_nodes - 1
        )
        has_prior = prior.node_ids[prior_rows] == node_ids
        target_seeds = (
            ~has_prior
            | (txn_arr != prior.txn_ids[prior_rows])
            | (now_arr != prior.nows[prior_rows])
        )
    else:
        prior_rows = np.zeros(n, dtype=np.int64)
        target_seeds = np.ones(n, dtype=bool)

    # --- score cone over the current selection graph -----------------------
    target_positions = positions_of(index.node_ids, node_ids)
    registered = target_positions >= 0
    seed_positions = np.concatenate(
        [
            positions_of(index.node_ids, np.fromiter(touched or (), dtype=np.int64)),
            target_positions[target_seeds],
        ]
    )
    seed_positions = seed_positions[seed_positions >= 0]
    # With every target a seed (a full pass) the cone is every target: it
    # is not built.
    affected = target_seeds.copy()
    if len(seed_positions) and not target_seeds.all():
        cone_mask = _score_cone(selection, seed_positions, hops)
        affected[registered] |= cone_mask[target_positions[registered]]
    affected_idx = np.flatnonzero(affected)
    keep_idx = np.flatnonzero(~affected)

    def score(bound: tuple[int, int]) -> SliceResult:
        lo, hi = bound
        return score_slice(
            model,
            index,
            node_ids,
            affected_idx[lo:hi],
            feature_fn,
            hops=hops,
            fanout=fanout,
            edge_type_order=edge_type_order,
            allowed=allowed,
            transform=transform,
        )

    # Only a sweep whose cone is the whole range is sliced for the executor.
    bounds = [(0, len(affected_idx))]
    if executor is not None and slices > 1 and n and len(affected_idx) == n:
        cuts = np.linspace(0, n, slices + 1).astype(np.int64)
        bounds = [
            (int(lo), int(hi)) for lo, hi in zip(cuts[:-1], cuts[1:]) if lo < hi
        ]
    served = list(executor(score, bounds)) if len(bounds) > 1 else [None]
    results = [
        score(bound) if result is None else result
        for bound, result in zip(bounds, served)
    ]

    # --- splice scores + subgraph CSR --------------------------------------
    kept_prior = prior_rows[keep_idx]
    scores = np.zeros(n, dtype=np.float64)
    sizes = np.zeros(n, dtype=np.int64)
    scores[affected_idx] = np.concatenate([r.scores for r in results])
    sizes[affected_idx] = np.concatenate([np.diff(r.indptr) for r in results])
    if len(keep_idx):
        scores[keep_idx] = prior.scores[kept_prior]
        sizes[keep_idx] = (
            prior.subgraph_indptr[kept_prior + 1] - prior.subgraph_indptr[kept_prior]
        )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    flat_nodes = np.empty(int(indptr[-1]), dtype=np.int64)
    flat_nodes[csr_gather_rows(indptr, affected_idx)[1]] = np.concatenate(
        [r.flat_nodes for r in results]
    )
    if len(keep_idx):
        flat_nodes[csr_gather_rows(indptr, keep_idx)[1]] = prior.subgraph_nodes[
            csr_gather_rows(prior.subgraph_indptr, kept_prior)[1]
        ]
    stats = _sample_stats(results, len(affected_idx))

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
        allowed=digest,
    )
    mstats = MaterializeStats(
        mode="full" if prior is None else "incremental",
        total_rows=n,
        rows_computed=len(affected_idx),
        edges_touched=int(sum(r.edges for r in results)),
        slices=len(bounds),
    )
    return state, stats, mstats
