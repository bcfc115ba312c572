"""Parallel training engine: presampling, prefetch, data-parallel gradients.

:func:`~repro.core.minibatch.train_with_neighbor_sampling` re-runs
``sample_khop_nodes`` + ``induced_adjacencies`` for every batch of every
epoch, from the raw adjacency matrices, in the compute thread, in one
process.  This module removes all four costs while keeping the float
trajectory *bit-identical*:

* **Epoch presampling** — :class:`PresampledGraph` builds the deterministic
  fanout selection once per training run (per-type selection CSRs plus one
  interleaved all-types CSR, the same incidence-CSR layout as
  :class:`~repro.network.sampled_graph.SampledGraph`), then every minibatch
  is a cheap BFS replay + induced slice over those CSRs.  Bit-exact against
  the pinned references ``sample_khop_nodes(..., rng=None)`` /
  ``induced_adjacencies`` — which also means presampling only supports the
  deterministic (``rng=None``) fanout policy; weighted *random* fanout
  draws depend on the rng stream position at each batch and cannot be
  hoisted out of the epoch loop.
* **Prefetch pipeline** — :class:`_Prefetcher` double-buffers minibatch
  assembly (subgraph slicing + columnar feature gather) on a background
  thread so batch ``t+1`` is built while batch ``t`` computes; the
  ``prefetch`` stage of the :class:`~repro.obs.profiling.TrainProfiler`
  records only the time the compute loop actually *waited*, which is the
  overlap proof the benchmark asserts on.
* **Multi-process data parallelism** — forked workers (a
  :class:`~repro.system.fork_pool.ForkPool`, see
  :mod:`repro.system.train_workers`) compute per-minibatch gradients off a
  :class:`~repro.network.shm.SharedSnapshotStore`-published segment holding
  the presampled CSRs and features.  Reduction is a **fixed-fold-order**
  sum: gradients are always folded left-to-right by *global batch index*
  (:func:`fold_gradients`), never by worker arrival order, so same-seed
  runs are bit-identical across worker counts {0, 1, 2, 4}.  Float
  caveat, documented once here: bit-exactness across worker counts holds
  because every worker computes over identically-shaped arrays; it is the
  *fold order* that parallelism could perturb, and pinning it removes the
  only degree of freedom.  (BLAS matmul is shape-dependent, but every
  configuration computes the same per-batch matmuls — nothing is resharded
  — so no allclose tolerance is needed anywhere in the parity suite.)

Determinism further requires that a parameter consumed twice inside one
batch's graph (SAO's attention vector ``p``) accumulates *within* the
batch before the cross-batch fold.  ``Tensor._accumulate`` would interleave
the two sums if batches shared one autograd accumulation, so the engine
always extracts per-batch gradient lists (:func:`_batch_gradient`) and
folds them explicitly — the in-process and pooled paths share that exact
code path.

Dropout restriction: module-local dropout rng streams advance per process,
so cross-worker parity only holds for dropout-free models (HAG's default).
``train_parallel(workers > 0)`` therefore raises ``ValueError`` when the
model tree contains an ``nn.Dropout`` with ``p > 0`` — found by walking
the module attributes the way ``Module._set_mode`` does.
"""

from __future__ import annotations

import os
import pickle
import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .. import nn
from ..nn import Tensor
from ..nn.sparse import csr_gather_rows, csr_interleave
from ..obs.profiling import NullProfiler, TrainProfiler
from .hag import prepare_aggregators
from .minibatch import _subgraph_validator, induced_adjacencies, sample_khop_nodes
from .trainer import TrainConfig, TrainResult, _prepare, _run_protocol

__all__ = [
    "PresampledGraph",
    "Minibatch",
    "ParallelTrainConfig",
    "assemble_minibatch",
    "fold_gradients",
    "train_parallel",
]

_NULL = NullProfiler()


class PresampledGraph:
    """Epoch-invariant sampling structure: fanout selection + BFS CSRs.

    Deterministic fanout selection (weight-descending, CSR-position
    tie-break — exactly ``sample_khop_nodes``'s ``rng=None`` policy) is a
    pure function of the adjacency, so it is computed **once** per training
    run instead of once per (batch, epoch):

    * ``sel_*`` — per-type selection CSRs: row ``v`` holds the neighbours
      that survive the fanout cap, in emission order (stored order for
      small rows, selection-rank order for capped rows);
    * ``all_*`` — the selection CSRs interleaved node-major/type-inner into
      one CSR, so one :func:`~repro.nn.sparse.csr_gather_rows` call per hop
      replays the whole frontier expansion;
    * ``adj_*`` — the original adjacency CSR parts, referenced (not
      copied) for the induced-subgraph slice, which is *not* fanout-capped.

    The layout mirrors :class:`~repro.network.sampled_graph.SampledGraph`'s
    incidence CSRs (PR 9); this variant differs in keying directly off the
    training adjacency matrices (no BN weight masking) because its contract
    is bit-exactness against :mod:`repro.core.minibatch`'s pinned
    references.
    """

    __slots__ = (
        "n",
        "fanout",
        "sel_indptr",
        "sel_indices",
        "all_indptr",
        "all_indices",
        "adj_indptr",
        "adj_indices",
        "adj_data",
        "_seen",
        "_stamp",
        "_lookup",
    )

    def __init__(
        self,
        n: int,
        fanout: int | None,
        sel_indptr: list[np.ndarray],
        sel_indices: list[np.ndarray],
        all_indptr: np.ndarray,
        all_indices: np.ndarray,
        adj_indptr: list[np.ndarray],
        adj_indices: list[np.ndarray],
        adj_data: list[np.ndarray],
    ) -> None:
        self.n = n
        self.fanout = fanout
        self.sel_indptr = sel_indptr
        self.sel_indices = sel_indices
        self.all_indptr = all_indptr
        self.all_indices = all_indices
        self.adj_indptr = adj_indptr
        self.adj_indices = adj_indices
        self.adj_data = adj_data
        # Persistent scratch (allocated lazily, reset after each use) so the
        # per-batch hot path allocates O(batch) not O(graph).
        self._seen: np.ndarray | None = None
        self._stamp: np.ndarray | None = None
        self._lookup: np.ndarray | None = None

    @classmethod
    def build(
        cls, adjacencies: Sequence[sp.spmatrix], fanout: int | None
    ) -> "PresampledGraph":
        """Precompute the selection CSRs for ``adjacencies``."""
        csrs = [a.tocsr() for a in adjacencies]
        if not csrs:
            raise ValueError("presampling requires at least one adjacency")
        n = csrs[0].shape[0]
        sel_indptr: list[np.ndarray] = []
        sel_indices: list[np.ndarray] = []
        for csr in csrs:
            indptr = np.asarray(csr.indptr, dtype=np.int64)
            indices = np.asarray(csr.indices, dtype=np.int64)
            counts = np.diff(indptr)
            if fanout == 0:
                sel_indptr.append(np.zeros(n + 1, dtype=np.int64))
                sel_indices.append(np.empty(0, dtype=np.int64))
                continue
            big = None if fanout is None else counts > fanout
            if big is None or not big.any():
                sel_indptr.append(indptr)
                sel_indices.append(indices)
                continue
            total = int(indptr[-1])
            rows = np.repeat(np.arange(n, dtype=np.int64), counts)
            starts = np.repeat(indptr[:-1], counts)
            pos = np.arange(total, dtype=np.int64) - starts
            # Within-row selection rank by (weight desc, position asc) —
            # the rank[by_rank] trick works because lexsort's primary key
            # keeps rows contiguous, so each row's sorted segment occupies
            # its own indptr span.
            by_rank = np.lexsort((pos, -csr.data, rows))
            rank = np.empty(total, dtype=np.int64)
            rank[by_rank] = np.arange(total, dtype=np.int64) - starts
            big_entry = big[rows]
            keep = np.flatnonzero(~big_entry | (rank < fanout))
            # Capped rows emit in rank order, small rows in stored order.
            key = np.where(big_entry, rank, pos)
            order = keep[np.lexsort((key[keep], rows[keep]))]
            out_indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.minimum(counts, fanout), out=out_indptr[1:])
            sel_indptr.append(out_indptr)
            sel_indices.append(indices[order])
        all_indptr, all_indices = csr_interleave(n, sel_indptr, sel_indices)
        return cls(
            n=n,
            fanout=fanout,
            sel_indptr=sel_indptr,
            sel_indices=sel_indices,
            all_indptr=all_indptr,
            all_indices=all_indices,
            adj_indptr=[np.asarray(c.indptr, dtype=np.int64) for c in csrs],
            adj_indices=[np.asarray(c.indices, dtype=np.int64) for c in csrs],
            adj_data=[np.asarray(c.data) for c in csrs],
        )

    # ------------------------------------------------------------------
    # Per-batch replay (the hot path)
    # ------------------------------------------------------------------
    def sample(self, seeds: np.ndarray, hops: int) -> np.ndarray:
        """k-hop node set — bit-exact vs ``sample_khop_nodes(..., rng=None)``.

        One ``csr_gather_rows`` over the interleaved CSR replays a whole
        frontier expansion: the gather is frontier-node-major and each
        node's span is type-inner in selection order, exactly the candidate
        order ``_expand_frontier`` emits.
        """
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.size == 0:
            return seeds.copy()
        _, first = np.unique(seeds, return_index=True)
        frontier = seeds[np.sort(first)]
        seen = self._seen
        if seen is None:
            seen = self._seen = np.zeros(self.n, dtype=bool)
        stamp = self._stamp
        if stamp is None:
            stamp = self._stamp = np.full(self.n, -1, dtype=np.int64)
        seen[frontier] = True
        chunks = [frontier]
        for _ in range(hops):
            if frontier.size == 0:
                break
            _, gidx = csr_gather_rows(self.all_indptr, frontier)
            candidates = self.all_indices[gidx]
            if candidates.size == 0:
                break
            # Reverse scatter -> earliest occurrence wins (first-occurrence
            # dedupe without a sort), then drop already-selected nodes.
            stamp[candidates[::-1]] = np.arange(
                candidates.size - 1, -1, -1, dtype=np.int64
            )
            ordered = candidates[stamp[candidates] == np.arange(candidates.size)]
            stamp[candidates] = -1
            fresh = ordered[~seen[ordered]]
            if fresh.size == 0:
                break
            seen[fresh] = True
            chunks.append(fresh)
            frontier = fresh
        out = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        seen[out] = False
        return out

    def induced(self, nodes: np.ndarray) -> list[sp.csr_matrix]:
        """Induced sub-CSRs over the *original* adjacency (fanout-free).

        Bit-exact (including within-row entry order) vs
        ``induced_adjacencies``: a CSR row gather preserves stored order
        and the boolean column filter preserves relative order, which are
        the same two invariants the dump-column variant relies on.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        k = len(nodes)
        lookup = self._lookup
        if lookup is None:
            lookup = self._lookup = np.full(self.n, -1, dtype=np.int32)
        lookup[nodes] = np.arange(k, dtype=np.int32)
        result: list[sp.csr_matrix] = []
        for indptr, indices, data in zip(
            self.adj_indptr, self.adj_indices, self.adj_data
        ):
            out_indptr, gidx = csr_gather_rows(indptr, nodes)
            cols = lookup[indices[gidx]]
            inside = cols >= 0
            lens = np.diff(out_indptr)
            row_of = np.repeat(np.arange(k, dtype=np.int64), lens)
            kept_counts = np.bincount(row_of[inside], minlength=k)
            sub_indptr = np.zeros(k + 1, dtype=np.int32)
            np.cumsum(kept_counts, out=sub_indptr[1:])
            sub = sp.csr_matrix((k, k))
            sub.data = data[gidx][inside]
            sub.indices = cols[inside]
            sub.indptr = sub_indptr
            result.append(sub)
        lookup[nodes] = -1
        return result

    # ------------------------------------------------------------------
    # Shared-memory round trip (worker publication)
    # ------------------------------------------------------------------
    def to_payload(self) -> tuple[dict[str, np.ndarray], dict]:
        """``(arrays, meta)`` for ``SharedSnapshotStore.publish``."""
        arrays: dict[str, np.ndarray] = {
            "all_indptr": self.all_indptr,
            "all_indices": self.all_indices,
        }
        for i in range(len(self.sel_indptr)):
            arrays[f"selp:{i}"] = self.sel_indptr[i]
            arrays[f"seli:{i}"] = self.sel_indices[i]
            arrays[f"adjp:{i}"] = self.adj_indptr[i]
            arrays[f"adji:{i}"] = self.adj_indices[i]
            arrays[f"adjd:{i}"] = self.adj_data[i]
        meta = {
            "n": int(self.n),
            "n_types": len(self.sel_indptr),
            "fanout": -1 if self.fanout is None else int(self.fanout),
        }
        return arrays, meta

    @classmethod
    def from_payload(
        cls, arrays: dict[str, np.ndarray], meta: dict
    ) -> "PresampledGraph":
        """Rebuild from a published segment's array views (zero copy)."""
        n_types = int(meta["n_types"])
        fanout = int(meta["fanout"])
        return cls(
            n=int(meta["n"]),
            fanout=None if fanout < 0 else fanout,
            sel_indptr=[arrays[f"selp:{i}"] for i in range(n_types)],
            sel_indices=[arrays[f"seli:{i}"] for i in range(n_types)],
            all_indptr=arrays["all_indptr"],
            all_indices=arrays["all_indices"],
            adj_indptr=[arrays[f"adjp:{i}"] for i in range(n_types)],
            adj_indices=[arrays[f"adji:{i}"] for i in range(n_types)],
            adj_data=[arrays[f"adjd:{i}"] for i in range(n_types)],
        )


# ----------------------------------------------------------------------
# Minibatch assembly
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Minibatch:
    """One assembled training batch (everything the compute step needs)."""

    batch: np.ndarray
    nodes: np.ndarray
    aggregators: list
    features: np.ndarray
    labels: np.ndarray


def assemble_minibatch(
    pre: PresampledGraph,
    features: np.ndarray,
    labels: np.ndarray,
    batch: np.ndarray,
    hops: int,
    profiler: TrainProfiler | NullProfiler = _NULL,
) -> Minibatch:
    """Slice one batch's subgraph + features from the presampled structure."""
    with profiler.stage("sampling"):
        nodes = pre.sample(batch, hops)
    with profiler.stage("induction"):
        aggregators = prepare_aggregators(pre.induced(nodes))
    with profiler.stage("gather"):
        batch_features = features[nodes]
        batch_labels = labels[batch]
    return Minibatch(batch, nodes, aggregators, batch_features, batch_labels)


def _batch_gradient(
    model: nn.Module,
    params: Sequence[Tensor],
    mb: Minibatch,
    pos_weight: float,
    profiler: TrainProfiler | NullProfiler = _NULL,
) -> tuple[list[np.ndarray], float]:
    """Loss gradients of one minibatch at the current parameters.

    Gradients are *stolen* off the parameters (read, then reset to None) so
    each batch's contribution is a standalone list.  A parameter used twice
    in one graph (SAO's ``p``) accumulates intra-batch here, inside
    ``backward`` — and the cross-batch sum happens only in
    :func:`fold_gradients`, in global batch order.  Workers and the parent
    both route through this function, which is what makes their float
    output interchangeable bit-for-bit.
    """
    x = Tensor(mb.features)
    with profiler.stage("forward"):
        logits = model.forward(x, mb.aggregators)
        loss = nn.bce_with_logits(
            logits.index_select(np.arange(len(mb.batch))),
            mb.labels,
            pos_weight=pos_weight,
        )
    with profiler.stage("backward"):
        loss.backward()
    grads: list[np.ndarray] = []
    for param in params:
        grads.append(
            param.grad if param.grad is not None else np.zeros_like(param.data)
        )
        param.grad = None
    return grads, float(loss.item())


def fold_gradients(
    per_batch: Sequence[Sequence[np.ndarray]], scale: float
) -> list[np.ndarray]:
    """Left-to-right fold of per-batch gradient lists, then mean scaling.

    The caller passes the lists in **global batch index** order — never in
    worker completion order — so the summed float bits are invariant to the
    worker count and to dispatch timing.  The fold mirrors
    ``Tensor._accumulate`` (copy the first contribution, then repeated
    ``a + g``), and ``scale == 1.0`` skips the multiply so a 1-batch group
    reproduces plain single-batch training exactly.
    """
    folded = [
        np.array(g, dtype=np.float64, copy=True) for g in per_batch[0]
    ]
    for grads in per_batch[1:]:
        for i, g in enumerate(grads):
            folded[i] = folded[i] + g
    if scale != 1.0:
        folded = [g * scale for g in folded]
    return folded


# ----------------------------------------------------------------------
# Prefetch pipeline
# ----------------------------------------------------------------------
class _Prefetcher:
    """Double-buffered minibatch assembly on a daemon thread.

    The bounded queue holds at most ``depth`` ready batches: batch ``t+1``
    (and ``t+2``) assemble while batch ``t`` computes, but memory stays
    bounded.  Assembly stages (``sampling``/``induction``/``gather``) are
    recorded from the worker thread while compute stages tick on the main
    thread — the stage names are disjoint, so the profiler's per-name
    accumulation never races.  The main loop's blocking ``get`` is timed as
    the ``prefetch`` stage: when the pipeline overlaps well it is near
    zero, and that is the number the benchmark asserts on.
    """

    _DONE = object()

    def __init__(
        self,
        build: Callable[[np.ndarray], Minibatch],
        batches: Sequence[np.ndarray],
        profiler: TrainProfiler | NullProfiler,
        depth: int = 2,
    ) -> None:
        self._queue: queue.Queue = queue.Queue(maxsize=max(1, depth))
        self._error: BaseException | None = None
        self._profiler = profiler
        self._thread = threading.Thread(
            target=self._run, args=(build, list(batches)), daemon=True
        )
        self._thread.start()

    def _run(self, build: Callable, batches: list) -> None:
        try:
            for batch in batches:
                self._queue.put(build(batch))
        except BaseException as exc:  # propagate to the consuming thread
            self._error = exc
        finally:
            self._queue.put(self._DONE)

    def __iter__(self):
        while True:
            with self._profiler.stage("prefetch"):
                item = self._queue.get()
            if item is self._DONE:
                self._thread.join()
                if self._error is not None:
                    raise self._error
                return
            yield item


# ----------------------------------------------------------------------
# Config + engine
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ParallelTrainConfig(TrainConfig):
    """:class:`~repro.core.trainer.TrainConfig` plus the engine's knobs."""

    #: gradients of this many consecutive batches are folded into one
    #: optimizer step (synchronous data parallelism with accumulation).
    #: The grouping is fixed by config — independent of ``workers`` — so
    #: the optimizer trajectory never depends on the degree of parallelism.
    sync_batches: int = 1
    #: number of forked gradient workers; 0 computes in-process.
    workers: int = 0
    #: double-buffer minibatch assembly on a background thread.
    prefetch: bool = True
    #: sample the k-hop structure once per run (vs per batch per epoch).
    presample: bool = True
    #: dispatch to one worker at a time (measurement mode: lets the
    #: benchmark time each worker's busy span uncontended on a small CPU
    #: and combine them under the deployment clock, as bench_sharding does).
    serialize_dispatch: bool = False

    def validate(self) -> None:
        # Explicit base call: dataclass(slots=True) rebuilds the class, so
        # zero-arg super() would see a stale __class__ cell.
        TrainConfig.validate(self)
        if self.sync_batches < 1:
            raise ValueError("sync_batches must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.workers > 0 and not self.presample:
            raise ValueError(
                "multi-process training requires presample=True (workers "
                "slice minibatches from the published presampled segment)"
            )


def train_parallel(
    model: nn.Module,
    adjacencies: Sequence[sp.spmatrix],
    features: np.ndarray,
    labels: np.ndarray,
    train_idx: np.ndarray,
    val_idx: np.ndarray | None = None,
    config: ParallelTrainConfig | None = None,
    hops: int = 2,
    fanout: int | None = 10,
    profiler: TrainProfiler | None = None,
) -> TrainResult:
    """Drop-in parallel replacement for ``train_with_neighbor_sampling``.

    Same protocol (shuffled batches, weighted BCE, per-epoch fanout-free
    validation subgraph, AUC early stopping, best-state restore) with the
    sampling hoisted out of the epoch loop, assembly prefetched, and
    gradient computation optionally fanned out to forked workers.  The
    fanout policy is deterministic (``rng=None``) — see the module
    docstring for why weighted-random fanout cannot be presampled.

    Randomness is threaded from ``config.seed`` through
    :meth:`TrainConfig.streams`: batch shuffling consumes the ``shuffle``
    stream and nothing else, so the epoch schedule is identical for every
    ``workers`` setting.
    """
    config = config or ParallelTrainConfig(batch_size=256)
    profiler, labels, train_idx, pos_weight = _prepare(
        config, profiler, labels, train_idx
    )
    if config.batch_size is None:
        raise ValueError("parallel training requires a batch size")
    if config.workers > 0:
        _refuse_active_dropout(model)
    csrs = [a.tocsr() for a in adjacencies]
    features = np.asarray(features, dtype=np.float64)

    params = model.parameters()
    optimizer = nn.Adam(params, lr=config.lr, weight_decay=config.weight_decay)
    streams = config.streams()
    shuffle_rng = streams["shuffle"]

    pre: PresampledGraph | None = None
    if config.presample:
        with profiler.stage("presample"):
            pre = PresampledGraph.build(csrs, fanout)

    def build(batch: np.ndarray) -> Minibatch:
        if pre is not None:
            return assemble_minibatch(pre, features, labels, batch, hops, profiler)
        with profiler.stage("sampling"):
            nodes = sample_khop_nodes(csrs, batch, hops, fanout, None)
        with profiler.stage("induction"):
            aggregators = prepare_aggregators(induced_adjacencies(csrs, nodes))
        with profiler.stage("gather"):
            batch_features = features[nodes]
            batch_labels = labels[batch]
        return Minibatch(batch, nodes, aggregators, batch_features, batch_labels)

    pool = None
    store = None
    if config.workers > 0:
        from ..network.shm import SharedSnapshotStore
        from ..system.train_workers import TrainWorkerPool, publish_train_inputs

        store = SharedSnapshotStore(prefix=f"repro-train-{os.getpid()}")
        handle = publish_train_inputs(store, pre, features, labels, hops=hops)
        inputs = handle.segment if handle.shared else (handle.arrays, handle.meta)
        worker_seeds = [
            int(s) for s in streams["workers"].integers(0, 2**63 - 1, config.workers)
        ]
        pool = TrainWorkerPool(
            inputs,
            config.workers,
            model_payload=pickle.dumps(
                {"model": model, "pos_weight": pos_weight, "hops": hops}
            ),
            worker_seeds=worker_seeds,
        )

    def epoch_step() -> float:
        shuffled = shuffle_rng.permutation(train_idx)
        batches = [
            shuffled[i : i + config.batch_size]
            for i in range(0, len(shuffled), config.batch_size)
        ]
        if pool is not None:
            return _pooled_epoch(
                pool, model, params, optimizer, batches, config,
                pos_weight, build, profiler,
            )
        return _inprocess_epoch(
            model, params, optimizer, batches, config,
            pos_weight, build, profiler,
        )

    try:
        return _run_protocol(
            model, config, profiler, labels, train_idx, val_idx, pos_weight,
            epoch_step, _subgraph_validator(model, csrs, features, val_idx, hops),
        )
    finally:
        if pool is not None:
            pool.close()
        if store is not None:
            store.close()


def _refuse_active_dropout(value: object) -> None:
    """Raise when a module tree holds an ``nn.Dropout`` with ``p > 0``.

    Walks module attributes (and lists / tuples / dicts of them) the way
    ``Module._set_mode`` does.  Each forked worker would advance its own
    copy of the dropout rng stream, so a batch's gradient would depend on
    which process computed it.
    """
    if isinstance(value, nn.Dropout) and value.p > 0:
        raise ValueError(
            "train_parallel(workers>0) requires a dropout-free model: found "
            f"Dropout(p={value.p}), whose rng stream advances per process and "
            "breaks cross-worker parity"
        )
    if isinstance(value, nn.Module):
        value = value.__dict__
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            _refuse_active_dropout(item)


def _apply_step(
    optimizer: nn.Adam,
    params: Sequence[Tensor],
    per_batch: list[list[np.ndarray]],
    profiler: TrainProfiler | NullProfiler,
) -> None:
    """Fold one sync group's gradients (fixed order) and take one step."""
    with profiler.stage("reduce"):
        folded = fold_gradients(per_batch, 1.0 / len(per_batch))
        for param, grad in zip(params, folded):
            param.grad = grad
    with profiler.stage("step"):
        optimizer.step()
    for param in params:
        param.grad = None


def _inprocess_epoch(
    model: nn.Module,
    params: Sequence[Tensor],
    optimizer: nn.Adam,
    batches: list[np.ndarray],
    config: ParallelTrainConfig,
    pos_weight: float,
    build: Callable[[np.ndarray], Minibatch],
    profiler: TrainProfiler | NullProfiler,
) -> float:
    """One epoch with gradients computed in the parent process."""
    if config.prefetch:
        iterator = iter(_Prefetcher(build, batches, profiler))
    else:
        iterator = (build(batch) for batch in batches)
    epoch_loss = 0.0
    pending: list[list[np.ndarray]] = []
    for mb in iterator:
        grads, loss = _batch_gradient(model, params, mb, pos_weight, profiler)
        epoch_loss += loss * len(mb.batch)
        profiler.count_batch(len(mb.nodes))
        pending.append(grads)
        if len(pending) == config.sync_batches:
            _apply_step(optimizer, params, pending, profiler)
            pending = []
    if pending:
        _apply_step(optimizer, params, pending, profiler)
    return epoch_loss


def _pooled_epoch(
    pool,
    model: nn.Module,
    params: Sequence[Tensor],
    optimizer: nn.Adam,
    batches: list[np.ndarray],
    config: ParallelTrainConfig,
    pos_weight: float,
    build: Callable[[np.ndarray], Minibatch],
    profiler: TrainProfiler | NullProfiler,
) -> float:
    """One epoch with per-batch gradients computed by the worker pool.

    Each sync group's batches are assigned round-robin (batch ``i`` to
    worker ``i % workers``) and the results are slotted back by global
    batch index before :func:`_apply_step`, so the fold order — and hence
    the float trajectory — is identical to the in-process path.  A worker
    that died mid-group is failed over by recomputing its batches in the
    parent at the same parameter state, which is bit-identical to what the
    worker would have returned.

    Stage accounting: ``dispatch`` is parent wall time spent sending state
    and collecting results; ``workers_busy`` / ``workers_critical`` are the
    sum / max of in-child busy spans per step — the deployment-clock inputs
    (an epoch on a real multi-core host costs
    ``wall - workers_busy + workers_critical``).
    """
    epoch_loss = 0.0
    group_size = config.sync_batches
    for start in range(0, len(batches), group_size):
        group = batches[start : start + group_size]
        state = [param.data for param in params]
        n_workers = pool.n_workers
        assignment = [
            list(range(w, len(group), n_workers)) for w in range(n_workers)
        ]
        dispatch_started = time.perf_counter()
        if config.serialize_dispatch:
            raw = [
                pool.gradients(w, state, [group[i] for i in idxs])
                if idxs
                else None
                for w, idxs in enumerate(assignment)
            ]
        else:
            started = [
                bool(idxs)
                and pool.start_gradients(w, state, [group[i] for i in idxs])
                for w, idxs in enumerate(assignment)
            ]
            raw = [
                pool.finish(w) if started[w] else None
                for w in range(n_workers)
            ]
        profiler.add_stage_seconds(
            "dispatch", time.perf_counter() - dispatch_started
        )

        results: list[tuple[list[np.ndarray], float, int] | None]
        results = [None] * len(group)
        busy_spans: list[float] = []
        for w, idxs in enumerate(assignment):
            if not idxs:
                continue
            value = raw[w]
            if value is None:
                # Worker died: recompute its share in the parent.  The
                # parameters have not stepped since `state` was captured,
                # so the recomputation is bit-identical.
                for i in idxs:
                    mb = build(group[i])
                    grads, loss = _batch_gradient(
                        model, params, mb, pos_weight, profiler
                    )
                    results[i] = (grads, loss, len(mb.nodes))
                continue
            w_grads, w_losses, w_nodes, busy = value
            busy_spans.append(busy)
            for j, i in enumerate(idxs):
                results[i] = (w_grads[j], w_losses[j], w_nodes[j])
        if busy_spans:
            profiler.add_stage_seconds("workers_busy", sum(busy_spans))
            profiler.add_stage_seconds("workers_critical", max(busy_spans))

        for i, item in enumerate(results):
            grads, loss, n_nodes = item
            epoch_loss += loss * len(group[i])
            profiler.count_batch(n_nodes)
        _apply_step(optimizer, params, [item[0] for item in results], profiler)
    return epoch_loss
