"""The sampled-training engine: one epoch loop, two entry points.

Both public sampled trainers run through one private driver
(:func:`_train_sampled`): validated inputs, shuffled batches, a
``build(batch) -> Minibatch`` seam, per-batch gradients
(:func:`_batch_gradient`), a fixed-order fold and one optimizer step per
sync group (:func:`_apply_step`), computed in-process or by forked
workers.  The entry points differ only in the ``build`` closure they hand
the driver:

* :func:`train_parallel` — **presampled top-k replay**: the deterministic
  fanout policy (``rng=None``) is a pure function of the adjacency, so
  :class:`PresampledGraph` selects once per run and every minibatch is a
  BFS replay, in the parent or in a worker;
* :func:`train_with_neighbor_sampling` — **per-batch weighted draws** from
  ``sample_khop_nodes(..., rng)`` over the config's ``sample`` stream,
  which depend on the stream position and so stay in the loop, in-process.

Where no row exceeds the fanout the two builds — and therefore the two
trained models — are bit-identical.

Everything after the node set is shared: one ``nodes -> Minibatch``
assembly (:func:`_minibatch_of` over the one inducer,
:func:`~repro.core.minibatch.induced_adjacencies`) serves the parent, the
workers and failover.

* **Prefetch pipeline** — :class:`_Prefetcher` double-buffers minibatch
  assembly on a background thread so batch ``t+1`` is built while batch
  ``t`` computes; always on (measured, docs/PERFORMANCE.md).  The
  ``prefetch`` stage of the :class:`~repro.obs.profiling.TrainProfiler`
  records only the time the compute loop actually *waited*.
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
code path, and a 1-batch group folds to plain
``zero_grad / backward / step``.

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
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .. import nn
from ..nn import Tensor
from ..nn.sparse import csr_gather_rows, csr_interleave, csr_topk_rows
from ..obs.profiling import NullProfiler, TrainProfiler
from .hag import prepare_aggregators
from .minibatch import induced_adjacencies, sample_khop_nodes
from .trainer import TrainConfig, TrainResult, _prepare, _run_protocol

__all__ = [
    "PresampledGraph",
    "ParallelTrainConfig",
    "assemble_minibatch",
    "train_parallel",
    "train_with_neighbor_sampling",
]

_NULL = NullProfiler()


def _check_graph(csrs: Sequence[sp.csr_matrix], fanout: int | None) -> int:
    """Node count of square, same-shape adjacencies under a legal fanout."""
    if not csrs:
        raise ValueError("sampled training requires at least one adjacency")
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


@dataclass(slots=True, eq=False)
class PresampledGraph:
    """Epoch-invariant sampling structure: fanout selection + BFS CSR.

    Deterministic fanout selection (weight-descending, CSR-position
    tie-break — exactly ``sample_khop_nodes``'s ``rng=None`` policy) is a
    pure function of the adjacency, so it is computed **once** per training
    run instead of once per (batch, epoch):

    * ``all_*`` — every type's fanout-capped rows
      (:func:`~repro.nn.sparse.csr_topk_rows`) interleaved node-major /
      type-inner into one CSR, so one
      :func:`~repro.nn.sparse.csr_gather_rows` call per hop replays the
      whole frontier expansion;
    * ``adjacencies`` — the original CSRs, referenced (not copied) for the
      induced-subgraph slice, which is *not* fanout-capped.

    The layout mirrors :class:`~repro.network.sampled_graph.SampledGraph`'s
    incidence CSRs (PR 9); this variant differs in keying directly off the
    training adjacency matrices (no BN weight masking) because its contract
    is bit-exactness against :mod:`repro.core.minibatch`'s pinned
    references.
    """

    n: int
    fanout: int | None
    all_indptr: np.ndarray
    all_indices: np.ndarray
    adjacencies: list[sp.csr_matrix]
    # Persistent scratch (allocated lazily, reset after each use) so the
    # per-batch hot path allocates O(batch) not O(graph).
    _seen: np.ndarray | None = field(default=None, init=False, repr=False)
    _stamp: np.ndarray | None = field(default=None, init=False, repr=False)

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

    # ------------------------------------------------------------------
    # Per-batch replay (the hot path)
    # ------------------------------------------------------------------
    def sample(self, seeds: np.ndarray, hops: int) -> np.ndarray:
        """k-hop node set — bit-exact vs ``sample_khop_nodes(..., rng=None)``.

        One ``csr_gather_rows`` over the interleaved CSR replays a whole
        frontier expansion: the gather is frontier-node-major and each
        node's span is type-inner in selection order, exactly the candidate
        order ``_expand_frontier`` emits.  Inputs are checked before the
        persistent scratch is touched, so a rejected call leaves it clean.
        """
        if hops < 0:
            raise ValueError("hops must be non-negative")
        seeds = _check_indices("seeds", seeds, self.n)
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
        """Induced sub-CSRs over the *original* adjacency (fanout-free)."""
        return induced_adjacencies(self.adjacencies, nodes)

    # ------------------------------------------------------------------
    # Shared-memory round trip (worker publication)
    # ------------------------------------------------------------------
    def to_payload(self) -> tuple[dict[str, np.ndarray], dict]:
        """``(arrays, meta)`` for ``SharedSnapshotStore.publish``."""
        arrays: dict[str, np.ndarray] = {
            "all_indptr": self.all_indptr,
            "all_indices": self.all_indices,
        }
        for i, csr in enumerate(self.adjacencies):
            arrays[f"adjp:{i}"] = csr.indptr
            arrays[f"adji:{i}"] = csr.indices
            arrays[f"adjd:{i}"] = csr.data
        meta = {
            "n": int(self.n),
            "n_types": len(self.adjacencies),
            "fanout": -1 if self.fanout is None else int(self.fanout),
        }
        return arrays, meta

    @classmethod
    def from_payload(
        cls, arrays: dict[str, np.ndarray], meta: dict
    ) -> "PresampledGraph":
        """Rebuild from a published segment's array views (zero copy)."""
        n = int(meta["n"])
        fanout = int(meta["fanout"])
        adjacencies = []
        for i in range(int(meta["n_types"])):
            # Attribute assignment skips scipy's re-validation (and the
            # index-dtype copy it may make) of arrays that left a CSR.
            csr = sp.csr_matrix((n, n), dtype=arrays[f"adjd:{i}"].dtype)
            csr.data = arrays[f"adjd:{i}"]
            csr.indices = arrays[f"adji:{i}"]
            csr.indptr = arrays[f"adjp:{i}"]
            adjacencies.append(csr)
        return cls(
            n,
            None if fanout < 0 else fanout,
            arrays["all_indptr"],
            arrays["all_indices"],
            adjacencies,
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


def _minibatch_of(
    adjacencies: Sequence[sp.csr_matrix],
    features: np.ndarray,
    labels: np.ndarray,
    batch: np.ndarray,
    nodes: np.ndarray,
    profiler: TrainProfiler | NullProfiler = _NULL,
) -> Minibatch:
    """The one ``nodes -> Minibatch`` assembly: induce, wrap, gather."""
    with profiler.stage("induction"):
        aggregators = prepare_aggregators(induced_adjacencies(adjacencies, nodes))
    with profiler.stage("gather"):
        batch_features = features[nodes]
        batch_labels = labels[batch]
    return Minibatch(batch, nodes, aggregators, batch_features, batch_labels)


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
    return _minibatch_of(pre.adjacencies, features, labels, batch, nodes, profiler)


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

    The bounded queue holds at most two ready batches: batch ``t+1``
    (and ``t+2``) assemble while batch ``t`` computes, but memory stays
    bounded.  Assembly stages (``sampling``/``induction``/``gather``) are
    recorded from the worker thread while compute stages tick on the main
    thread — the stage names are disjoint, so the profiler's per-name
    accumulation never races.  The main loop's blocking ``get`` is timed as
    the ``prefetch`` stage: when the pipeline overlaps well it is near
    zero.  The consumer owns the thread's lifetime: :meth:`close` (in a
    ``finally``) leaves no thread behind even when the epoch raised
    mid-way, so a later fork is never refused on its account.
    """

    _DONE = object()

    def __init__(
        self,
        build: Callable[[np.ndarray], Minibatch],
        batches: Sequence[np.ndarray],
        profiler: TrainProfiler | NullProfiler,
    ) -> None:
        self._queue: queue.Queue = queue.Queue(maxsize=2)
        self._error: BaseException | None = None
        self._profiler = profiler
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(build, list(batches)), daemon=True
        )
        self._thread.start()

    def _run(self, build: Callable, batches: list) -> None:
        try:
            for batch in batches:
                if self._stop.is_set():
                    break
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
                if self._error is not None:
                    raise self._error
                return
            yield item

    def close(self) -> None:
        """Signal stop, drain whatever the producer is parked on, join."""
        self._stop.set()
        while self._thread.is_alive():
            try:
                self._queue.get_nowait()
            except queue.Empty:
                self._thread.join(0.01)


# ----------------------------------------------------------------------
# Config + entry points
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
    """Sampled training under the deterministic (top-k) fanout policy.

    ``model.forward(x, aggregators)`` must accept a feature tensor and a
    list of per-type aggregation matrices (HAG's interface; the homogeneous
    baselines can be adapted with a single-element list).  The protocol is
    shuffled batches, weighted BCE, a per-epoch fanout-free validation
    subgraph, AUC early stopping and best-state restore; the fanout
    selection is hoisted out of the epoch loop into one
    :class:`PresampledGraph`, and gradient computation optionally fans out
    to ``config.workers`` forked workers.

    Randomness is threaded from ``config.seed`` through
    :meth:`TrainConfig.streams`: batch shuffling consumes the ``shuffle``
    stream and nothing else, so the epoch schedule is identical for every
    ``workers`` setting.
    """

    def make_build(csrs, features, labels, sample_rng, profiler):
        with profiler.stage("presample"):
            pre = PresampledGraph.build(csrs, fanout)

        def build(batch: np.ndarray) -> Minibatch:
            return assemble_minibatch(pre, features, labels, batch, hops, profiler)

        return build, pre

    return _train_sampled(
        model, adjacencies, features, labels, train_idx, val_idx,
        config or ParallelTrainConfig(batch_size=256),
        hops, fanout, profiler, make_build,
    )


def train_with_neighbor_sampling(
    model: nn.Module,
    adjacencies: Sequence[sp.spmatrix],
    features: np.ndarray,
    labels: np.ndarray,
    train_idx: np.ndarray,
    val_idx: np.ndarray | None = None,
    config: TrainConfig | None = None,
    hops: int = 2,
    fanout: int | None = 10,
    profiler: TrainProfiler | None = None,
) -> TrainResult:
    """Sampled training with weighted *random* fanout draws.

    :func:`train_parallel`'s protocol and driver, in-process with one
    optimizer step per batch; only the node set differs.  Every batch
    re-draws its oversized rows' neighbours from
    ``sample_khop_nodes(..., rng)`` over the config's ``sample`` stream —
    the draw depends on the stream position, so it cannot be presampled
    or replayed by a forked worker, and only :class:`TrainConfig`'s own
    fields of ``config`` are read.  Where no row exceeds ``fanout`` no
    draw happens and the result is bit-identical to
    ``train_parallel(sync_batches=1, workers=0)``.
    """
    config = config or TrainConfig(batch_size=256)

    def make_build(csrs, features, labels, sample_rng, profiler):
        def build(batch: np.ndarray) -> Minibatch:
            with profiler.stage("sampling"):
                nodes = sample_khop_nodes(csrs, batch, hops, fanout, sample_rng)
            return _minibatch_of(csrs, features, labels, batch, nodes, profiler)

        return build, None

    return _train_sampled(
        model, adjacencies, features, labels, train_idx, val_idx,
        ParallelTrainConfig(
            **{f.name: getattr(config, f.name) for f in fields(TrainConfig)}
        ),
        hops, fanout, profiler, make_build,
    )


def _train_sampled(
    model: nn.Module,
    adjacencies: Sequence[sp.spmatrix],
    features: np.ndarray,
    labels: np.ndarray,
    train_idx: np.ndarray,
    val_idx: np.ndarray | None,
    config: ParallelTrainConfig,
    hops: int,
    fanout: int | None,
    profiler: TrainProfiler | None,
    make_build: Callable,
) -> TrainResult:
    """The one sampled-training driver behind both public entry points.

    Rejects malformed inputs with a ``ValueError`` before anything is
    presampled, published or forked, then runs the shared protocol with an
    epoch of shuffled batches dispatched in-process or to the worker pool.
    ``make_build(csrs, features, labels, sample_rng, profiler)`` is an
    entry point's whole contribution: it returns ``(build, presampled)``,
    the ``batch -> Minibatch`` closure and the structure forked workers
    replay it from (``None``: not replayable).
    """
    csrs = [a.tocsr() for a in adjacencies]
    n = _check_graph(csrs, fanout)
    if hops < 0:
        raise ValueError("hops must be non-negative")
    train_idx = _check_indices("train_idx", train_idx, n)
    if val_idx is not None:
        val_idx = _check_indices("val_idx", val_idx, n)
    profiler, labels, train_idx, pos_weight = _prepare(
        config, profiler, labels, train_idx
    )
    if config.batch_size is None:
        raise ValueError("sampled training requires a batch size")
    if config.workers > 0:
        _refuse_active_dropout(model)
    features = np.asarray(features, dtype=np.float64)

    params = model.parameters()
    optimizer = nn.Adam(params, lr=config.lr, weight_decay=config.weight_decay)
    streams = config.streams()
    shuffle_rng = streams["shuffle"]
    build, presampled = make_build(csrs, features, labels, streams["sample"], profiler)

    pool = None

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

    with ExitStack() as cleanup:  # a refused fork still unlinks the segment
        if config.workers > 0:
            from ..network.shm import SharedSnapshotStore
            from ..system.train_workers import TrainWorkerPool, publish_train_inputs

            store = SharedSnapshotStore(prefix=f"repro-train-{os.getpid()}")
            cleanup.callback(store.close)
            handle = publish_train_inputs(
                store, presampled, features, labels, hops=hops
            )
            inputs = handle.segment if handle.shared else (handle.arrays, handle.meta)
            worker_seeds = [
                int(s)
                for s in streams["workers"].integers(0, 2**63 - 1, config.workers)
            ]
            pool = TrainWorkerPool(
                inputs,
                config.workers,
                model_payload=pickle.dumps(
                    {"model": model, "pos_weight": pos_weight}
                ),
                worker_seeds=worker_seeds,
            )
            cleanup.callback(pool.close)
        return _run_protocol(
            model, config, profiler, labels, train_idx, val_idx, pos_weight,
            epoch_step, _subgraph_validator(model, csrs, features, val_idx, hops),
        )


def _subgraph_validator(
    model: nn.Module,
    adjacencies: Sequence[sp.spmatrix],
    features: np.ndarray,
    val_idx: np.ndarray | None,
    hops: int,
) -> Callable[[], np.ndarray] | None:
    """``validate()`` of sampled training; ``None`` without validation nodes.

    Validation is evaluated on its own (fanout-free) subgraph, sampled and
    induced once and reused every epoch; the validation nodes are the
    subgraph's leading rows.
    """
    if val_idx is None or len(val_idx) == 0:
        return None
    val_nodes = sample_khop_nodes(adjacencies, val_idx, hops, None)
    val_adjacencies = prepare_aggregators(induced_adjacencies(adjacencies, val_nodes))
    val_features = Tensor(features[val_nodes])
    val_positions = np.arange(len(val_idx))
    return lambda: model.forward(val_features, val_adjacencies).numpy()[val_positions]


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
    epoch_loss = 0.0
    pending: list[list[np.ndarray]] = []
    prefetcher = _Prefetcher(build, batches, profiler)
    try:
        for mb in prefetcher:
            grads, loss = _batch_gradient(model, params, mb, pos_weight, profiler)
            epoch_loss += loss * len(mb.batch)
            profiler.count_batch(len(mb.nodes))
            pending.append(grads)
            if len(pending) == config.sync_batches:
                _apply_step(optimizer, params, pending, profiler)
                pending = []
    finally:
        prefetcher.close()
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
