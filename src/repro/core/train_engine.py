"""The sampled-training engine: one epoch loop, two entry points.

Both public sampled trainers run through one private driver
(:func:`_train_sampled`): validated inputs, shuffled batches, a
``build(batch) -> Minibatch`` seam and one forward → backward → optimizer
step per batch (:func:`_train_step`), in one process — the paper trains
HAG offline as one job.  The entry points differ only in the ``build``
closure they hand the driver:

* :func:`train_parallel` — **presampled top-k replay**: the deterministic
  fanout policy (``rng=None``) is a pure function of the adjacency, so
  :class:`~repro.core.minibatch.PresampledGraph` selects once per run and
  every minibatch is a walk of serving's BFS over it;
* :func:`train_with_neighbor_sampling` — **per-batch weighted draws** from
  ``sample_khop_nodes(..., rng)`` over the config's ``sample`` stream,
  which depend on the stream position and so stay in the loop.

Where no row exceeds the fanout the two builds — and therefore the two
trained models — are bit-identical.

Everything after the node set is shared: one ``nodes -> Minibatch``
assembly (:func:`_minibatch_of` over the one inducer,
:func:`~repro.core.minibatch.induced_adjacencies`).  :class:`_Prefetcher`
double-buffers that assembly on a background thread so batch ``t+1`` is
built while batch ``t`` computes; it is always on (measured,
docs/PERFORMANCE.md), and the ``prefetch`` stage of the
:class:`~repro.obs.profiling.TrainProfiler` records only the time the
compute loop actually *waited*.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .. import nn
from ..nn import Tensor
from ..obs.profiling import NullProfiler, TrainProfiler
from .hag import prepare_aggregators
from .minibatch import (
    PresampledGraph,
    _check_graph,
    _check_indices,
    induced_adjacencies,
    sample_khop_nodes,
)
from .trainer import TrainConfig, TrainResult, _prepare, _run_protocol

__all__ = ["train_parallel", "train_with_neighbor_sampling"]


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
    profiler: TrainProfiler | NullProfiler,
) -> Minibatch:
    """The one ``nodes -> Minibatch`` assembly: induce, wrap, gather."""
    with profiler.stage("induction"):
        aggregators = prepare_aggregators(induced_adjacencies(adjacencies, nodes))
    with profiler.stage("gather"):
        batch_features = features[nodes]
        batch_labels = labels[batch]
    return Minibatch(batch, nodes, aggregators, batch_features, batch_labels)


def _train_step(
    model: nn.Module,
    params: Sequence[Tensor],
    optimizer: nn.Adam,
    mb: Minibatch,
    pos_weight: float,
    profiler: TrainProfiler | NullProfiler,
) -> float:
    """Forward, backward and one optimizer step on one minibatch; the loss.

    A parameter the batch's graph never reached steps on a zero gradient
    rather than being skipped, so Adam's moments still decay for it.
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
    for param in params:
        if param.grad is None:
            param.grad = np.zeros_like(param.data)
    with profiler.stage("step"):
        optimizer.step()
    optimizer.zero_grad()
    return float(loss.item())


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
# Entry points
# ----------------------------------------------------------------------
def train_parallel(
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
    """Sampled training under the deterministic (top-k) fanout policy.

    ``model.forward(x, aggregators)`` must accept a feature tensor and a
    list of per-type aggregation matrices (HAG's interface; the homogeneous
    baselines can be adapted with a single-element list).  The protocol is
    shuffled batches, weighted BCE, a per-epoch fanout-free validation
    subgraph, AUC early stopping and best-state restore; the fanout
    selection is hoisted out of the epoch loop into one
    :class:`PresampledGraph`, and each batch is a BFS replay over it.  The
    name is historical: the loop runs in one process.

    Randomness is threaded from ``config.seed`` through
    :meth:`TrainConfig.streams`: batch shuffling consumes the ``shuffle``
    stream and nothing else.
    """

    def make_build(csrs, features, labels, sample_rng, profiler):
        with profiler.stage("presample"):
            pre = PresampledGraph.build(csrs, fanout)

        def build(batch: np.ndarray) -> Minibatch:
            with profiler.stage("sampling"):
                nodes = pre.sample(batch, hops)
            return _minibatch_of(
                pre.adjacencies, features, labels, batch, nodes, profiler
            )

        return build

    return _train_sampled(
        model, adjacencies, features, labels, train_idx, val_idx,
        config or TrainConfig(batch_size=256),
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

    :func:`train_parallel`'s protocol and driver; only the node set
    differs.  Every batch re-draws its oversized rows' neighbours from
    ``sample_khop_nodes(..., rng)`` over the config's ``sample`` stream —
    the draw depends on the stream position, so it cannot be presampled.
    Where no row exceeds ``fanout`` no draw happens and the result is
    bit-identical to :func:`train_parallel`.
    """

    def make_build(csrs, features, labels, sample_rng, profiler):
        # ``[marks, stamp]`` of this run's draws: its own, not serving's,
        # since builds run on the prefetch thread.
        scratch = [np.empty(0, dtype=np.int64), 0]

        def build(batch: np.ndarray) -> Minibatch:
            with profiler.stage("sampling"):
                nodes = sample_khop_nodes(csrs, batch, hops, fanout, sample_rng, scratch)
            return _minibatch_of(csrs, features, labels, batch, nodes, profiler)

        return build

    return _train_sampled(
        model, adjacencies, features, labels, train_idx, val_idx,
        config or TrainConfig(batch_size=256),
        hops, fanout, profiler, make_build,
    )


def _train_sampled(
    model: nn.Module,
    adjacencies: Sequence[sp.spmatrix],
    features: np.ndarray,
    labels: np.ndarray,
    train_idx: np.ndarray,
    val_idx: np.ndarray | None,
    config: TrainConfig,
    hops: int,
    fanout: int | None,
    profiler: TrainProfiler | None,
    make_build: Callable,
) -> TrainResult:
    """The one sampled-training driver behind both public entry points.

    Rejects malformed inputs with a ``ValueError`` before anything is
    presampled, then runs the shared protocol with an epoch of shuffled
    batches.  ``make_build(csrs, features, labels, sample_rng, profiler)``
    is an entry point's whole contribution: it returns the
    ``batch -> Minibatch`` closure.
    """
    csrs = [a.tocsr() for a in adjacencies]
    n = _check_graph(csrs, fanout)
    if hops < 0:
        raise ValueError("hops must be non-negative")
    train_idx = _check_indices("train_idx", train_idx, n)
    if val_idx is not None:
        val_idx = _check_indices("val_idx", val_idx, n)
    profiler, labels, train_idx, pos_weight = _prepare(
        config, profiler, features, labels, train_idx, val_idx
    )
    if config.batch_size is None:
        raise ValueError("sampled training requires a batch size")
    features = np.asarray(features, dtype=np.float64)

    params = model.parameters()
    optimizer = nn.Adam(params, lr=config.lr, weight_decay=config.weight_decay)
    streams = config.streams()
    shuffle_rng = streams["shuffle"]
    build = make_build(csrs, features, labels, streams["sample"], profiler)

    def epoch_step() -> float:
        shuffled = shuffle_rng.permutation(train_idx)
        batches = [
            shuffled[i : i + config.batch_size]
            for i in range(0, len(shuffled), config.batch_size)
        ]
        epoch_loss = 0.0
        prefetcher = _Prefetcher(build, batches, profiler)
        try:
            for mb in prefetcher:
                loss = _train_step(model, params, optimizer, mb, pos_weight, profiler)
                epoch_loss += loss * len(mb.batch)
                profiler.count_batch(len(mb.nodes))
        finally:
            prefetcher.close()
        return epoch_loss

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
