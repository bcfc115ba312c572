"""Forked gradient workers for the parallel training engine.

A :class:`~repro.system.fork_pool.ForkPool` (fork context, pipe command
loop, death-on-next-call detection, ``start``/``finish`` pipelining, a
``crash`` hook for failover tests) whose command table serves training:
each worker attaches the
:class:`~repro.network.shm.SharedSnapshotStore` segment published by
:func:`publish_train_inputs` — the presampled CSRs
(:class:`~repro.core.train_engine.PresampledGraph` payload), the feature
matrix and the labels — unpickles the model once, and then serves
``gradients`` commands: given the current parameter state and a list of
batch id arrays, it assembles each minibatch and returns per-batch
gradient lists.

Bit-exactness contract: the worker routes through the *same*
``assemble_minibatch`` + ``_batch_gradient`` functions as the in-process
engine, over the same published arrays, at the same parameter state — so
a batch's gradient is bit-identical no matter which process computes it.
The parent performs the fixed-order fold; workers never reduce.

Timing contract: each ``gradients`` reply carries the worker's *in-child*
busy seconds (``perf_counter`` around the whole command).  On a
constrained CPU the parent can dispatch serially
(``serialize_dispatch=True``) so each span is measured uncontended, and
the benchmark combines them under the deployment clock exactly as
``bench_sharding`` does.

When the snapshot store runs in its in-process fallback mode (no POSIX
shared memory), the arrays travel to the fork as copy-on-write references
via the process ``args`` instead of a segment name — same arrays, zero
copies, no behavioural difference.
"""

from __future__ import annotations

import pickle
import time
from typing import Any

import numpy as np

from ..core.train_engine import (
    PresampledGraph,
    _batch_gradient,
    assemble_minibatch,
)
from ..network.shm import SegmentHandle, SharedSnapshotStore
from .fork_pool import ForkPool, WorkerState

__all__ = ["publish_train_inputs", "TrainWorkerPool"]


def publish_train_inputs(
    store: SharedSnapshotStore,
    presampled: PresampledGraph,
    features: np.ndarray,
    labels: np.ndarray,
    *,
    hops: int,
    version: int = 0,
) -> SegmentHandle:
    """Publish one segment holding everything a gradient worker reads.

    The presampled CSR parts are prefixed ``pg:`` (the
    ``SampledGraph``-style payload convention) next to the dense
    ``features`` / ``labels`` arrays, so one attach gives a worker the
    whole epoch-invariant input set.
    """
    pg_arrays, pg_meta = presampled.to_payload()
    arrays: dict[str, np.ndarray] = {
        f"pg:{key}": value for key, value in pg_arrays.items()
    }
    arrays["features"] = np.ascontiguousarray(features, dtype=np.float64)
    arrays["labels"] = np.ascontiguousarray(labels, dtype=np.float64)
    meta = {"presample": pg_meta, "hops": int(hops)}
    return store.publish("train-inputs", arrays, meta=meta, version=version)


# ----------------------------------------------------------------------
# Worker-side commands (run in the forked child)
# ----------------------------------------------------------------------
def _inputs(state: WorkerState, inputs: Any) -> None:
    if isinstance(inputs, str):
        (segment,) = state.attach("inputs", [inputs])
        arrays, meta = segment.arrays, segment.meta
    else:
        arrays, meta = inputs  # in-process fallback: fork-inherited references
    state.views.update(
        presampled=PresampledGraph.from_payload(
            {k[3:]: v for k, v in arrays.items() if k.startswith("pg:")},
            meta["presample"],
        ),
        features=arrays["features"],
        labels=arrays["labels"],
        hops=int(meta["hops"]),
    )


def _model(state: WorkerState, payload: tuple[bytes, int]) -> int:
    blob, seed = payload
    bundle = pickle.loads(blob)  # only what the parent itself serialized
    model = bundle["model"]
    model.train()
    params = model.parameters()
    state.views.update(
        model=model,
        params=params,
        pos_weight=float(bundle["pos_weight"]),
        # seeded per worker; reserved for stochastic stages
        rng=np.random.default_rng(seed),
    )
    return len(params)


def _gradients(state: WorkerState, payload: Any) -> tuple:
    views = state.views
    if "model" not in views:
        raise RuntimeError("no model loaded")
    param_state, wire_batches = payload
    started = time.perf_counter()
    model, params = views["model"], views["params"]
    for param, array in zip(params, param_state):
        param.data = np.asarray(array, dtype=np.float64)
    grads_out, losses, node_counts = [], [], []
    for batch in wire_batches:
        mb = assemble_minibatch(
            views["presampled"],
            views["features"],
            views["labels"],
            np.asarray(batch, dtype=np.int64),
            views["hops"],
        )
        grads, loss = _batch_gradient(model, params, mb, views["pos_weight"])
        grads_out.append(grads)
        losses.append(loss)
        node_counts.append(len(mb.nodes))
    busy = time.perf_counter() - started
    return grads_out, losses, node_counts, busy


_COMMANDS = {"inputs": _inputs, "model": _model, "gradients": _gradients}


class TrainWorkerPool(ForkPool):
    """A fleet of forked gradient workers over one published input segment.

    The fork context means the parent's imports and the fallback-mode
    input arrays are inherited copy-on-write; a dead worker comes back as
    ``None`` so the engine can fail its batches over to in-process
    computation.  The model payload (plus a per-worker seed from the
    config's ``workers`` stream) is replayed whenever a worker is spawned,
    so scaling up mid-run yields workers indistinguishable from the
    originals.
    """

    commands = _COMMANDS
    label = "train worker"

    def __init__(
        self,
        inputs: Any,
        n_workers: int,
        model_payload: bytes | None = None,
        worker_seeds: list[int] | None = None,
        timeout: float = 120.0,
    ) -> None:
        self._inputs = inputs
        self._model_payload = model_payload
        self._worker_seeds = list(worker_seeds or [])
        super().__init__(n_workers, timeout)

    def _startup(self) -> tuple[str, Any]:
        return "inputs", self._inputs

    def _on_spawn(self, worker_id: int) -> None:
        if self._model_payload is not None:
            seed = (
                self._worker_seeds[worker_id]
                if worker_id < len(self._worker_seeds)
                else worker_id
            )
            self.call(worker_id, "model", (self._model_payload, seed))

    # -- convenience wrappers (the engine's vocabulary) -----------------
    def gradients(
        self, worker_id: int, state: list[np.ndarray], batches: list[np.ndarray]
    ) -> Any:
        """Blocking per-batch gradient computation on one worker."""
        return self.call(worker_id, "gradients", (state, batches))

    def start_gradients(
        self, worker_id: int, state: list[np.ndarray], batches: list[np.ndarray]
    ) -> bool:
        """Pipelined variant of :meth:`gradients` (collect with finish)."""
        return self.start(worker_id, "gradients", (state, batches))
