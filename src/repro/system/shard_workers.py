"""Forked serving workers over the published shard index.

:class:`ShardWorkerPool` is the OS-level parallel half of sharded
serving: worker *processes* attach the segments a
:class:`~repro.system.shard_router.ShardRouter` published, rebuild the
read-only :class:`~repro.network.sharding.ShardIndex` zero-copy, and serve
whole sampling / packed-HAG-inference / lambda-lookup / full-graph
materialization sub-batches — ``sample``/``predict`` results are
bit-identical to the parent's, and a crashed worker is detected and failed
over in-process without losing the segment (the publisher owns unlink).

The process lifecycle and pipe protocol are
:class:`~repro.system.fork_pool.ForkPool`'s; this module contributes the
command table (``_COMMANDS``), the model-payload replay, autoscaling and
the typed wrappers.
"""

from __future__ import annotations

import pickle
from typing import Any, Sequence

import numpy as np

from ..core.lambda_infer import HAGState, SliceResult, score_slice
from ..network.sampled_graph import SampledGraph
from ..network.sampling import (
    BatchSampleStats,
    ComputationSubgraph,
    computation_subgraphs_batch,
)
from ..network.sharding import ShardIndex
from ..network.shm import SharedSnapshotStore
from .fork_pool import ForkPool, WorkerState
from .storage import StorageError

__all__ = ["publish_materialize_inputs", "fullgraph_executor", "ShardWorkerPool"]


def publish_materialize_inputs(
    store: SharedSnapshotStore,
    name: str,
    sampled: SampledGraph,
    uids: np.ndarray,
    context_rows: np.ndarray,
    target_rows: np.ndarray,
    *,
    hops: int,
    allowed_mask: np.ndarray | None = None,
):
    """Publish one full-graph sweep's worker inputs as a single segment.

    The segment bundles the :class:`SampledGraph` payload (``sg:``-prefixed
    arrays), the sorted target ``uids``, the per-graph-position raw context
    feature rows, and the per-target raw transaction feature rows — all a
    ``materialize`` worker command needs besides the model bundle.  Returns
    the publish handle; pass ``handle.segment`` to
    :meth:`ShardWorkerPool.materialize_attach`.
    """
    sg_arrays, sg_meta = sampled.to_payload()
    arrays = {f"sg:{key}": value for key, value in sg_arrays.items()}
    arrays["uids"] = np.asarray(uids, dtype=np.int64)
    arrays["context_rows"] = np.asarray(context_rows, dtype=np.float64)
    arrays["target_rows"] = np.asarray(target_rows, dtype=np.float64)
    if allowed_mask is not None:
        arrays["allowed_mask"] = allowed_mask.astype(np.uint8)
    meta = {"sampled": sg_meta, "hops": int(hops)}
    return store.publish(name, arrays, meta, version=sampled.version)


def fullgraph_executor(pool: "ShardWorkerPool"):
    """Executor over a worker pool for a full
    :func:`~repro.core.lambda_infer.materialize` sweep.

    Returns a callable mapping the sweep's ``(lo, hi)`` bounds to
    :class:`SliceResult`s: bounds are assigned round-robin over the live
    workers, all commands are pipelined before any result is collected
    (workers score their slices concurrently), and a dead worker's slots
    come back ``None`` — ``materialize`` recomputes those slices
    in-process, so worker loss degrades throughput, never correctness.
    The pool must have model and materialize inputs attached
    (:meth:`ShardWorkerPool.materialize_attach`).
    """

    def executor(
        bounds: Sequence[tuple[int, int]],
    ) -> list[SliceResult | None]:
        results: list[SliceResult | None] = [None] * len(bounds)
        workers = [w for w in range(pool.n_workers) if pool.alive(w)]
        if not workers:
            return results
        assigned: dict[int, list[int]] = {}
        for i in range(len(bounds)):
            assigned.setdefault(workers[i % len(workers)], []).append(i)
        for worker_id, slots in assigned.items():
            for i in slots:
                if not pool.start(worker_id, "materialize", tuple(bounds[i])):
                    break
        for worker_id, slots in assigned.items():
            for i in slots:
                value = pool.finish(worker_id)
                if value is None:
                    break
                results[i] = SliceResult.from_arrays(value)
        return results

    return executor


# ----------------------------------------------------------------------
# Worker-side commands (run in the forked child)
# ----------------------------------------------------------------------
def _attach(state: WorkerState, segments: list[str]) -> int:
    # Feature segments belong to the index version they were published
    # next to; a re-attach drops them so they are mapped afresh.
    for name in state.views.pop("features", ()):
        state.release(name)
    state.views["features"] = {}
    state.views.pop("index", None)
    attached = state.attach("index", segments)
    arrays: dict[str, np.ndarray] = {}
    meta: dict[str, Any] = {}
    for seg in attached:
        arrays.update(seg.arrays)
        if "types" in seg.meta:
            meta = seg.meta
    index = state.views["index"] = ShardIndex.from_payload(arrays, meta)
    return index.version


def _sample(state: WorkerState, payload: Any) -> tuple:
    targets, hops, fanout, allowed = payload
    return computation_subgraphs_batch(
        state.views["index"], targets, hops=hops, fanout=fanout, allowed=allowed
    )


def _model(state: WorkerState, payload: bytes) -> None:
    # Unpickles only what the parent process itself serialized.
    state.views["bundle"] = pickle.loads(payload)


def _bundle(state: WorkerState) -> dict[str, Any]:
    bundle = state.views.get("bundle")
    if bundle is None:
        raise RuntimeError("no model loaded")
    return bundle


def _predict(state: WorkerState, payload: Any) -> tuple:
    targets, hops, fanout, features = payload
    if isinstance(features, str):
        cache = state.views["features"]
        if features not in cache:
            (segment,) = state.attach(features, [features])
            cache[features] = segment.arrays["features"]
        features = cache[features]
    subgraphs, stats = computation_subgraphs_batch(
        state.views["index"], targets, hops=hops, fanout=fanout
    )
    bundle = _bundle(state)
    scaled = [
        bundle["scaler"].transform(features[np.asarray(sub.nodes, dtype=np.int64)])
        for sub in subgraphs
    ]
    probabilities = bundle["model"].predict_subgraphs(
        subgraphs, scaled, edge_type_order=bundle["edge_type_order"]
    )
    return list(probabilities), stats


def _lambda_attach(state: WorkerState, segment: str) -> int:
    state.views.pop("lambda", None)
    (attached,) = state.attach("lambda", [segment])
    lambda_state = state.views["lambda"] = HAGState.from_arrays(attached.arrays)
    return lambda_state.bn_version


def _lambda_lookup(state: WorkerState, triples: Any) -> list[float | None]:
    lambda_state = state.views.get("lambda")
    if lambda_state is None:
        raise RuntimeError("no lambda state attached")
    scores: list[float | None] = []
    for uid, txn_id, at in triples:
        hit = lambda_state.lookup(int(uid), int(txn_id), float(at))
        scores.append(None if hit is None else float(hit[0]))
    return scores


def _materialize_attach(state: WorkerState, segment: str) -> int:
    # One published segment carries the whole sweep's inputs: the
    # SampledGraph payload (``sg:`` prefix), the sorted target uids,
    # per-position context feature rows, and per-target transaction
    # feature rows.
    state.views.pop("materialize", None)
    (attached,) = state.attach("materialize", [segment])
    arrays, meta = attached.arrays, attached.meta
    sampled = SampledGraph.from_payload(
        {key[3:]: value for key, value in arrays.items() if key.startswith("sg:")},
        meta["sampled"],
    )
    state.views["materialize"] = {
        "sampled": sampled,
        "uids": np.asarray(arrays["uids"], dtype=np.int64),
        "context_rows": arrays["context_rows"],
        "target_rows": arrays["target_rows"],
        "allowed_mask": (
            np.asarray(arrays["allowed_mask"], dtype=bool)
            if "allowed_mask" in arrays
            else None
        ),
        "hops": int(meta["hops"]),
    }
    return sampled.version


def _materialize(state: WorkerState, bounds: tuple[int, int]) -> dict:
    mat = state.views.get("materialize")
    if mat is None:
        raise RuntimeError("no materialize inputs attached")
    bundle = _bundle(state)
    lo, hi = bounds
    sampled = mat["sampled"]
    context_rows = mat["context_rows"]
    target_rows = mat["target_rows"]

    def feature_fn(k: int, nodes: Any) -> np.ndarray:
        plist = sampled.positions_of(np.asarray(nodes, dtype=np.int64))
        rows = context_rows[np.maximum(plist, 0)]
        rows[0] = target_rows[k]
        return rows

    result = score_slice(
        bundle["model"],
        sampled,
        mat["uids"],
        np.arange(lo, hi, dtype=np.int64),
        feature_fn,
        hops=mat["hops"],
        edge_type_order=bundle["edge_type_order"],
        allowed_mask=mat["allowed_mask"],
        transform=bundle["scaler"].transform,
    )
    return result.to_arrays()


_COMMANDS = {
    "attach": _attach,
    "sample": _sample,
    "model": _model,
    "predict": _predict,
    "lambda_attach": _lambda_attach,
    "lambda_lookup": _lambda_lookup,
    "materialize_attach": _materialize_attach,
    "materialize": _materialize,
}


class ShardWorkerPool(ForkPool):
    """A fleet of forked worker processes serving from shared segments.

    Every worker maps the *whole* published index read-only (it is one
    shared segment set — per-worker memory cost is the mapping, not a copy),
    so any worker serves whole sub-batches (``sample``/``predict``), which
    is how the benchmark partitions request load across workers.

    The pool satisfies the :class:`~repro.system.service.Service` protocol
    (``name``/``ping``/``stats``/``handle``) and is autoscaling-aware:
    :meth:`scale_to` forks additional workers against the stored segment
    set (re-sending the model payload) or retires workers from the tail,
    so the :class:`~repro.system.queue.Autoscaler` can drive a forked pool
    exactly like the in-process simulated one.
    """

    commands = _COMMANDS
    label = "shard worker"

    def __init__(
        self,
        segments: list[str],
        n_workers: int,
        model_payload: bytes | None = None,
        timeout: float = 60.0,
    ) -> None:
        self._segments = list(segments)
        self._model_payload = model_payload
        self._scale_ups = 0
        self._scale_downs = 0
        super().__init__(n_workers, timeout)

    def _startup(self) -> tuple[str, Any]:
        return "attach", list(self._segments)

    def _on_spawn(self, worker_id: int) -> None:
        if self._model_payload is not None:
            self.call(worker_id, "model", self._model_payload)

    # ------------------------------------------------------------------
    # Service protocol + autoscaling surface
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Stable component name (``Service`` protocol)."""
        return "shard_worker_pool"

    @property
    def size(self) -> int:
        """Workers currently able to serve (the autoscaler's pool size)."""
        return self.alive_count()

    def ping(self) -> float:
        """Liveness probe; raises when no worker process can serve."""
        for worker_id in range(self.n_workers):
            if self.call(worker_id, "ping") is not None:
                return 0.0
        raise StorageError("no live shard workers in the pool")

    def stats(self) -> dict[str, float]:
        """Flat dict of pool counters (dashboard snapshot)."""
        return {
            "workers": float(self.n_workers),
            "alive": float(self.alive_count()),
            "scale_ups": float(self._scale_ups),
            "scale_downs": float(self._scale_downs),
        }

    def handle(self, request: Any, span: Any = None) -> tuple[Any, float]:
        """Serve one ``(worker_id, command, payload)`` round-trip.

        Returns ``(value, 0.0)`` — worker round-trips are real wall time,
        not charged simulated seconds, so nothing is added to a breakdown.
        """
        worker_id, command, payload = request
        return self.call(worker_id, command, payload), 0.0

    def scale_to(self, n: int, now: float = 0.0) -> int:
        """Grow/shrink the pool to ``n`` live workers; returns the new size.

        Growth forks fresh processes against the stored segment set (and
        replays the model payload); shrinking retires workers from the
        tail.  ``now`` is accepted for interface parity with the
        simulated pool (forked workers are usable as soon as the fork
        returns).
        """
        if n < 1:
            raise ValueError("cannot scale below one worker")
        while self.alive_count() < n:
            self._spawn_worker()
            self._scale_ups += 1
        while self.n_workers > n and self.alive_count() > n:
            self._retire_worker()
            self._scale_downs += 1
        return self.alive_count()

    # ------------------------------------------------------------------
    # Typed command wrappers
    # ------------------------------------------------------------------
    def materialize_attach(self, worker_id: int, segment: str) -> int | None:
        """Attach one published full-graph sweep input segment zero-copy.

        The segment comes from :func:`publish_materialize_inputs`.  Returns
        the attached :class:`SampledGraph`'s BN version, or ``None`` when
        the worker is dead.
        """
        return self.call(worker_id, "materialize_attach", str(segment))

    def materialize_slice(self, worker_id: int, lo: int, hi: int) -> SliceResult | None:
        """Score one ``[lo, hi)`` slice of the attached sweep's targets."""
        value = self.call(worker_id, "materialize", (int(lo), int(hi)))
        if value is None:
            return None
        return SliceResult.from_arrays(value)

    def sample(
        self,
        worker_id: int,
        targets: Sequence[int],
        hops: int = 2,
        fanout: int | None = 25,
        allowed: set[int] | None = None,
    ) -> tuple[list[ComputationSubgraph], BatchSampleStats] | None:
        """Sample a sub-batch on one worker (None when the worker is dead)."""
        return self.call(
            worker_id, "sample", ([int(t) for t in targets], hops, fanout, allowed)
        )

    def predict(
        self,
        worker_id: int,
        targets: Sequence[int],
        features: np.ndarray | str,
        hops: int = 2,
        fanout: int | None = 25,
    ) -> tuple[list[float], BatchSampleStats] | None:
        """Sample + packed HAG inference for a sub-batch on one worker.

        ``features`` is a uid-indexed matrix, either inline or the name of
        a published feature segment the worker attaches zero-copy.
        """
        return self.call(
            worker_id, "predict", ([int(t) for t in targets], hops, fanout, features)
        )

    def lambda_attach(self, worker_id: int, segment: str) -> int | None:
        """Attach one published lambda (cached HAG state) segment zero-copy.

        Returns the attached state's BN version, or ``None`` when the
        worker is dead.
        """
        return self.call(worker_id, "lambda_attach", str(segment))

    def lambda_lookup(
        self, worker_id: int, triples: Sequence[tuple[int, int, float]]
    ) -> list[float | None] | None:
        """Serve cached scores for ``(uid, txn_id, now)`` triples.

        Each slot is the cached probability, or ``None`` when the triple
        misses the attached state (uncovered uid or a different
        transaction).  The whole call returns ``None`` when the worker is
        dead; staleness gating stays with the parent's
        :class:`~repro.system.lambda_layer.LambdaLayer`, which owns the
        delta index.
        """
        wire = [(int(u), int(t), float(at)) for u, t, at in triples]
        return self.call(worker_id, "lambda_lookup", wire)

    def reattach(self, segments: list[str]) -> int:
        """Point every live worker at a newly published segment set."""
        updated = 0
        for worker_id in range(self.n_workers):
            if self.call(worker_id, "attach", list(segments)) is not None:
                updated += 1
        return updated
