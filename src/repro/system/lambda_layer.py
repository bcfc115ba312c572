"""Lambda-architecture speed layer: serve from precomputed state + deltas.

The batch layer (:func:`repro.core.lambda_infer.materialize`) periodically
replays the exact serving path over every known user — or, on a refresh,
over the cone of what changed — and checkpoints the resulting
:class:`~repro.core.lambda_infer.HAGState`.  This module is the online
half:

* :class:`LambdaLayer` owns the current state — runs batch passes
  (checkpointed through :class:`~repro.system.storage.LocalDatabase`),
  answers point lookups with bounded-staleness accounting, and refreshes
  on a configured period;
* :class:`DeltaSampler` is the :class:`~repro.system.service.Sampler`
  tier a lambda deployment installs on the BN server: cache hits never
  reach it (``Turbo`` serves them before the sampling stage), so every
  batch it *does* see is fallthrough work — which it meters, making the
  delta path's sampled-subgraph savings directly observable as
  ``turbo.lambda.*`` metrics.

Staleness of a cached score is the number of delta edge touches
(:meth:`~repro.network.bn.BehaviorNetwork.track_deltas`) that landed
inside the score's cached subgraph node set — a conservative superset of
what could have changed it, and exactly zero when no edges arrived since
the batch pass.  A request whose staleness exceeds the configured budget
falls through to the exact sampled path; at zero delta the cached score
is bit-exact with that path, so serving it is a pure latency win.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.lambda_infer import HAGState, MaterializeStats, allowed_digest, materialize
from ..network.sampling import BatchSampleStats
from ..obs.tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..obs.metrics import MetricsRegistry
    from .bn_server import BNServer
    from .feature_server import FeatureServer
    from .prediction_server import PredictionServer
    from .service import Sampler
    from .storage import LocalDatabase

__all__ = ["DeltaSampler", "LambdaLayer"]

#: Storage coordinates of the batch-layer checkpoint.
_CHECKPOINT_TABLE = "lambda_state"
_CHECKPOINT_KEY = "hag_state"


@dataclass(frozen=True, slots=True)
class LambdaHit:
    """One cache hit: the precomputed score and its staleness price."""

    score: float
    staleness: int
    position: int


class LambdaLayer:
    """The online delta layer over one checkpointable batch-pass state.

    ``hops`` / ``fanout`` / ``allowed`` mirror the deployment's sampling
    policy so the replayed scores are the ones the fresh path would
    compute; context feature rows are read from (and left in) the feature
    server's context-row store, shared with serving and earlier passes.
    ``refresh_period`` (simulated seconds, ``None`` = manual only) drives
    :meth:`maybe_refresh`; ``staleness_budget`` is the maximum delta-touch
    count a served cached score may carry.
    """

    def __init__(
        self,
        bn_server: "BNServer",
        feature_server: "FeatureServer",
        prediction_server: "PredictionServer",
        database: "LocalDatabase",
        tracer: Tracer | None = None,
        *,
        hops: int = 2,
        fanout: int | None = 25,
        allowed: set[int] | None = None,
        refresh_period: float | None = None,
        staleness_budget: int = 0,
        component: str = "lambda_layer",
    ) -> None:
        self.bn_server = bn_server
        self.feature_server = feature_server
        self.prediction_server = prediction_server
        self.database = database
        self.tracer = tracer
        self.hops = hops
        self.fanout = fanout
        self.allowed = allowed
        self.refresh_period = refresh_period
        self.staleness_budget = staleness_budget
        self.component = component
        self.metrics: "MetricsRegistry | None" = None
        self.state: HAGState | None = None
        self.last_pass_at: float | None = None
        self.batch_passes = 0
        self.incremental_passes = 0
        self.last_materialize: MaterializeStats | None = None
        self.hits = 0
        self.misses = {"uncovered": 0, "stale": 0, "unbound": 0}
        self.fallthrough_requests = 0
        self.fallthrough_nodes = 0
        self._bn: Any = None  # the network object the current state replayed
        self._delta_cache: tuple[tuple[int, int], dict[int, int]] | None = None

    # ------------------------------------------------------------------
    # Batch layer
    # ------------------------------------------------------------------
    def _targets(self) -> list[tuple[int, int, float]]:
        """``(uid, txn_id, now)`` per precomputable user, sorted by uid.

        Covers every known user inside the sampling policy's ``allowed``
        set that exists in the BN.  The cached ``now`` is the user's
        latest application's audit time — the as-of time a replay or an
        audit-time request would resolve to.
        """
        bn = self.bn_server.bn
        present = set(bn.nodes())
        rows: list[tuple[int, int, float]] = []
        for uid in self.feature_server.known_users():
            if self.allowed is not None and uid not in self.allowed:
                continue
            if uid not in present:
                continue
            txn = self.feature_server.latest_transaction(uid)
            rows.append((uid, int(txn.txn_id), float(txn.audit_at)))
        return rows

    def run_batch_pass(self, now: float) -> tuple[HAGState, BatchSampleStats]:
        """One full batch pass at simulated time ``now``.

        Computes the exact serving-path score for every target
        (:func:`repro.core.lambda_infer.materialize` without a prior, over
        the live network's read index), checkpoints the state to storage,
        and resets delta tracking so staleness counts start from this pass.

        The pass is traced as one ``lambda_batch`` root span with a
        ``lambda_materialize`` child timed on the wall clock; its
        charged duration (the packed model forwards plus the checkpoint
        write) is metered under ``turbo.lambda.*`` but never billed to any
        request.
        """
        return self._run_pass(now, prior=None)

    def run_incremental_pass(self, now: float) -> tuple[HAGState, BatchSampleStats]:
        """Refresh the state by recomputing only the delta's affected cone.

        Extends the current state when it is a valid ancestor
        (:meth:`_ancestor`); anything else runs a full pass, so the call
        always leaves a fresh state behind.  Work is O(affected): only
        targets within ``hops`` of a touched node (plus targets whose
        feature provenance changed) are rescored — everything else is a
        byte-copy of the prior state.
        """
        return self._run_pass(now, prior=self._ancestor())

    def _ancestor(self) -> HAGState | None:
        """The current state, if a cone refresh may extend it (else ``None``).

        A valid ancestor was computed against the live BN *object* with
        delta tracking on ever since (so ``delta_touched`` accounts for
        every change between the two versions), under this layer's
        ``hops`` / ``fanout`` / ``allowed``.  Everything
        :func:`~repro.core.lambda_infer.materialize` can still raise with
        such a prior is a bug, and propagates.
        """
        state = self.state
        bn = self.bn_server.bn
        if state is None or self._bn is not bn or not bn.delta_tracking():
            return None
        return state if self._same_policy(state) else None

    def _same_policy(self, state: HAGState) -> bool:
        """Whether ``state`` was scored under this layer's sampling policy."""
        return (
            state.hops == self.hops
            and state.fanout == self.fanout
            and state.allowed == allowed_digest(self.allowed)
        )

    def _run_pass(
        self, now: float, *, prior: HAGState | None
    ) -> tuple[HAGState, BatchSampleStats]:
        feature_manager = self.feature_server.feature_manager
        scaler = self.prediction_server.scaler
        latency = self.prediction_server.latency
        bn = self.bn_server.bn

        rows = self._targets()
        targets = [uid for uid, _, _ in rows]
        txn_ids = [txn_id for _, txn_id, _ in rows]
        nows = [as_of for _, _, as_of in rows]

        root = None
        if self.tracer is not None:
            root = self.tracer.start_trace(
                "lambda_batch", at=now, targets=len(targets)
            )

        # Context rows come from the feature server's store (class docstring).
        context_row = self.feature_server.context_row

        # Subgraph sizes scored in this process (a cone refresh scores a
        # subset; the deployment clock charges only that work).
        computed_sizes: list[int] = []

        def feature_fn(k: int, nodes) -> np.ndarray:
            computed_sizes.append(len(nodes))
            matrix_rows = [feature_manager.vector(
                self.feature_server.latest_transaction(targets[k]), as_of=nows[k]
            )]
            matrix_rows.extend(context_row(uid) for uid in nodes[1:])
            return np.stack(matrix_rows)

        wall_start = time.perf_counter()
        state, stats, mstats = materialize(
            self.prediction_server.model,
            bn,
            targets,
            txn_ids,
            nows,
            feature_fn,
            hops=self.hops,
            fanout=self.fanout,
            edge_type_order=self.prediction_server.edge_type_order,
            allowed=self.allowed,
            transform=scaler.transform,
            prior=prior,
            touched=None if prior is None else self._delta_touched(),
        )
        wall_seconds = time.perf_counter() - wall_start

        charged = sum(latency.charge_model_forward_batch(computed_sizes))
        charged += self.database.put(
            _CHECKPOINT_TABLE, _CHECKPOINT_KEY, state.to_arrays()
        )

        self.state = state
        self._bn = bn
        self._delta_cache = None
        bn.track_deltas()
        self.last_pass_at = now
        self.batch_passes += 1
        self.last_materialize = mstats
        if prior is not None:
            self.incremental_passes += 1

        if self.metrics is not None:
            self.metrics.counter("turbo.lambda.batch_passes").inc()
            self.metrics.histogram("turbo.lambda.batch_seconds").observe(charged)
            self.metrics.gauge("turbo.lambda.covered_nodes").set(state.num_nodes)
            self.metrics.gauge("turbo.lambda.bn_version").set(state.bn_version)
            self.metrics.counter("turbo.lambda.materialize.rows").inc(
                mstats.rows_computed
            )
            self.metrics.counter("turbo.lambda.materialize.edges").inc(
                mstats.edges_touched
            )
            self.metrics.histogram(
                "turbo.lambda.materialize.wall_seconds"
            ).observe(wall_seconds)
            self.metrics.histogram(
                "turbo.lambda.materialize.clock_seconds"
            ).observe(charged)
        if root is not None:
            root.annotate("bn_version", state.bn_version)
            root.annotate("covered_nodes", state.num_nodes)
            root.annotate("sampled_nodes", stats.sampled_nodes)
            mat_span = root.child("lambda_materialize", now)
            mat_span.annotate("mode", mstats.mode)
            mat_span.annotate("rows_computed", mstats.rows_computed)
            mat_span.annotate("edges_touched", mstats.edges_touched)
            mat_span.annotate("slices", mstats.slices)
            mat_span.finish(wall_seconds)
            self.tracer.finish_trace(root, charged)
        return state, stats

    def maybe_refresh(self, now: float) -> bool:
        """Run a batch pass when the refresh period elapsed; ``True`` if run.

        A cone refresh when the current state is a valid ancestor of the
        live BN (:meth:`_ancestor`); otherwise — first pass, rebound
        network — a full sweep.
        """
        if self.refresh_period is None:
            return False
        if self.last_pass_at is not None and now - self.last_pass_at < self.refresh_period:
            return False
        self.run_incremental_pass(now)
        return True

    def load_checkpoint(self) -> HAGState | None:
        """Rebuild the last checkpointed state from storage (recovery path).

        Installs it as the serving state only when it was computed under
        this layer's ``hops`` / ``fanout`` / ``allowed`` (otherwise its
        scores are not what this layer's fresh path computes), still
        matches the live BN version *and* delta tracking survived
        (otherwise staleness since the pass is unaccountable and serving
        it would be unsafe); the deserialized state is returned either
        way.  A payload :meth:`HAGState.from_arrays` rejects (truncated or
        corrupt checkpoint) is no checkpoint: ``None``, nothing installed.
        """
        rows, _seconds = self.database.query(_CHECKPOINT_TABLE, _CHECKPOINT_KEY)
        if not rows or rows[0] is None:
            return None
        try:
            state = HAGState.from_arrays(rows[0])
        except ValueError:
            return None
        bn = self.bn_server.bn
        if (
            self._same_policy(state)
            and state.bn_version == int(bn.version)
            and bn.delta_tracking()
        ):
            self.state = state
            self._bn = bn
            self._delta_cache = None
        return state

    # ------------------------------------------------------------------
    # Speed layer
    # ------------------------------------------------------------------
    def _delta_touched(self) -> dict[int, int]:
        """Per-node touch counts since the batch pass (memoized per epoch)."""
        bn = self._bn
        key = (int(bn.version), int(bn.delta_size()))
        cached = self._delta_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        touched = bn.delta_touched()
        self._delta_cache = (key, touched)
        return touched

    def _miss(self, reason: str) -> None:
        self.misses[reason] += 1
        if self.metrics is not None:
            self.metrics.counter("turbo.lambda.misses").inc()
            self.metrics.counter(f"turbo.lambda.miss.{reason}").inc()

    def lookup(self, uid: int, txn_id: int, now: float) -> LambdaHit | None:
        """Cached score for ``(uid, txn_id, now)`` within the staleness budget.

        ``None`` means the request must take the fresh sampled path:
        the target is uncovered (unknown user, newer transaction, or a
        different as-of time than the score was computed for), the cached
        subgraph absorbed more delta edge touches than the budget allows,
        or the state no longer binds to the live network object.
        """
        state = self.state
        if state is None:
            return None
        if self.bn_server.bn is not self._bn or not self._bn.delta_tracking():
            self._miss("unbound")
            return None
        found = state.lookup(uid, txn_id, now)
        if found is None:
            self._miss("uncovered")
            return None
        score, position = found
        staleness = state.staleness_of(position, self._delta_touched())
        if staleness > self.staleness_budget:
            self._miss("stale")
            return None
        self.hits += 1
        if self.metrics is not None:
            self.metrics.counter("turbo.lambda.hits").inc()
            self.metrics.histogram("turbo.lambda.staleness").observe(float(staleness))
        return LambdaHit(score=score, staleness=staleness, position=position)

    def record_fallthrough(self, stats: BatchSampleStats) -> None:
        """Meter one fresh-path batch served because the cache could not."""
        self.fallthrough_requests += stats.requests
        self.fallthrough_nodes += stats.sampled_nodes
        if self.metrics is not None:
            self.metrics.counter("turbo.lambda.fallthrough_requests").inc(
                stats.requests
            )
            self.metrics.counter("turbo.lambda.fallthrough_nodes").inc(
                stats.sampled_nodes
            )

    # ------------------------------------------------------------------
    # Introspection (CLI / dashboards)
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Stable component name."""
        return self.component

    def stats(self) -> dict[str, float]:
        """Flat counter dict: refresh state, hit/miss mix, delta pressure."""
        state = self.state
        delta_size = 0.0
        if self._bn is not None and self._bn.delta_tracking():
            delta_size = float(self._bn.delta_size())
        last = self.last_materialize
        return {
            "batch_passes": float(self.batch_passes),
            "incremental_passes": float(self.incremental_passes),
            "materialize_rows": float(last.rows_computed if last is not None else -1),
            "materialize_edges": float(last.edges_touched if last is not None else -1),
            "covered_nodes": float(state.num_nodes if state is not None else 0),
            "bn_version": float(state.bn_version if state is not None else -1),
            "last_pass_at": float(
                self.last_pass_at if self.last_pass_at is not None else -1.0
            ),
            "refresh_period": float(
                self.refresh_period if self.refresh_period is not None else -1.0
            ),
            "staleness_budget": float(self.staleness_budget),
            "hits": float(self.hits),
            "misses_uncovered": float(self.misses["uncovered"]),
            "misses_stale": float(self.misses["stale"]),
            "misses_unbound": float(self.misses["unbound"]),
            "fallthrough_requests": float(self.fallthrough_requests),
            "fallthrough_nodes": float(self.fallthrough_nodes),
            "delta_size": delta_size,
        }


class DeltaSampler:
    """The lambda deployment's :class:`~repro.system.service.Sampler` tier.

    Wraps the deployment's underlying tier (local batch sampler or shard
    router).  Cache hits are served by ``Turbo`` before the sampling stage
    runs, so every batch reaching this sampler is delta-budget fallthrough
    — forwarded verbatim to the inner tier and metered on the layer.
    """

    tier = "lambda"

    def __init__(self, layer: LambdaLayer, inner: "Sampler") -> None:
        self.layer = layer
        self.inner = inner

    def sample_batch(
        self,
        targets,
        hops: int = 2,
        fanout: int | None = 25,
        allowed: set[int] | None = None,
        now: float = 0.0,
    ):
        """Forward to the wrapped tier, metering the fallthrough work."""
        subgraphs, stats, gate_seconds = self.inner.sample_batch(
            targets, hops=hops, fanout=fanout, allowed=allowed, now=now
        )
        self.layer.record_fallthrough(stats)
        return subgraphs, stats, gate_seconds
