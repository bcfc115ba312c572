"""The Turbo orchestrator: the online anti-fraud pipeline of Fig. 2.

A prediction request for application ``tau`` of user ``u``:

1. the prediction server asks the BN server to sample ``u``'s computation
   subgraph;
2. the feature management module assembles features for every subgraph node;
3. HAG scores the target; the client gets the probability plus the decision
   at the configured threshold (0.85 in the deployed system).

Each step's latency is charged against the latency model and reported in the
response, which is what the Fig. 8a / Section V benchmarks aggregate.

Observability (PR 3, ``docs/OBSERVABILITY.md``): every request produces one
closed trace — a span tree ``request -> bn_sample / feature_fetch /
inference`` (plus ``fallback`` when degraded) whose durations are the
charged seconds of each :class:`~repro.system.latency.LatencyBreakdown`
slot, bit-for-bit.  The :class:`~repro.system.monitoring.SystemMonitor` is
a view over a :class:`~repro.obs.metrics.MetricsRegistry` exposed as
:attr:`Turbo.metrics`.  The four servers share the
:class:`~repro.system.service.Service` protocol (:attr:`Turbo.services`).

Resilience (Section V's production claims, ``docs/RESILIENCE.md``): the
graph path runs under a bounded :class:`~repro.system.faults.RetryPolicy`
and a :class:`~repro.system.faults.CircuitBreaker`, with an optional
per-request latency budget.  When the graph path is down, over budget, or
short-circuited, the request degrades to the pre-Turbo production models
(scorecard, then block-list, then reject) via
:class:`~repro.baselines.fallback.FallbackStack` — :meth:`Turbo.predict`
never raises on component failure, and every response is tagged with the
degradation level that served it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..baselines.blocklist import Blocklist
from ..baselines.fallback import FallbackStack
from ..baselines.scorecard import default_scorecard
from ..core.hag import HAG, prepare_aggregators
from ..core.trainer import TrainConfig, train_node_classifier
from ..datagen.entities import Dataset, Transaction
from ..eval.runner import ExperimentData, prepare_experiment
from ..features.pipeline import StandardScaler
from ..obs.metrics import MetricsRegistry
from ..obs.profiling import TrainProfiler
from ..obs.tracing import Span, Tracer, use_span
from .bn_server import BNServer
from .clock import SimulatedClock
from .config import TurboConfig
from .faults import BudgetExceeded, CircuitBreaker, FaultInjector, RetryPolicy
from .feature_server import FeatureServer
from .lambda_layer import DeltaSampler, LambdaLayer
from .latency import LatencyBreakdown, LatencyModel
from .model_management import ModelManager
from .monitoring import SystemMonitor
from .prediction_server import PredictionServer
from .service import PredictRequest, RequestContext, Service
from .storage import InMemoryCache, LocalDatabase, ReplicatedStore, StorageError

__all__ = ["TurboResponse", "Turbo", "deploy_turbo"]

#: (span name, breakdown slot) of the graph-path pipeline stages, in order.
_PIPELINE_STAGES = (
    ("bn_sample", "sampling"),
    ("feature_fetch", "features"),
    ("inference", "prediction"),
)

@dataclass(slots=True)
class TurboResponse:
    """Result of one real-time detection request."""

    uid: int
    txn_id: int
    probability: float
    blocked: bool
    breakdown: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    subgraph_size: int = 0
    timestamp: float = 0.0
    #: which rung of the ladder served this request: "full" (HAG graph
    #: path), "partial" (HAG, but the subgraph was sampled with one or more
    #: BN shards down), "scorecard", "blocklist" or "reject".
    degradation: str = "full"
    #: why the graph path was abandoned ("" on the full path).
    degradation_reason: str = ""
    #: storage/server retries spent before the graph path succeeded.
    retries: int = 0
    #: closed root span of this request's trace (see repro.obs.tracing).
    span: Span | None = None
    #: which serving tier answered: "sampled" (fresh subgraph + HAG
    #: forward — including degraded attempts at it) or "lambda" (the speed
    #: layer's cached batch-pass score).
    tier: str = "sampled"
    #: delta edge touches the cached score carried (0 on the sampled tier).
    staleness: int = 0

    @property
    def degraded(self) -> bool:
        """Was this request served by a fallback instead of HAG?"""
        return self.degradation != "full"

    @property
    def trace_id(self) -> str:
        """Trace identifier of this request ("" when untraced)."""
        return self.span.trace_id if self.span is not None else ""


class Turbo:
    """Wires the BN server, feature module and prediction server together."""

    def __init__(
        self,
        bn_server: BNServer,
        feature_server: FeatureServer,
        prediction_server: PredictionServer,
        clock: SimulatedClock,
        threshold: float = 0.85,
        allowed_nodes: set[int] | None = None,
        hops: int = 2,
        fanout: int | None = 10,
        fallbacks: FallbackStack | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        request_budget: float | None = 15.0,
        faults: FaultInjector | None = None,
        seed: int = 0,
        model_manager: ModelManager | None = None,
        tracer: Tracer | None = None,
        lambda_layer: LambdaLayer | None = None,
    ) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        if request_budget is not None and request_budget <= 0:
            raise ValueError("request_budget must be positive (or None)")
        self.bn_server = bn_server
        self.feature_server = feature_server
        self.prediction_server = prediction_server
        self.model_manager = model_manager
        self.clock = clock
        self.threshold = threshold
        self.allowed_nodes = allowed_nodes
        self.hops = hops
        self.fanout = fanout
        self.fallbacks = fallbacks
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self.request_budget = request_budget
        self.faults = faults
        self._retry_rng = np.random.default_rng(seed)
        self.lambda_layer = lambda_layer
        self.responses: list[TurboResponse] = []
        self.monitor = SystemMonitor()
        self.tracer = tracer if tracer is not None else Tracer()
        # Let BN maintenance publish its bn.ingest.* series into the same
        # registry the monitor reads (unless the caller wired its own).
        if getattr(self.bn_server, "metrics", None) is None:
            self.bn_server.metrics = self.monitor.registry
        if self.lambda_layer is not None and self.lambda_layer.metrics is None:
            self.lambda_layer.metrics = self.monitor.registry

    @property
    def metrics(self) -> MetricsRegistry:
        """The deployment's metrics registry (backs :attr:`monitor`)."""
        return self.monitor.registry

    # ------------------------------------------------------------------
    # Service directory
    # ------------------------------------------------------------------
    @property
    def services(self) -> dict[str, Service]:
        """Every deployed :class:`~repro.system.service.Service`, by name."""
        servers: dict[str, Service] = {
            self.bn_server.name: self.bn_server,
            self.feature_server.name: self.feature_server,
            self.prediction_server.name: self.prediction_server,
        }
        if self.model_manager is not None:
            servers[self.model_manager.name] = self.model_manager
        return servers

    def ping_all(self) -> dict[str, bool]:
        """Probe every service; True = the service answered its ping."""
        health: dict[str, bool] = {}
        for name, service in self.services.items():
            try:
                service.ping()
            except Exception:
                health[name] = False
            else:
                health[name] = True
        return health

    def service_stats(self) -> dict[str, dict[str, float]]:
        """Every service's :meth:`~repro.system.service.Service.stats`."""
        return {name: service.stats() for name, service in self.services.items()}

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def predict(self, request: PredictRequest) -> TurboResponse:
        """Serve one detection request (Fig. 2's numbered flow).

        :meth:`handle_request` is the transaction-first entry point.

        Never raises on component failure: the graph path runs under the
        retry policy, circuit breaker and latency budget, and falls back to
        the scorecard/blocklist ladder when it cannot answer.
        """
        if not isinstance(request, PredictRequest):
            raise TypeError(
                "predict takes a PredictRequest, got "
                f"{type(request).__name__}"
            )
        return self._serve(request)

    def handle_request(self, txn: Transaction, now: float | None = None) -> TurboResponse:
        """Transaction-first alias of :meth:`predict`."""
        return self._serve(PredictRequest(txn=txn, now=now))

    def predict_batch(self, requests: Sequence[PredictRequest]) -> list[TurboResponse]:
        """Serve a micro-batch of requests against one pinned BN version.

        Results are bit-for-bit what sequential :meth:`predict` calls
        return — same probabilities, same decisions, same degradation tags
        (pinned by ``tests/test_system/test_batch_serving.py``) — but each
        stage runs once for the whole batch: the BN server coalesces the
        union sampling frontier, the feature module assembles all unique
        rows columnar, and HAG runs one packed forward.  Shared work is
        charged to the first request that touches it, which is where the
        batched path's latency win comes from.

        Tracing: the batch opens one ``batch`` root whose children are the
        three *coalesced* stage spans; every request still closes its own
        ``request`` root (parented under the batch unless the request
        carries an upstream trace) whose stage children reconcile with its
        :class:`~repro.system.latency.LatencyBreakdown` exactly as in
        scalar mode.

        Resilience: the circuit breaker is consulted per request, faults
        poison individual requests (one poisoned request degrades via the
        fallback ladder without failing the batch), and per-request latency
        budgets are enforced after every stage.  The batched path does not
        retry — a transient storage fault degrades the request instead of
        replaying it (``retries`` is always 0 in batched responses).

        The simulated clock advances once, by the slowest request's total
        (the batch's wall time), instead of by the per-request sum.
        """
        for request in requests:
            if not isinstance(request, PredictRequest):
                raise TypeError(
                    "predict_batch takes PredictRequest instances, got "
                    f"{type(request).__name__}"
                )
        if not requests:
            return []
        n = len(requests)
        nows = [self.clock.now() if r.now is None else r.now for r in requests]
        budgets = [
            self.request_budget if r.budget is None else r.budget for r in requests
        ]
        breakdowns = [LatencyBreakdown() for _ in range(n)]
        batch = self.tracer.start_trace("batch", at=min(nows), size=n)
        roots = [
            self.tracer.start_trace(
                "request",
                at=nows[i],
                parent=requests[i].trace or batch.context(),
                uid=requests[i].uid,
                txn_id=requests[i].txn.txn_id,
            )
            for i in range(n)
        ]
        reasons = [""] * n
        probabilities: list[float | None] = [None] * n
        sizes = [0] * n
        subgraphs: list[Any] = [None] * n
        features: list[np.ndarray | None] = [None] * n
        tiers = ["sampled"] * n
        stalenesses = [0] * n

        def fail(i: int, span: Span, charged: float, error: str, reason: str) -> None:
            """Close a failed stage span the way the scalar path does."""
            span.annotate("error", error)
            span.finish(charged)
            reasons[i] = reason
            self.breaker.record_failure()

        def stage_start(indices: list[int]) -> float:
            return min(nows[i] + breakdowns[i].total for i in indices)

        if self.lambda_layer is not None:
            self.lambda_layer.maybe_refresh(min(nows))
        alive: list[int] = []
        for i in range(n):
            if self.lambda_layer is not None:
                # Speed-layer pre-scan: cache hits are served before the
                # pipeline runs, so they never reach the sampling stage —
                # everything the sampler sees below is fallthrough work.
                hit = self.lambda_layer.lookup(
                    requests[i].uid, requests[i].txn.txn_id, nows[i]
                )
                if hit is not None:
                    span = roots[i].child("lambda_delta", at=nows[i])
                    charge = self.prediction_server.latency.charge_cache_get()
                    breakdowns[i].prediction += charge
                    span.annotate("staleness", hit.staleness)
                    span.annotate("probability", hit.score)
                    span.finish(charge)
                    probabilities[i] = hit.score
                    tiers[i] = "lambda"
                    stalenesses[i] = hit.staleness
                    continue
            if self.breaker.allow():
                alive.append(i)
            else:
                reasons[i] = "circuit_open"
                roots[i].add_event("breaker.open", at=nows[i])

        sample_stats = feature_stats = None
        shard_partial: set[int] = set()
        registry = self.metrics
        # --- stage 1: coalesced bn_sample --------------------------------
        if alive:
            stage_span = batch.child("bn_sample", at=stage_start(alive))
            spans = {
                i: roots[i].child("bn_sample", at=nows[i] + breakdowns[i].total)
                for i in alive
            }
            with use_span(stage_span):
                sampled, stage_seconds, stage_errors, sample_stats = (
                    self.bn_server.sample_batch(
                        [requests[i].uid for i in alive],
                        [nows[i] for i in alive],
                        hops=self.hops,
                        fanout=self.fanout,
                        allowed=self.allowed_nodes,
                    )
                )
            # Requests sampled while a BN shard was down: still served by
            # HAG below, but tagged "partial" at finalize.
            shard_partial = {alive[k] for k in sample_stats.partial}
            still: list[int] = []
            for k, i in enumerate(alive):
                span = spans[i]
                error = stage_errors[k]
                if error is not None:
                    self.monitor.record_error(type(error).__name__)
                    fail(i, span, 0.0, type(error).__name__, "graph_path_down")
                    continue
                span.annotate("subgraph_size", sampled[k].num_nodes)
                breakdowns[i].sampling += stage_seconds[k]
                if budgets[i] is not None and breakdowns[i].total > budgets[i]:
                    fail(i, span, stage_seconds[k], "BudgetExceeded", "over_budget")
                    continue
                subgraphs[i] = sampled[k]
                span.finish(stage_seconds[k])
                still.append(i)
            stage_span.annotate("requests", len(alive))
            stage_span.annotate("coalescing", sample_stats.coalescing)
            stage_span.finish(sum(stage_seconds))
            alive = still

        # --- stage 2: columnar feature_fetch -----------------------------
        if alive:
            stage_span = batch.child("feature_fetch", at=stage_start(alive))
            spans = {
                i: roots[i].child("feature_fetch", at=nows[i] + breakdowns[i].total)
                for i in alive
            }
            with use_span(stage_span):
                matrices, stage_seconds, stage_errors, feature_stats = (
                    self.feature_server.features_for_batch(
                        [subgraphs[i].nodes for i in alive],
                        [requests[i].txn for i in alive],
                        [nows[i] for i in alive],
                    )
                )
            still = []
            for k, i in enumerate(alive):
                span = spans[i]
                error = stage_errors[k]
                if error is not None:
                    self.monitor.record_error(type(error).__name__)
                    fail(i, span, 0.0, type(error).__name__, "graph_path_down")
                    continue
                span.annotate("feature_rows", int(matrices[k].shape[0]))
                breakdowns[i].features += stage_seconds[k]
                if budgets[i] is not None and breakdowns[i].total > budgets[i]:
                    fail(i, span, stage_seconds[k], "BudgetExceeded", "over_budget")
                    continue
                features[i] = matrices[k]
                span.finish(stage_seconds[k])
                still.append(i)
            stage_span.annotate("requests", len(alive))
            stage_span.annotate("coalescing", feature_stats.coalescing)
            stage_span.finish(sum(stage_seconds))
            alive = still

        # --- stage 3: packed inference -----------------------------------
        if alive:
            stage_span = batch.child("inference", at=stage_start(alive))
            spans = {
                i: roots[i].child("inference", at=nows[i] + breakdowns[i].total)
                for i in alive
            }
            gate_extras: list[float] = []
            survivors: list[int] = []
            for i in alive:
                # The per-request fault gate the scalar ``predict`` runs
                # inside the server; batched, the orchestrator runs it so a
                # poisoned request drops out before the packed forward.
                try:
                    with use_span(spans[i]):
                        extra = self.prediction_server.ping()
                except StorageError as exc:
                    self.monitor.record_error(type(exc).__name__)
                    fail(i, spans[i], 0.0, type(exc).__name__, "graph_path_down")
                    continue
                gate_extras.append(extra)
                survivors.append(i)
            stage_seconds = []
            if survivors:
                with use_span(stage_span):
                    stage_probs, stage_seconds = self.prediction_server.predict_batch(
                        [subgraphs[i] for i in survivors],
                        [features[i] for i in survivors],
                        gate_extras,
                    )
                for k, i in enumerate(survivors):
                    span = spans[i]
                    span.annotate("probability", stage_probs[k])
                    breakdowns[i].prediction += stage_seconds[k]
                    if budgets[i] is not None and breakdowns[i].total > budgets[i]:
                        fail(i, span, stage_seconds[k], "BudgetExceeded", "over_budget")
                        continue
                    probabilities[i] = stage_probs[k]
                    sizes[i] = subgraphs[i].num_nodes
                    span.finish(stage_seconds[k])
                    self.breaker.record_success()
            stage_span.annotate("requests", len(alive))
            stage_span.finish(sum(stage_seconds))

        # --- finalize: degrade failures, close traces, record telemetry --
        responses: list[TurboResponse] = []
        for i in range(n):
            breakdown = breakdowns[i]
            probability = probabilities[i]
            degradation = "full"
            if probability is None:
                degradation, probability, blocked = self._degrade(
                    requests[i].txn, breakdown, root=roots[i], now=nows[i]
                )
            else:
                blocked = probability >= self.threshold
                if i in shard_partial:
                    degradation = "partial"
                    reasons[i] = "shard_down"
            root = roots[i]
            root.annotate("probability", probability)
            root.annotate("blocked", blocked)
            root.annotate("retries", 0)
            root.annotate("degradation", degradation)
            root.annotate("tier", tiers[i])
            if degradation != "full":
                root.annotate_tree("degradation", degradation)
                root.annotate_tree("degradation_reason", reasons[i])
            responses.append(
                TurboResponse(
                    uid=requests[i].uid,
                    txn_id=requests[i].txn.txn_id,
                    probability=probability,
                    blocked=blocked,
                    breakdown=breakdown,
                    subgraph_size=sizes[i],
                    timestamp=nows[i],
                    degradation=degradation,
                    degradation_reason=reasons[i],
                    retries=0,
                    span=root,
                    tier=tiers[i],
                    staleness=stalenesses[i],
                )
            )

        wall = max(breakdown.total for breakdown in breakdowns)
        self.clock.advance(wall)
        for i, response in enumerate(responses):
            self.tracer.finish_trace(response.span, breakdowns[i].total)
            self.responses.append(response)
            self.monitor.record_request(
                breakdowns[i],
                blocked=response.blocked,
                subgraph_size=response.subgraph_size,
                degradation=response.degradation,
                retries=0,
            )
            registry.histogram("turbo.batch.latency.sampling").observe(
                breakdowns[i].sampling
            )
            registry.histogram("turbo.batch.latency.features").observe(
                breakdowns[i].features
            )
            registry.histogram("turbo.batch.latency.prediction").observe(
                breakdowns[i].prediction
            )
        registry.counter("turbo.batch.batches").inc()
        registry.counter("turbo.batch.requests").inc(n)
        registry.histogram("turbo.batch.size").observe(float(n))
        batch.annotate("wall", wall)
        if sample_stats is not None:
            registry.histogram("turbo.batch.coalescing").observe(
                sample_stats.coalescing
            )
            batch.annotate("sample_coalescing", sample_stats.coalescing)
        if feature_stats is not None:
            registry.histogram("turbo.batch.feature_coalescing").observe(
                feature_stats.coalescing
            )
            batch.annotate("feature_coalescing", feature_stats.coalescing)
        self.tracer.finish_trace(batch, wall)
        return responses

    def _serve(self, request: PredictRequest) -> TurboResponse:
        """Serve one normalized request and close its trace."""
        txn = request.txn
        now = self.clock.now() if request.now is None else request.now
        budget = self.request_budget if request.budget is None else request.budget
        breakdown = LatencyBreakdown()
        root = self.tracer.start_trace(
            "request", at=now, parent=request.trace, uid=request.uid, txn_id=txn.txn_id
        )
        ctx = RequestContext(
            request=request,
            now=now,
            hops=self.hops,
            fanout=self.fanout,
            allowed=self.allowed_nodes,
        )
        retries = 0
        degradation = "full"
        reason = ""
        probability: float | None = None
        blocked = False
        subgraph_size = 0
        tier = "sampled"
        staleness = 0

        hit = None
        if self.lambda_layer is not None:
            self.lambda_layer.maybe_refresh(now)
            hit = self.lambda_layer.lookup(request.uid, txn.txn_id, now)
        if hit is not None:
            # Speed layer: the cached batch-pass score covers this exact
            # (txn, now) within the staleness budget — serve it for one
            # in-memory read, no graph path at all.  The breaker guards the
            # graph path, so an open breaker does not block cached serving.
            tier = "lambda"
            staleness = hit.staleness
            span = root.child("lambda_delta", at=now)
            charge = self.prediction_server.latency.charge_cache_get()
            breakdown.prediction += charge
            span.annotate("staleness", staleness)
            span.annotate("probability", hit.score)
            span.finish(charge)
            probability = hit.score
            blocked = probability >= self.threshold
        elif self.breaker.allow():
            try:
                for stage_name, slot in _PIPELINE_STAGES:
                    retries += self._traced_stage(
                        root, breakdown, stage_name, slot, ctx, budget
                    )
                probability = ctx.probability
                subgraph_size = ctx.subgraph.num_nodes
                blocked = probability >= self.threshold
                self.breaker.record_success()
            except BudgetExceeded:
                self.breaker.record_failure()
                probability = None
                reason = "over_budget"
            except StorageError:
                self.breaker.record_failure()
                probability = None
                reason = "graph_path_down"
        else:
            reason = "circuit_open"
            root.add_event("breaker.open", at=now)

        if probability is None:
            degradation, probability, blocked = self._degrade(
                txn, breakdown, root=root, now=now
            )
        elif ctx.attributes.get("shard_partial"):
            # Served by HAG, but the subgraph was sampled with a BN shard
            # down — surviving-frontier answer, tagged not degraded-away.
            degradation = "partial"
            reason = "shard_down"

        root.annotate("probability", probability)
        root.annotate("blocked", blocked)
        root.annotate("retries", retries)
        root.annotate("degradation", degradation)
        root.annotate("tier", tier)
        if degradation != "full":
            # Satellite contract: every span of a degraded request carries
            # the level and reason, so any subtree slice explains itself.
            root.annotate_tree("degradation", degradation)
            root.annotate_tree("degradation_reason", reason)

        self.clock.advance(breakdown.total)
        self.tracer.finish_trace(root, breakdown.total)
        response = TurboResponse(
            uid=request.uid,
            txn_id=txn.txn_id,
            probability=probability,
            blocked=blocked,
            breakdown=breakdown,
            subgraph_size=subgraph_size,
            timestamp=now,
            degradation=degradation,
            degradation_reason=reason,
            retries=retries,
            span=root,
            tier=tier,
            staleness=staleness,
        )
        self.responses.append(response)
        self.monitor.record_request(
            breakdown,
            blocked=blocked,
            subgraph_size=subgraph_size,
            degradation=degradation,
            retries=retries,
        )
        return response

    def _stage_service(self, stage_name: str) -> Service:
        """The service that owns a pipeline stage's span name."""
        return {
            "bn_sample": self.bn_server,
            "feature_fetch": self.feature_server,
            "inference": self.prediction_server,
        }[stage_name]

    def _traced_stage(
        self,
        root: Span,
        breakdown: LatencyBreakdown,
        stage_name: str,
        slot: str,
        ctx: RequestContext,
        budget: float | None,
    ) -> int:
        """Run one pipeline stage inside its own child span.

        The span's duration is the breakdown slot's delta across the stage
        (charged seconds including retry backoff), which keeps exported
        span tables bit-for-bit equal to the breakdown-derived tables.  The
        span stays *active* (``use_span``) for the stage so storage ops and
        injected faults stamp themselves onto it.  Failed stages are closed
        with whatever they charged and annotated with the error before the
        exception propagates.
        """
        service = self._stage_service(stage_name)
        span = root.child(stage_name, at=ctx.now + breakdown.total)
        before = getattr(breakdown, slot)
        try:
            with use_span(span):
                _value, stage_retries = self._run_stage(
                    breakdown,
                    slot,
                    lambda: service.handle(ctx, span),
                    budget=budget,
                )
        except (BudgetExceeded, StorageError) as exc:
            span.annotate("error", type(exc).__name__)
            span.finish(getattr(breakdown, slot) - before)
            raise
        if stage_retries:
            span.annotate("retries", stage_retries)
        span.finish(getattr(breakdown, slot) - before)
        return stage_retries

    def _run_stage(
        self,
        breakdown: LatencyBreakdown,
        stage: str,
        call: Callable[[], tuple],
        budget: float | None = None,
    ):
        """Run one pipeline stage under the retry policy and latency budget.

        Successful seconds and retry backoff are both charged to the
        stage's slot in ``breakdown``; each caught storage fault is counted
        in the monitor.  ``budget`` is the effective per-request budget
        (``None`` falls back to the deployment default).  Raises the final
        :class:`StorageError` once retries are exhausted, or
        :class:`BudgetExceeded` when the accumulated request latency
        (including a pending backoff) blows the budget.
        """
        if budget is None:
            budget = self.request_budget
        policy = self.retry_policy
        retries = 0
        attempt = 0
        while True:
            attempt += 1
            try:
                value, seconds = call()
            except StorageError as exc:
                self.monitor.record_error(type(exc).__name__)
                if attempt >= policy.max_attempts:
                    raise
                pause = policy.backoff(attempt, self._retry_rng)
                if budget is not None and breakdown.total + pause > budget:
                    raise BudgetExceeded(
                        f"{stage} retry backoff would exceed the "
                        f"{budget:.2f}s request budget"
                    ) from exc
                setattr(breakdown, stage, getattr(breakdown, stage) + pause)
                retries += 1
                continue
            setattr(breakdown, stage, getattr(breakdown, stage) + seconds)
            if budget is not None and breakdown.total > budget:
                raise BudgetExceeded(
                    f"request latency {breakdown.total:.2f}s exceeds the "
                    f"{budget:.2f}s budget after {stage}"
                )
            return value, retries

    def _degrade(
        self,
        txn: Transaction,
        breakdown: LatencyBreakdown,
        root: Span | None = None,
        now: float = 0.0,
    ) -> tuple[str, float, bool]:
        """Serve the request from the fallback ladder; returns (level, p, blocked).

        The fallback charge is captured before it is added to the
        prediction slot so the ``fallback`` span's duration is exactly the
        charged seconds (bit-for-bit table reproduction).
        """
        span = root.child("fallback", at=now + breakdown.total) if root is not None else None
        charge = self.prediction_server.latency.charge_fallback()
        breakdown.prediction += charge
        if self.fallbacks is None:
            # No fallback stack deployed: the conservative last resort.
            level, probability, blocked = "reject", 1.0, True
        else:
            decision = self.fallbacks.decide(txn)
            level, probability, blocked = (
                decision.level,
                decision.probability,
                decision.blocked,
            )
        if span is not None:
            span.annotate("level", level)
            span.finish(charge)
        return level, probability, blocked

    # ------------------------------------------------------------------
    # Serving front
    # ------------------------------------------------------------------
    def frontend(self, config: "Any | None" = None, pool: "Any | None" = None):
        """A queue/admission serving front over this deployment.

        Returns a :class:`~repro.system.queue.QueueFrontend` — priority
        queueing, deadline-aware admission control, batch-until-deadline
        dispatch into :meth:`predict_batch` and a simulated autoscaler —
        wired to this deployment's tracer, metrics registry and fallback
        ladder.  ``config`` is a :class:`~repro.system.queue.QueueConfig`
        (defaults applied when None); ``pool`` overrides the worker pool.
        """
        from .queue import QueueFrontend  # local import avoids a module cycle

        return QueueFrontend(self, config=config, pool=pool)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def recover(self) -> None:
        """Operator action after an outage: bring storage back, close the breaker.

        Recovers every database/cache behind the BN and feature servers
        (scheduled fault plans on ``self.faults`` are *not* cleared — an
        active crash window keeps the component down until it ends).
        """
        stores = {id(self.bn_server.database): self.bn_server.database}
        stores[id(self.feature_server.database)] = self.feature_server.database
        for store in stores.values():
            store.recover()
        for cache in {id(self.bn_server.cache): self.bn_server.cache,
                      id(self.feature_server.cache): self.feature_server.cache}.values():
            if cache is not None:
                cache.recover()
        self.breaker.reset()
        router = getattr(self.bn_server, "router", None)
        if router is not None:
            for shard_breaker in router.breakers.values():
                shard_breaker.reset()


def deploy_turbo(
    dataset: Dataset,
    config: TurboConfig | None = None,
    *,
    data: ExperimentData | None = None,
) -> tuple[Turbo, ExperimentData]:
    """Train HAG on ``dataset`` and stand up the full online system.

    ``config`` defaults to the paper's deployed settings
    (:class:`~repro.system.config.TurboConfig`).

    Returns ``(turbo, experiment_data)`` — the experiment bundle is exposed
    so benchmarks can score the same split online and offline.  The deployed
    configuration includes the behavior statistics ``X_s`` in the node
    features (Section V).

    Resilience wiring: every deployment carries a
    :class:`~repro.system.faults.FaultInjector` (pass one in, or an empty
    no-op plan is created on the deployment clock), the retry policy and
    circuit breaker around the graph path, and — unless
    ``config.with_fallbacks`` is off — a scorecard + block-list fallback
    stack fitted on the training labels.  ``config.replicated=True`` puts
    the database behind a primary/replica
    :class:`~repro.system.storage.ReplicatedStore` (Section V's disaster
    backup).
    """
    config = config or TurboConfig()
    if data is None:
        data = prepare_experiment(
            dataset, windows=config.windows, seed=config.seed, include_stats=True
        )
    rng = np.random.default_rng(config.seed)
    model = HAG(
        data.features.shape[1],
        n_types=len(data.edge_types),
        rng=rng,
        hidden=config.hidden,
        att_dim=32,
        cfo_att_dim=32,
        cfo_out_dim=8,
        mlp_hidden=(16,),
    )
    aggregators = prepare_aggregators([data.adjacencies[t] for t in data.edge_types])
    # The tracer is created before training so the profiler can emit
    # ``train_epoch`` spans into the same trace buffer the serving spans
    # use; metric totals are replayed into the registry (created with the
    # Turbo system below) via mirror_into under the ``turbo.`` prefix.
    tracer = Tracer(max_traces=config.trace_max)
    train_profiler = TrainProfiler(tracer=tracer)
    train_node_classifier(
        model,
        lambda x: model.forward(x, aggregators),
        data.features,
        data.labels,
        data.train_idx,
        data.val_idx,
        TrainConfig(
            epochs=config.train_epochs,
            lr=5e-3,
            patience=15,
            min_epochs=10,
            seed=config.seed,
            pos_weight=data.pos_weight(),
        ),
        profiler=train_profiler,
    )

    latency = config.latency or LatencyModel(seed=config.seed)
    clock = SimulatedClock(start=dataset.end_time)
    faults = config.faults or FaultInjector(seed=config.seed, clock=clock)
    if config.replicated:
        database = ReplicatedStore(
            LocalDatabase(latency, faults=faults, component="database"),
            LocalDatabase(latency, faults=faults, component="db_replica"),
            latency,
        )
    else:
        database = LocalDatabase(latency, faults=faults, component="database")
    cache = InMemoryCache(latency, faults=faults) if config.use_cache else None

    scaler = StandardScaler().fit(data.features_raw[data.train_idx])
    manager = ModelManager(
        lambda: HAG(
            data.features.shape[1],
            n_types=len(data.edge_types),
            rng=np.random.default_rng(config.seed),
            hidden=config.hidden,
            att_dim=32,
            cfo_att_dim=32,
            cfo_out_dim=8,
            mlp_hidden=(16,),
        )
    )
    manager.register(model.state_dict(), trained_at=clock.now())

    from ..network.builder import BNBuilder  # local import avoids cycle at module load

    builder = BNBuilder(windows=config.windows, edge_types=data.edge_types)
    bn_server = BNServer(
        builder,
        latency,
        database=database,
        cache=cache,
        faults=faults,
        shards=config.shards,
    )
    # Bootstrap the server with the offline-built BN (production would have
    # replayed the log history through the window jobs).  A sharded
    # deployment partitions it pair-order-preserving, so the served
    # subgraphs stay bit-exact against the single-network deployment.
    if config.shards > 1:
        from ..network.sharding import ShardedBehaviorNetwork

        bn_server.bn = ShardedBehaviorNetwork.from_network(data.bn, config.shards)
    else:
        bn_server.bn = data.bn
    feature_server = FeatureServer(
        data.feature_manager, latency, database=database, cache=cache, faults=faults
    )
    prediction_server = PredictionServer(
        manager.materialize_active(), scaler, data.edge_types, latency, faults=faults
    )
    fallbacks = None
    if config.with_fallbacks:
        # The block-list only knows fraudsters labeled *before* deployment —
        # the train+val split, never the held-out test labels.
        known_fraud = {
            int(data.nodes[i]) for i in data.fit_idx if data.labels[i] == 1
        }
        blocklist = Blocklist().fit(dataset.logs, known_fraud)
        fallbacks = FallbackStack(
            dataset.user_by_id(),
            scorecard=default_scorecard(),
            blocklist=blocklist,
            logs=dataset.logs,
        )
    lambda_layer = None
    if config.lambda_tier:
        # Two-tier serving: the batch layer's state is checkpointed to the
        # deployment database and (on sharded deployments) published into
        # the router's snapshot store next to the shard index; the speed
        # layer's DeltaSampler becomes the server's sampling tier so every
        # batch it sees is, by construction, delta-budget fallthrough.
        router = bn_server.router
        lambda_layer = LambdaLayer(
            bn_server,
            feature_server,
            prediction_server,
            database,
            tracer,
            hops=config.hops,
            fanout=config.fanout,
            allowed=set(data.nodes),
            refresh_period=config.lambda_refresh_period,
            staleness_budget=config.lambda_staleness_budget,
            store=router.store if router is not None else None,
        )
        bn_server.set_sampler(DeltaSampler(lambda_layer, bn_server.sampler))
    turbo = Turbo(
        bn_server,
        feature_server,
        prediction_server,
        clock,
        threshold=config.threshold,
        allowed_nodes=set(data.nodes),
        hops=config.hops,
        fanout=config.fanout,
        fallbacks=fallbacks,
        retry_policy=config.retry_policy,
        breaker=config.breaker,
        request_budget=config.request_budget,
        faults=faults,
        seed=config.seed,
        model_manager=manager,
        tracer=tracer,
        lambda_layer=lambda_layer,
    )
    train_profiler.mirror_into(turbo.metrics, prefix="turbo.")
    if lambda_layer is not None:
        lambda_layer.run_batch_pass(clock.now())
    return turbo, data
