"""The Turbo orchestrator: the online anti-fraud pipeline of Fig. 2.

A prediction request for application ``tau`` of user ``u``:

1. the prediction server asks the BN server to sample ``u``'s computation
   subgraph;
2. the feature management module assembles features for every subgraph node;
3. HAG scores the target; the client gets the probability plus the decision
   at the configured threshold (0.85 in the deployed system).

Each step's latency is charged against the latency model and reported in the
response, which is what the Fig. 8a / Section V benchmarks aggregate.

One request lifecycle (DESIGN.md §5): a request in flight is one
:class:`_Flight`, and scalar :meth:`Turbo.predict`, batched
:meth:`Turbo.predict_batch` and the queue front's shed path share the four
steps around the stages — ``_open`` (trace root, serve time, budget),
``_admit`` (speed-layer lookup, then the breaker), ``_settle`` (fallback
ladder for an unanswered flight, tags, root annotations, the response) and
``_record`` (close the trace, retain, count).  Only the stage *runners*
differ: ``_traced_stage`` retries one request, ``_coalesced_stage`` runs a
stage once for a micro-batch and never retries.  Malformed input (not a
``PredictRequest``, an unknown user) is refused before ``_open``.

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
from operator import attrgetter
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
from ..obs.tracing import Span, TraceContext, Tracer, use_span
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


#: The graph-path pipeline stages, in order: span name, breakdown slot, the
#: flight field the stage fills, and what its span says about that value
#: (``Service.handle`` writes it under the scalar runner, the coalesced
#: runner writes it itself).
_PIPELINE_STAGES = (
    ("bn_sample", "sampling", "subgraph", "subgraph_size", attrgetter("num_nodes")),
    ("feature_fetch", "features", "features", "feature_rows", len),
    ("inference", "prediction", "probability", "probability", None),
)


@dataclass(slots=True)
class _Flight(RequestContext):
    """One request in flight: its pipeline state plus its lifecycle state.

    *Is* the :class:`~repro.system.service.RequestContext` the scalar
    stages' ``Service.handle`` reads and writes (subgraph, features,
    probability, ``attributes["shard_partial"]``), so nothing is copied
    across; the coalesced runner fills the same fields.  A flight whose
    ``probability`` is still ``None`` when it is settled was answered by
    neither HAG nor the speed layer and goes down the fallback ladder.
    """

    budget: float | None = None
    root: Span | None = None
    breakdown: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    #: why the graph path was abandoned ("" while it has not been).
    reason: str = ""
    retries: int = 0
    tier: str = "sampled"
    staleness: int = 0


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
        the scorecard/blocklist ladder when it cannot answer.  Malformed
        input is not a component failure: anything but a
        :class:`PredictRequest` is a ``TypeError`` and a user the feature
        module does not know a ``ValueError``, both before any span is
        opened, any node registered or anything charged.
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

        The lifecycle is :meth:`predict`'s — every request is opened,
        admitted, settled and recorded by the same four methods, in request
        order — around one :meth:`_coalesced_stage` run three times where
        the scalar path runs its retrying stage loop.

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
        Malformed input refuses the whole batch up front (``TypeError`` /
        ``ValueError`` naming the request's position), before anything is
        opened, registered or charged.

        The simulated clock advances once, by the slowest request's total
        (the batch's wall time), instead of by the per-request sum.
        """
        for position, request in enumerate(requests):
            if not isinstance(request, PredictRequest):
                raise TypeError(
                    "predict_batch takes PredictRequest instances, got "
                    f"{type(request).__name__}"
                )
            self._check_known(request.txn.uid, request.uid, ("request", position))
        if not requests:
            return []
        nows = [self.clock.now() if r.now is None else r.now for r in requests]
        batch = self.tracer.start_trace("batch", at=min(nows), size=len(requests))
        flights = [
            self._open(request, now, request.trace or batch.context())
            for request, now in zip(requests, nows)
        ]
        if self.lambda_layer is not None:
            self.lambda_layer.maybe_refresh(min(nows))
        # Speed-layer hits are settled below without entering a stage, so
        # everything the sampler sees is fallthrough work.
        alive = [flight for flight in flights if self._admit(flight)]

        def sample(entered: list[_Flight], _extras: None):
            return self.bn_server.sample_batch(
                [flight.request.uid for flight in entered],
                [flight.now for flight in entered],
                hops=self.hops,
                fanout=self.fanout,
                allowed=self.allowed_nodes,
            )

        def fetch(entered: list[_Flight], _extras: None):
            return self.feature_server.features_for_batch(
                [flight.subgraph.nodes for flight in entered],
                [flight.request.txn for flight in entered],
                [flight.now for flight in entered],
            )

        def infer(entered: list[_Flight], gate_extras: list[float]):
            probabilities, seconds = self.prediction_server.predict_batch(
                [flight.subgraph for flight in entered],
                [flight.features for flight in entered],
                gate_extras,
            )
            return probabilities, seconds, [None] * len(entered), None

        bn_sample, feature_fetch, inference = _PIPELINE_STAGES
        sampling = alive
        alive, sample_stats = self._coalesced_stage(batch, bn_sample, alive, sample)
        if sample_stats is not None:
            # Sampled while a BN shard was down: still served by HAG, but
            # tagged "partial" when settled.
            for k in sample_stats.partial:
                sampling[k].attributes["shard_partial"] = True
        alive, feature_stats = self._coalesced_stage(batch, feature_fetch, alive, fetch)
        # The per-request fault gate the scalar ``predict`` runs inside the
        # server; batched, the orchestrator runs it so a poisoned request
        # drops out before the packed forward.
        self._coalesced_stage(
            batch, inference, alive, infer, gate=self.prediction_server.ping
        )

        responses = [self._settle(flight) for flight in flights]
        wall = max(response.breakdown.total for response in responses)
        self.clock.advance(wall)
        registry = self.metrics
        for response in responses:
            self._record(response)
            breakdown = response.breakdown
            registry.histogram("turbo.batch.latency.sampling").observe(breakdown.sampling)
            registry.histogram("turbo.batch.latency.features").observe(breakdown.features)
            registry.histogram("turbo.batch.latency.prediction").observe(
                breakdown.prediction
            )
        registry.counter("turbo.batch.batches").inc()
        registry.counter("turbo.batch.requests").inc(len(requests))
        registry.histogram("turbo.batch.size").observe(float(len(requests)))
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
        self._check_known(request.txn.uid, request.uid)
        flight = self._open(
            request,
            self.clock.now() if request.now is None else request.now,
            request.trace,
        )
        if self.lambda_layer is not None:
            self.lambda_layer.maybe_refresh(flight.now)
        if self._admit(flight):
            try:
                for stage_name, slot, *_ in _PIPELINE_STAGES:
                    flight.retries += self._traced_stage(flight, stage_name, slot)
                self.breaker.record_success()
            except (BudgetExceeded, StorageError) as exc:
                self.breaker.record_failure()
                flight.probability = None  # the last stage may have stored one
                flight.reason = (
                    "over_budget" if isinstance(exc, BudgetExceeded) else "graph_path_down"
                )
        response = self._settle(flight)
        self.clock.advance(response.breakdown.total)
        self._record(response)
        return response

    # ------------------------------------------------------------------
    # The request lifecycle: open -> admit -> (stages) -> settle -> record
    # ------------------------------------------------------------------
    def _check_known(
        self, txn_uid: int, uid: int, where: tuple[str, int] | None = None
    ) -> None:
        """Refuse a user the feature module cannot describe (``ValueError``).

        Every entrance — scalar, batched, the queue front — checks before
        :meth:`_open`: a refused request has opened no span, registered no
        BN node, charged nothing and not touched the breaker.  ``where``
        names the offender's place in a batch, e.g. ``("request", 3)``.
        """
        knows = self.feature_server.feature_manager.knows
        for unknown in (txn_uid, uid) if uid != txn_uid else (txn_uid,):
            if not knows(unknown):
                place = "" if where is None else f" ({where[0]} {where[1]})"
                raise ValueError(f"unknown user {unknown}{place}")

    def _open(
        self, request: PredictRequest, now: float, parent: TraceContext | None
    ) -> _Flight:
        """Open the ``request`` root at ``now`` and resolve the budget."""
        return _Flight(
            request=request,
            now=now,
            hops=self.hops,
            fanout=self.fanout,
            allowed=self.allowed_nodes,
            budget=self.request_budget if request.budget is None else request.budget,
            root=self.tracer.start_trace(
                "request",
                at=now,
                parent=parent,
                uid=request.uid,
                txn_id=request.txn.txn_id,
            ),
        )

    def _admit(self, flight: _Flight) -> bool:
        """Speed layer, then breaker: may this flight run the graph path?

        A cached batch-pass score covering this exact ``(txn, now)`` within
        the staleness budget answers the flight for one in-memory read —
        the breaker guards the graph path, so an open breaker does not
        block cached serving.  A flight the breaker denies stays unanswered
        for :meth:`_settle` to degrade.
        """
        if self.lambda_layer is not None:
            hit = self.lambda_layer.lookup(
                flight.request.uid, flight.request.txn.txn_id, flight.now
            )
            if hit is not None:
                span = flight.root.child("lambda_delta", at=flight.now)
                charge = self.prediction_server.latency.charge_cache_get()
                flight.breakdown.prediction += charge
                span.annotate("staleness", hit.staleness)
                span.annotate("probability", hit.score)
                span.finish(charge)
                flight.probability = hit.score
                flight.tier = "lambda"
                flight.staleness = hit.staleness
                return False
        if self.breaker.allow():
            return True
        flight.reason = "circuit_open"
        flight.root.add_event("breaker.open", at=flight.now)
        return False

    def _settle(self, flight: _Flight) -> TurboResponse:
        """Degrade the flight if nothing answered it, tag it, annotate its
        root and build the response (:meth:`_record` closes the root)."""
        probability = flight.probability
        degradation = "full"
        subgraph_size = 0
        if probability is None:
            degradation, probability, blocked = self._degrade(
                flight.request.txn, flight.breakdown, root=flight.root, now=flight.now
            )
        else:
            blocked = probability >= self.threshold
            if flight.subgraph is not None:
                subgraph_size = flight.subgraph.num_nodes
            if flight.attributes.get("shard_partial"):
                # Served by HAG, but the subgraph was sampled with a BN shard
                # down — surviving-frontier answer, tagged not degraded-away.
                degradation = "partial"
                flight.reason = "shard_down"
        root = flight.root
        root.annotate("probability", probability)
        root.annotate("blocked", blocked)
        root.annotate("retries", flight.retries)
        root.annotate("degradation", degradation)
        root.annotate("tier", flight.tier)
        if degradation != "full":
            # Satellite contract: every span of a degraded request carries
            # the level and reason, so any subtree slice explains itself.
            root.annotate_tree("degradation", degradation)
            root.annotate_tree("degradation_reason", flight.reason)
        return TurboResponse(
            uid=flight.request.uid,
            txn_id=flight.request.txn.txn_id,
            probability=probability,
            blocked=blocked,
            breakdown=flight.breakdown,
            subgraph_size=subgraph_size,
            timestamp=flight.now,
            degradation=degradation,
            degradation_reason=flight.reason,
            retries=flight.retries,
            span=root,
            tier=flight.tier,
            staleness=flight.staleness,
        )

    def _record(self, response: TurboResponse, queued: float = 0.0) -> None:
        """Close the response's trace, retain it and count it.

        ``queued`` is the wait a shed request's root includes.  Retention
        follows the tracer's rule: under ``trace_max`` the oldest responses
        go too — each pins its span tree.
        """
        self.tracer.finish_trace(response.span, queued + response.breakdown.total)
        self.responses.append(response)
        bound = self.tracer.max_traces
        if bound is not None and len(self.responses) > bound:
            del self.responses[: len(self.responses) - bound]
        self.monitor.record_request(
            response.breakdown,
            blocked=response.blocked,
            subgraph_size=response.subgraph_size,
            degradation=response.degradation,
            retries=response.retries,
        )

    def _fail(
        self, flight: _Flight, span: Span, fault: Exception | None, charged: float = 0.0
    ) -> None:
        """Close a failed coalesced stage span the way the scalar path does.

        ``fault`` is the storage error that poisoned the flight (counted in
        the monitor), or ``None`` when what it was ``charged`` blew its budget.
        """
        error, flight.reason = "BudgetExceeded", "over_budget"
        if fault is not None:
            error, flight.reason = type(fault).__name__, "graph_path_down"
            self.monitor.record_error(error)
        span.annotate("error", error)
        span.finish(charged)
        self.breaker.record_failure()

    def _coalesced_stage(
        self,
        batch: Span,
        stage: tuple,
        alive: list[_Flight],
        call: Callable,
        gate: Callable[[], float] | None = None,
    ) -> tuple[list[_Flight], Any]:
        """Run one pipeline stage once for every flight in ``alive``.

        Opens the stage span, then one child per flight; runs the optional
        per-flight fault ``gate`` as a pre-pass (its failures reach the
        breaker before any verdict of the stage); makes the one coalesced
        ``call(entered, gate_extras) -> (values, seconds, errors, stats)``;
        then per flight, in order: an error degrades it, else its seconds
        are charged, its budget enforced and the value stored — and once a
        flight holds a probability HAG has served it, so the breaker hears
        the success there, interleaved with the failures.  Never retries.
        Returns the survivors and the call's coalescing stats.
        """
        if not alive:
            return alive, None
        name, slot, field, note, describe = stage
        stage_span = batch.child(
            name, at=min(flight.now + flight.breakdown.total for flight in alive)
        )
        spans = [
            flight.root.child(name, at=flight.now + flight.breakdown.total)
            for flight in alive
        ]
        entered, extras = alive, None
        if gate is not None:
            entered, passed, extras = [], [], []
            for flight, span in zip(alive, spans):
                try:
                    with use_span(span):
                        extras.append(gate())
                except StorageError as exc:
                    self._fail(flight, span, exc)
                    continue
                entered.append(flight)
                passed.append(span)
            spans = passed
        values, seconds, errors, stats = [], [], [], None
        if entered:
            with use_span(stage_span):
                values, seconds, errors, stats = call(entered, extras)
        survivors = []
        for flight, span, value, charged, error in zip(
            entered, spans, values, seconds, errors
        ):
            if error is not None:
                self._fail(flight, span, error)
                continue
            span.annotate(note, value if describe is None else describe(value))
            breakdown = flight.breakdown
            setattr(breakdown, slot, getattr(breakdown, slot) + charged)
            if flight.budget is not None and breakdown.total > flight.budget:
                self._fail(flight, span, None, charged)
                continue
            setattr(flight, field, value)
            span.finish(charged)
            if flight.probability is not None:
                self.breaker.record_success()
            survivors.append(flight)
        stage_span.annotate("requests", len(alive))
        if stats is not None:
            stage_span.annotate("coalescing", stats.coalescing)
        stage_span.finish(sum(seconds))
        return survivors, stats

    def _stage_service(self, stage_name: str) -> Service:
        """The service that owns a pipeline stage's span name."""
        return {
            "bn_sample": self.bn_server,
            "feature_fetch": self.feature_server,
            "inference": self.prediction_server,
        }[stage_name]

    def _traced_stage(self, flight: _Flight, stage_name: str, slot: str) -> int:
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
        breakdown = flight.breakdown
        span = flight.root.child(stage_name, at=flight.now + breakdown.total)
        before = getattr(breakdown, slot)
        try:
            with use_span(span):
                _value, stage_retries = self._run_stage(
                    breakdown,
                    slot,
                    lambda: service.handle(flight, span),
                    flight.budget,
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
        budget: float | None,
    ):
        """Run one pipeline stage under the retry policy and latency budget.

        Successful seconds and retry backoff are both charged to the
        stage's slot in ``breakdown``; each caught storage fault is counted
        in the monitor.  ``budget`` is the flight's effective budget
        (``None`` = unbounded).  Raises the final
        :class:`StorageError` once retries are exhausted, or
        :class:`BudgetExceeded` when the accumulated request latency
        (including a pending backoff) blows the budget.
        """
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
        self, txn: Transaction, breakdown: LatencyBreakdown, root: Span, now: float
    ) -> tuple[str, float, bool]:
        """Serve the request from the fallback ladder; returns (level, p, blocked).

        The fallback charge is captured before it is added to the
        prediction slot so the ``fallback`` span's duration is exactly the
        charged seconds (bit-for-bit table reproduction).
        """
        span = root.child("fallback", at=now + breakdown.total)
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
    # replayed the log history through the window jobs); at any shard count
    # it is the one network, whose reads the router partitions.
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
        # deployment database; the speed layer's DeltaSampler becomes the
        # server's sampling tier so every batch it sees is, by
        # construction, delta-budget fallthrough.
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
