"""The serving front: admission control, priority queueing, dynamic
batching and simulated autoscaling in front of :class:`Turbo`.

Closed-loop benchmarks drive :meth:`Turbo.predict` directly; under
open-loop traffic (:mod:`repro.system.loadgen`) requests arrive whether
or not the system is keeping up, so production puts a queue in front.
:class:`QueueFrontend` is that queue, as a discrete-event loop on the
simulated clock:

* **admission control** — arrivals are rejected up front when the queue
  is at capacity or the estimated queueing delay already blows the
  request's deadline; rejected requests are served by the existing
  :class:`~repro.baselines.fallback.FallbackStack` ladder (bit-exact
  decisions, tagged ``degradation``/``degradation_reason``) — no request
  ever raises;
* **priority classes** — the queue is a priority heap on the arrival's
  class rank (FIFO within a class); interactive traffic overtakes batch
  traffic;
* **deadline shedding** — requests whose deadline passed while queued are
  shed to the fallback ladder at dispatch time instead of wasting a
  worker;
* **dynamic batch formation** — dispatch coalesces queued requests into
  one :meth:`Turbo.predict_batch` micro-batch, waiting up to
  ``batch_wait`` for the batch to fill but never past the point where the
  head request could still meet its deadline (*batch-until-deadline*);
* **simulated autoscaling** — an :class:`Autoscaler` adds/removes
  prediction workers from queue-depth watermarks with a cooldown, over
  any pool exposing ``scale_to`` (the in-process
  :class:`SimulatedWorkerPool` here, which satisfies the
  :class:`~repro.system.service.Service` protocol).

Everything is traced and metered: each arrival opens a ``queued_request``
root whose ``queue_wait`` child measures time in queue, served requests
join that trace (their ``request`` root parents under it via
``TraceContext``), shed requests close with a ``fallback`` child, and the
``turbo.queue.*`` metric series (see ``docs/OBSERVABILITY.md``) counts
every enqueued, batched, shed and autoscaled event.
``benchmarks/bench_loadtest.py`` sweeps offered QPS through this module.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Span
from .latency import LatencyBreakdown
from .loadgen import Arrival
from .service import PredictRequest
from .storage import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .turbo import Turbo, TurboResponse

__all__ = [
    "QueueConfig",
    "SimulatedWorkerPool",
    "QueueFrontend",
]


@dataclass(slots=True)
class QueueConfig:
    """Validated knobs of the serving front (mirrors ``TurboConfig`` style)."""

    #: admission cap: arrivals beyond this queue depth are shed immediately.
    max_depth: int = 128
    #: target micro-batch size for ``predict_batch``.
    batch_size: int = 16
    #: max seconds the head request waits for its batch to fill.
    batch_wait: float = 0.25
    #: shed at admission when the estimated delay blows the deadline.
    admission_deadline_aware: bool = True
    #: per-batch service-time prior (seconds) until the EWMA learns better.
    initial_service_estimate: float = 1.0
    #: EWMA weight of the latest observed batch wall time.
    service_ewma: float = 0.3
    min_workers: int = 1
    max_workers: int = 4
    #: simulated seconds before a newly added worker accepts work.
    worker_startup: float = 1.0
    #: scale up above this queue depth per worker ...
    scale_high: float = 3.0
    #: ... and down below this queue depth per worker.
    scale_low: float = 0.5
    #: min simulated seconds between autoscaling actions (hysteresis).
    scale_cooldown: float = 5.0

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.batch_wait < 0:
            raise ValueError("batch_wait cannot be negative")
        if self.initial_service_estimate <= 0:
            raise ValueError("initial_service_estimate must be positive")
        if not 0.0 < self.service_ewma <= 1.0:
            raise ValueError("service_ewma must be in (0, 1]")
        if self.min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if self.max_workers < self.min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if self.worker_startup < 0:
            raise ValueError("worker_startup cannot be negative")
        if self.scale_low >= self.scale_high:
            raise ValueError("scale_low must be < scale_high")
        if self.scale_cooldown < 0:
            raise ValueError("scale_cooldown cannot be negative")


@dataclass(slots=True)
class _QueuedItem:
    """One admitted arrival waiting for dispatch."""

    arrival: Arrival
    enqueued_at: float
    root: Span
    wait_span: Span


@dataclass(slots=True)
class QueueRecord:
    """Outcome of one arrival through the serving front."""

    arrival: Arrival
    #: "served" | "shed_admission" | "shed_deadline"
    outcome: str
    queue_wait: float
    completed_at: float
    response: "TurboResponse"
    #: the closed ``queued_request`` root of this arrival's trace.
    root: Span
    #: pool worker slot that served the batch (-1 when shed).
    worker: int = -1

    @property
    def served(self) -> bool:
        """Did this arrival reach the prediction path (vs. being shed)?"""
        return self.outcome == "served"


class RequestQueue:
    """Priority heap of admitted requests (class rank, then FIFO)."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, _QueuedItem]] = []
        self._seq = 0

    @property
    def depth(self) -> int:
        """Requests currently queued."""
        return len(self._heap)

    def push(self, item: _QueuedItem) -> None:
        """Enqueue one admitted request."""
        heapq.heappush(self._heap, (item.arrival.priority_rank, self._seq, item))
        self._seq += 1

    def peek(self) -> _QueuedItem:
        """The next request to dispatch (highest priority, oldest first)."""
        return self._heap[0][2]

    def pop_batch(
        self, now: float, limit: int
    ) -> tuple[list[_QueuedItem], list[_QueuedItem]]:
        """Pop up to ``limit`` dispatchable requests at time ``now``.

        Returns ``(batch, expired)`` — requests whose deadline has already
        passed are popped but routed to ``expired`` (deadline shedding) and
        do not consume batch slots.
        """
        batch: list[_QueuedItem] = []
        expired: list[_QueuedItem] = []
        while self._heap and len(batch) < limit:
            _, _, item = heapq.heappop(self._heap)
            if now >= item.arrival.deadline:
                expired.append(item)
            else:
                batch.append(item)
        return batch, expired


class SimulatedWorkerPool:
    """An autoscalable pool of prediction workers on the simulated clock.

    Each worker is a ``busy_until`` timestamp; dispatching a micro-batch
    runs :meth:`Turbo.predict_batch` and occupies the least-loaded worker
    for the batch's charged wall time.  Satisfies the
    :class:`~repro.system.service.Service` protocol so health checks and
    the :class:`Autoscaler` see the same surface as the real servers.
    """

    def __init__(
        self, turbo: "Turbo", n_workers: int = 1, startup: float = 1.0
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if startup < 0:
            raise ValueError("startup cannot be negative")
        self.turbo = turbo
        self.startup = startup
        self._busy: list[float] = [0.0] * n_workers
        self._dispatched = 0
        self._batches = 0
        self._scale_ups = 0
        self._scale_downs = 0
        self.peak_size = n_workers

    # ------------------------------------------------------------------
    # Service protocol
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Stable component name (``Service`` protocol)."""
        return "worker_pool"

    def ping(self) -> float:
        """Liveness probe; raises when no worker can serve."""
        if not self._busy:
            raise StorageError("no prediction workers in the pool")
        return 0.0

    def stats(self) -> dict[str, float]:
        """Flat dict of pool counters (dashboard snapshot)."""
        return {
            "workers": float(self.size),
            "peak_workers": float(self.peak_size),
            "batches": float(self._batches),
            "dispatched": float(self._dispatched),
            "scale_ups": float(self._scale_ups),
            "scale_downs": float(self._scale_downs),
        }

    def handle(self, request, span: Span | None = None):
        """Serve one micro-batch; ``request`` is ``(predict_requests, at)``."""
        requests, at = request
        responses, wall, _worker = self.dispatch(requests, at)
        return responses, wall

    # ------------------------------------------------------------------
    # Dispatch & scaling
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Workers currently in the pool."""
        return len(self._busy)

    def next_free(self) -> float:
        """Earliest simulated time any worker is free."""
        if not self._busy:
            raise StorageError("no prediction workers in the pool")
        return min(self._busy)

    def dispatch(
        self, requests: Sequence[PredictRequest], at: float
    ) -> tuple[list["TurboResponse"], float, int]:
        """Run one micro-batch on the least-loaded worker starting at ``at``.

        Returns ``(responses, wall_seconds, worker_index)``.  The
        deployment clock is pulled forward to ``at`` first so charged
        span timestamps stay on the open-loop timeline.
        """
        if not self._busy:
            raise StorageError("no prediction workers in the pool")
        worker = min(range(len(self._busy)), key=self._busy.__getitem__)
        self.turbo.clock.advance_to(at)
        responses = self.turbo.predict_batch(list(requests))
        wall = max((r.breakdown.total for r in responses), default=0.0)
        self._busy[worker] = max(self._busy[worker], at) + wall
        self._dispatched += len(responses)
        self._batches += 1
        return responses, wall, worker

    def scale_to(self, n: int, now: float = 0.0) -> int:
        """Grow/shrink the pool to ``n`` workers; returns the new size.

        New workers come online after :attr:`startup` simulated seconds;
        shrinking retires the most-idle workers first (their in-flight
        batch, if any, has already been charged).
        """
        if n < 1:
            raise ValueError("cannot scale below one worker")
        while len(self._busy) < n:
            self._busy.append(now + self.startup)
            self._scale_ups += 1
        self.peak_size = max(self.peak_size, len(self._busy))
        if len(self._busy) > n:
            self._busy.sort(reverse=True)  # retire the most-idle (earliest free)
            retired = len(self._busy) - n
            del self._busy[n:]
            self._scale_downs += retired
        return len(self._busy)


class Autoscaler:
    """Adds/removes workers from queue-depth watermarks with hysteresis.

    Depth above ``scale_high`` per worker grows the pool by one; depth
    below ``scale_low`` per worker shrinks it by one; actions are at
    least ``scale_cooldown`` simulated seconds apart, and the pool stays
    inside ``[min_workers, max_workers]``.  Every action is counted in
    ``turbo.queue.scale_up`` / ``turbo.queue.scale_down`` and reflected
    in the ``turbo.queue.workers`` gauge.
    """

    def __init__(self, pool, config: QueueConfig, registry: MetricsRegistry) -> None:
        self.pool = pool
        self.config = config
        self._workers = registry.gauge("turbo.queue.workers")
        self._ups = registry.counter("turbo.queue.scale_up")
        self._downs = registry.counter("turbo.queue.scale_down")
        self._last_action = -math.inf
        self._workers.set(float(pool.size))

    def observe(self, depth: int, now: float) -> int:
        """React to the current queue depth; returns the pool size after."""
        cfg = self.config
        size = self.pool.size
        if now - self._last_action < cfg.scale_cooldown:
            return size
        target = size
        if depth > cfg.scale_high * size and size < cfg.max_workers:
            target = size + 1
        elif depth < cfg.scale_low * size and size > cfg.min_workers:
            target = size - 1
        if target == size:
            return size
        self.pool.scale_to(target, now=now)
        (self._ups if target > size else self._downs).inc()
        self._workers.set(float(target))
        self._last_action = now
        return target


class QueueFrontend:
    """Discrete-event serving front: one pass over an open-loop arrival trace.

    Construct via :meth:`Turbo.frontend`; :meth:`run` replays a
    time-ordered arrival sequence and returns one :class:`QueueRecord`
    per arrival — every record carries a closed trace and a total
    :class:`~repro.system.turbo.TurboResponse` (shed requests answer from
    the fallback ladder; nothing raises).
    """

    def __init__(
        self,
        turbo: "Turbo",
        config: QueueConfig | None = None,
        pool: SimulatedWorkerPool | None = None,
    ) -> None:
        self.turbo = turbo
        self.config = config or QueueConfig()
        self.pool = pool or SimulatedWorkerPool(
            turbo,
            n_workers=self.config.min_workers,
            startup=self.config.worker_startup,
        )
        self.queue = RequestQueue()
        registry = turbo.metrics
        self.autoscaler = Autoscaler(self.pool, self.config, registry)
        self.records: list[QueueRecord] = []
        self.peak_depth = 0
        self._service_est = self.config.initial_service_estimate
        #: monotonic event cursor: dispatches never happen before an
        #: already-processed arrival (a scale-up can free a worker *earlier*
        #: than arrivals the loop has already admitted; without the cursor
        #: the next batch would dispatch in their past).
        self._now = -math.inf
        self._offered = registry.counter("turbo.queue.offered")
        self._admitted = registry.counter("turbo.queue.admitted")
        self._shed = registry.counter("turbo.queue.shed")
        self._shed_admission = registry.counter("turbo.queue.shed.admission")
        self._shed_deadline = registry.counter("turbo.queue.shed.deadline")
        self._depth = registry.histogram("turbo.queue.depth")
        self._wait = registry.histogram("turbo.queue.wait")
        self._e2e = registry.histogram("turbo.queue.e2e")
        self._batches = registry.counter("turbo.queue.batches")
        self._batch_size = registry.histogram("turbo.queue.batch_size")
        self._deadline_misses = registry.counter("turbo.queue.deadline_misses")

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def run(self, arrivals: Sequence[Arrival]) -> list[QueueRecord]:
        """Replay ``arrivals`` (time-ordered) through the serving front.

        Interleaves arrival events with dispatch events in simulated-time
        order, then drains the queue; returns this run's records in
        completion order (also appended to :attr:`records`).  An
        out-of-order trace or an arrival for a user the deployment does
        not know is a ``ValueError`` before anything is offered or queued.
        """
        for earlier, later in zip(arrivals, arrivals[1:]):
            if later.at < earlier.at:
                raise ValueError("arrivals must be nondecreasing in time")
        for position, arrival in enumerate(arrivals):
            self.turbo._check_known(arrival.txn.uid, arrival.uid, ("arrival", position))
        first = len(self.records)
        i, n = 0, len(arrivals)
        while i < n or self.queue.depth:
            if self.queue.depth == 0:
                self._on_arrival(arrivals[i])
                i += 1
                continue
            at = max(self._next_dispatch_time(draining=i >= n), self._now)
            if i < n and arrivals[i].at < at:
                self._on_arrival(arrivals[i])
                i += 1
                continue
            self._dispatch(at)
        return self.records[first:]

    def responses(self) -> list["TurboResponse"]:
        """Every response produced so far (served and shed alike)."""
        return [record.response for record in self.records]

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _on_arrival(self, arrival: Arrival) -> None:
        self._now = max(self._now, arrival.at)
        self._offered.inc()
        depth = self.queue.depth
        self._depth.observe(float(depth))
        self.peak_depth = max(self.peak_depth, depth)
        root = self.turbo.tracer.start_trace(
            "queued_request",
            at=arrival.at,
            uid=arrival.uid,
            txn_id=arrival.txn.txn_id,
            priority=arrival.priority,
            deadline=arrival.deadline,
        )
        if arrival.burst:
            root.annotate("burst", arrival.burst)
        wait_span = root.child("queue_wait", at=arrival.at)
        item = _QueuedItem(
            arrival=arrival, enqueued_at=arrival.at, root=root, wait_span=wait_span
        )
        if depth >= self.config.max_depth:
            self._finish_shed(item, arrival.at, "shed_admission")
        elif (
            self.config.admission_deadline_aware
            and arrival.at + self._estimated_delay(depth) > arrival.deadline
        ):
            self._finish_shed(item, arrival.at, "shed_admission")
        else:
            self.queue.push(item)
            self._admitted.inc()
        self.autoscaler.observe(self.queue.depth, arrival.at)

    def _estimated_delay(self, depth: int) -> float:
        """Rough time-to-completion for a request joining at ``depth``."""
        batches_ahead = math.ceil((depth + 1) / self.config.batch_size)
        return batches_ahead * self._service_est / max(1, self.pool.size)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _next_dispatch_time(self, draining: bool) -> float:
        """When the next micro-batch should start (batch-until-deadline).

        Never before a worker is free or the head request was enqueued; a
        full batch goes immediately; otherwise hold for ``batch_wait`` to
        let the batch fill — but no later than the head request's last
        feasible start (deadline minus the estimated service time), and
        not at all once the arrival stream is exhausted (nothing more to
        batch with).
        """
        head = self.queue.peek()
        base = max(self.pool.next_free(), head.enqueued_at)
        if draining or self.queue.depth >= self.config.batch_size:
            return base
        latest_start = head.arrival.deadline - self._service_est
        return max(base, min(head.enqueued_at + self.config.batch_wait, latest_start))

    def _dispatch(self, at: float) -> None:
        self._now = max(self._now, at)
        batch, expired = self.queue.pop_batch(at, self.config.batch_size)
        for item in expired:
            self._finish_shed(item, at, "shed_deadline")
        if not batch:
            return
        requests = [
            PredictRequest(txn=item.arrival.txn, now=at, trace=item.root.context())
            for item in batch
        ]
        responses, wall, worker = self.pool.dispatch(requests, at)
        if responses:
            alpha = self.config.service_ewma
            self._service_est = (1.0 - alpha) * self._service_est + alpha * wall
        self._batches.inc()
        self._batch_size.observe(float(len(batch)))
        for item, response in zip(batch, responses):
            wait = at - item.enqueued_at
            item.wait_span.finish(wait)
            completed_at = at + response.breakdown.total
            e2e = wait + response.breakdown.total
            root = item.root
            root.annotate("outcome", "served")
            root.annotate("queue_wait", wait)
            root.annotate("worker", worker)
            if completed_at > item.arrival.deadline:
                self._deadline_misses.inc()
                root.annotate("deadline_missed", True)
            if response.degraded:
                root.annotate_tree("degradation", response.degradation)
                root.annotate_tree("degradation_reason", response.degradation_reason)
            self.turbo.tracer.finish_trace(root, e2e)
            self._wait.observe(wait)
            self._e2e.observe(e2e)
            self.records.append(
                QueueRecord(
                    arrival=item.arrival,
                    outcome="served",
                    queue_wait=wait,
                    completed_at=completed_at,
                    response=response,
                    root=root,
                    worker=worker,
                )
            )
        self.autoscaler.observe(self.queue.depth, at)

    # ------------------------------------------------------------------
    # Shedding
    # ------------------------------------------------------------------
    def _finish_shed(self, item: _QueuedItem, now: float, outcome: str) -> None:
        """Answer a shed request from the fallback ladder and close its trace.

        The decision is bit-for-bit what :meth:`FallbackStack.decide`
        returns for the transaction (pinned by
        ``tests/test_system/test_queue_degradation.py``) and the charge is
        the same ``charge_fallback``: both come from the one
        :meth:`Turbo._degrade` the in-pipeline path uses, and the response
        is retained and counted by the one :meth:`Turbo._record`.  What is
        the front's own: the wait, the ``outcome`` tag, and a root whose
        duration includes the wait.
        """
        from .turbo import TurboResponse  # local import avoids a module cycle

        wait = now - item.enqueued_at
        item.wait_span.finish(wait)
        root = item.root
        breakdown = LatencyBreakdown()
        level, probability, blocked = self.turbo._degrade(
            item.arrival.txn, breakdown, root=root, now=now
        )
        root.annotate("outcome", outcome)
        root.annotate("queue_wait", wait)
        root.annotate("probability", probability)
        root.annotate("blocked", blocked)
        root.annotate_tree("degradation", level)
        root.annotate_tree("degradation_reason", outcome)
        response = TurboResponse(
            uid=item.arrival.uid,
            txn_id=item.arrival.txn.txn_id,
            probability=probability,
            blocked=blocked,
            breakdown=breakdown,
            timestamp=item.arrival.at,
            degradation=level,
            degradation_reason=outcome,
            span=root,
        )
        self.turbo._record(response, queued=wait)
        self._shed.inc()
        (self._shed_admission if outcome == "shed_admission" else self._shed_deadline).inc()
        self.records.append(
            QueueRecord(
                arrival=item.arrival,
                outcome=outcome,
                queue_wait=wait,
                completed_at=now + breakdown.total,
                response=response,
                root=root,
            )
        )
