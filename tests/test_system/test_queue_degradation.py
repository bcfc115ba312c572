"""Chaos suite for the queueing front: shedding is degradation, never failure.

Contracts pinned here (see ``docs/LOADTEST.md`` and ``docs/RESILIENCE.md``):

* a shed request — at admission or at its deadline — is answered with the
  **bit-for-bit** decision of the same :class:`FallbackStack` ladder that
  serves in-pipeline degradation, tagged ``shed_admission`` /
  ``shed_deadline``;
* every queued, batched and shed request closes exactly one traced root
  span, and a served root's duration reconciles exactly with its
  ``queue_wait`` child plus the pipeline's ``LatencyBreakdown`` total;
* the queue front composes with fault injection: shard loss and latency
  spikes degrade responses through the existing ladder while the frontend
  keeps serving — nothing raises;
* pure sheds never touch the circuit breaker, and ``Turbo.predict``'s
  retry/breaker/budget semantics are unchanged by the queue sitting in
  front of it;
* both worker pools satisfy the ``Service`` protocol surface the
  autoscaler and health checks rely on.
"""

from __future__ import annotations

import pytest

from repro.network import FAST_WINDOWS
from repro.obs import assert_all_traced
from repro.system import (
    Arrival,
    QueueConfig,
    Service,
    SimulatedWorkerPool,
    StorageError,
    TurboConfig,
    deploy_turbo,
)

pytestmark = pytest.mark.resilience


@pytest.fixture(scope="module")
def deployed(tiny_dataset):
    return deploy_turbo(
        tiny_dataset,
        TurboConfig(windows=FAST_WINDOWS, train_epochs=5, hidden=(8, 4), seed=0),
    )


@pytest.fixture(scope="module")
def sharded_deployed(tiny_dataset):
    return deploy_turbo(
        tiny_dataset,
        TurboConfig(
            windows=FAST_WINDOWS, train_epochs=5, hidden=(8, 4), seed=0, shards=2
        ),
    )


@pytest.fixture()
def turbo(deployed):
    turbo, _data = deployed
    turbo.faults.clear_plans()
    turbo.recover()
    yield turbo
    turbo.faults.clear_plans()
    turbo.recover()


@pytest.fixture()
def sharded(sharded_deployed):
    turbo, _data = sharded_deployed
    turbo.faults.clear_plans()
    turbo.recover()
    yield turbo
    turbo.faults.clear_plans()
    turbo.recover()


def make_arrivals(turbo, count, gap=0.0, deadline=30.0, start=None):
    """A deterministic arrival trace over the deployment's latest transactions."""
    latest = sorted(
        turbo.feature_server.feature_manager.latest_transactions(),
        key=lambda t: t.txn_id,
    )
    start = turbo.clock.now() if start is None else start
    arrivals = []
    for i in range(count):
        txn = latest[i % len(latest)]
        at = start + i * gap
        arrivals.append(
            Arrival(
                at=at,
                txn=txn,
                uid=int(txn.uid),
                priority="standard",
                priority_rank=1,
                deadline=at + deadline,
            )
        )
    return arrivals


def queue_counter(turbo, name) -> float:
    return float(turbo.metrics.snapshot()["counters"].get(name, 0.0))


def assert_shed_bit_exact(turbo, record):
    """A shed record carries exactly the fallback ladder's decision."""
    decision = turbo.fallbacks.decide(record.arrival.txn)
    response = record.response
    assert response.degradation == decision.level
    assert response.probability == decision.probability
    assert response.blocked == decision.blocked
    assert response.degradation_reason == record.outcome
    assert response.subgraph_size == 0


def assert_served_spans_reconcile(records):
    """root duration == queue_wait child + pipeline LatencyBreakdown, exactly."""
    for record in (r for r in records if r.served):
        root = record.root
        wait = root.find("queue_wait")
        assert wait is not None and wait.duration is not None
        assert root.duration == wait.duration + record.response.breakdown.total


class TestShedding:
    def test_admission_shed_is_bit_exact_fallback(self, turbo):
        frontend = turbo.frontend(QueueConfig(max_depth=2, batch_size=2))
        arrivals = make_arrivals(turbo, 12)  # a burst landing at one instant
        before = queue_counter(turbo, "turbo.queue.shed.admission")
        records = frontend.run(arrivals)
        shed = [r for r in records if r.outcome == "shed_admission"]
        served = [r for r in records if r.served]
        assert len(records) == len(arrivals)
        assert shed and served, "expected both sheds and serves"
        for record in shed:
            assert_shed_bit_exact(turbo, record)
        assert (
            queue_counter(turbo, "turbo.queue.shed.admission") - before == len(shed)
        )
        assert_all_traced([r.response for r in records])
        assert turbo.tracer.open_traces() == 0
        assert_served_spans_reconcile(records)

    def test_deadline_shed_is_bit_exact_fallback(self, turbo):
        # Admission control off: everything queues, and whatever is still
        # waiting when its (tiny) deadline passes must be shed on dispatch.
        frontend = turbo.frontend(
            QueueConfig(
                max_depth=64,
                batch_size=4,
                batch_wait=0.0,
                admission_deadline_aware=False,
            )
        )
        arrivals = make_arrivals(turbo, 12, gap=0.0, deadline=1e-6)
        records = frontend.run(arrivals)
        shed = [r for r in records if r.outcome == "shed_deadline"]
        served = [r for r in records if r.served]
        # the head request dispatches before its deadline can pass; everything
        # behind it waits out the busy worker and expires on the next dispatch.
        assert len(served) == 1
        assert len(shed) == 11
        for record in shed:
            assert_shed_bit_exact(turbo, record)
        assert_all_traced([r.response for r in records])
        assert turbo.tracer.open_traces() == 0

    def test_served_past_deadline_counts_a_miss(self, turbo):
        frontend = turbo.frontend(
            QueueConfig(batch_size=1, admission_deadline_aware=False)
        )
        before = queue_counter(turbo, "turbo.queue.deadline_misses")
        # deadlines shorter than any charged pipeline time, arrivals spaced
        # far apart: each dispatches immediately, serves, and completes late.
        records = frontend.run(make_arrivals(turbo, 3, gap=100.0, deadline=1e-3))
        assert all(r.served for r in records)
        missed = queue_counter(turbo, "turbo.queue.deadline_misses") - before
        assert missed == len(records)
        for record in records:
            assert record.root.attributes.get("deadline_missed") is True


class TestChaos:
    def test_shard_loss_keeps_serving_degraded(self, sharded):
        sharded.faults.add_crash("bn_shard1", 0.0, 1e12)
        frontend = sharded.frontend(QueueConfig(batch_size=4))
        records = frontend.run(make_arrivals(sharded, 10, gap=0.5))
        assert len(records) == 10
        assert all(r.served for r in records)
        degradations = {r.response.degradation for r in records}
        assert "partial" in degradations, "shard loss should surface as partial"
        assert degradations <= {"partial", "full"}
        assert_all_traced([r.response for r in records])
        assert sharded.tracer.open_traces() == 0
        assert_served_spans_reconcile(records)

    def test_latency_spike_with_flooding_still_total(self, turbo):
        turbo.faults.add_latency("bn_server", extra=2.0)
        frontend = turbo.frontend(QueueConfig(max_depth=4, batch_size=2))
        records = frontend.run(make_arrivals(turbo, 10))
        assert len(records) == 10
        shed = [r for r in records if not r.served]
        assert shed, "flooding a depth-4 queue must shed"
        for record in shed:
            assert_shed_bit_exact(turbo, record)
        assert_all_traced([r.response for r in records])
        assert turbo.tracer.open_traces() == 0

    def test_pure_sheds_leave_breaker_and_predict_untouched(self, turbo):
        breaker = turbo.breaker
        state_before = (
            breaker.state,
            breaker.consecutive_failures,
            breaker.opened_count,
            breaker.short_circuited,
        )
        frontend = turbo.frontend(QueueConfig(max_depth=1, batch_size=1))
        records = frontend.run(make_arrivals(turbo, 8))
        shed = [r for r in records if not r.served]
        assert len(records) == 8 and shed, "flooding a depth-1 queue must shed"
        state_after = (
            breaker.state,
            breaker.consecutive_failures,
            breaker.opened_count,
            breaker.short_circuited,
        )
        # sheds answer from the ladder without attempting the graph path,
        # so the breaker sees only the single served request's success.
        assert state_after == state_before
        # and the bare predict path is exactly as healthy as before
        txn = make_arrivals(turbo, 1)[0].txn
        response = turbo.handle_request(txn, now=turbo.clock.now())
        assert response.degradation == "full"


class TestServiceSurface:
    def test_simulated_pool_satisfies_service_protocol(self, turbo):
        pool = SimulatedWorkerPool(turbo, n_workers=2, startup=1.0)
        assert isinstance(pool, Service)
        assert pool.name == "worker_pool"
        assert pool.ping() == 0.0
        assert pool.stats()["workers"] == 2.0

    def test_simulated_pool_scaling(self, turbo):
        pool = SimulatedWorkerPool(turbo, n_workers=1, startup=2.0)
        assert pool.scale_to(3, now=10.0) == 3
        assert pool.peak_size == 3
        # new workers come online only after the startup delay
        assert pool.next_free() == 0.0  # the original worker is already free
        assert sorted(pool._busy)[1:] == [12.0, 12.0]
        assert pool.scale_to(1) == 1
        assert pool.stats()["scale_ups"] == 2.0
        assert pool.stats()["scale_downs"] == 2.0
        assert pool.peak_size == 3
        with pytest.raises(ValueError):
            pool.scale_to(0)

    def test_empty_pool_ping_raises_storage_error(self, turbo):
        pool = SimulatedWorkerPool(turbo, n_workers=1)
        pool._busy.clear()  # simulate total worker loss
        with pytest.raises(StorageError):
            pool.ping()


class TestMetricsReconcile:
    def test_offered_splits_into_admitted_and_shed(self, turbo):
        names = (
            "turbo.queue.offered",
            "turbo.queue.admitted",
            "turbo.queue.shed",
        )
        before = {n: queue_counter(turbo, n) for n in names}
        frontend = turbo.frontend(QueueConfig(max_depth=3, batch_size=2))
        arrivals = make_arrivals(turbo, 9)
        records = frontend.run(arrivals)
        delta = {n: queue_counter(turbo, n) - before[n] for n in names}
        assert delta["turbo.queue.offered"] == len(arrivals)
        assert (
            delta["turbo.queue.admitted"] + delta["turbo.queue.shed"]
            == delta["turbo.queue.offered"]
        )
        assert len(records) == len(arrivals)
        # every response (served and shed) lands in the deployment log too
        assert all(r.response in turbo.responses for r in records)
