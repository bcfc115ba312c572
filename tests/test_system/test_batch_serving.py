"""Batched serving contracts: bit-exact parity with the scalar path.

The tentpole guarantee of the batched pipeline (``Turbo.predict_batch``):
micro-batching is a *latency* optimization, never a semantic one.  Pinned
here:

* probabilities, decisions and degradation tags are bit-for-bit what
  sequential ``Turbo.predict`` calls return — for any batch size and any
  request order;
* every request in a batch closes a traced root span whose stage children
  reconcile with its ``LatencyBreakdown`` exactly as in scalar mode, and
  the batch itself closes a ``batch`` root with the coalesced stage spans;
* faults poison individual requests: one poisoned request degrades through
  the fallback ladder without failing (or re-scoring) the rest of the
  batch, and the batched path never raises;
* per-request latency budgets and the circuit breaker keep working.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network import FAST_WINDOWS
from repro.obs import assert_all_traced
from repro.system import PredictRequest, TurboConfig, deploy_turbo

pytestmark = [pytest.mark.resilience, pytest.mark.obs]


@pytest.fixture(scope="module")
def deployed(tiny_dataset):
    return deploy_turbo(
        tiny_dataset,
        TurboConfig(windows=FAST_WINDOWS, train_epochs=5, hidden=(8, 4), seed=0),
    )


@pytest.fixture()
def turbo(deployed):
    """The deployed system, guaranteed healthy before and after each test."""
    turbo, _data = deployed
    turbo.faults.clear_plans()
    turbo.recover()
    yield turbo
    turbo.faults.clear_plans()
    turbo.recover()


def requests_for(data, start, count):
    """Requests with explicit serve times, so scalar/batched runs agree."""
    transactions = data.dataset.transactions[start : start + count]
    return [PredictRequest(txn=t, now=t.audit_at) for t in transactions]


def scalar_pass(turbo, requests):
    return [turbo.predict(r) for r in requests]


def assert_response_parity(scalar, batched):
    assert len(scalar) == len(batched)
    for s, b in zip(scalar, batched):
        assert b.txn_id == s.txn_id
        assert b.probability == s.probability  # bit-for-bit, no approx
        assert b.blocked == s.blocked
        assert b.degradation == s.degradation
        assert b.degradation_reason == s.degradation_reason
        assert b.subgraph_size == s.subgraph_size
        assert b.timestamp == s.timestamp
        assert b.retries == 0


class TestBitExactParity:
    @pytest.mark.parametrize("batch_size", [1, 2, 32])
    def test_probabilities_match_scalar_bitexact(self, deployed, turbo, batch_size):
        _, data = deployed
        requests = requests_for(data, 0, 32)
        scalar = scalar_pass(turbo, requests)
        batched = []
        for k in range(0, len(requests), batch_size):
            batched.extend(turbo.predict_batch(requests[k : k + batch_size]))
        assert_response_parity(scalar, batched)
        assert all(r.degradation == "full" for r in batched)

    def test_shuffled_order_does_not_change_results(self, deployed, turbo):
        """Overlapping subgraphs shared across a batch must not leak between
        requests: serving the same requests in a different order, in
        different batch splits, yields identical per-request results."""
        _, data = deployed
        requests = requests_for(data, 0, 24)
        expected = {
            r.txn_id: r for r in turbo.predict_batch(requests)
        }
        rng = np.random.default_rng(7)
        shuffled = [requests[i] for i in rng.permutation(len(requests))]
        reshuffled = turbo.predict_batch(shuffled)
        for request, response in zip(shuffled, reshuffled):
            want = expected[request.txn.txn_id]
            assert response.probability == want.probability
            assert response.blocked == want.blocked
            assert response.degradation == want.degradation

    def test_budget_degradation_parity(self, deployed, turbo):
        """An impossible per-request budget degrades identically (same tag,
        same reason, same fallback probability) in both modes."""
        _, data = deployed
        # Stay under the breaker's failure threshold: budget failures count
        # against it in both modes, and parity is about the budget tag.
        count = turbo.breaker.failure_threshold
        transactions = data.dataset.transactions[:count]
        tight = [
            PredictRequest(txn=t, now=t.audit_at, budget=1e-9) for t in transactions
        ]
        scalar = scalar_pass(turbo, tight)
        turbo.breaker.reset()  # budget failures count against the breaker
        batched = turbo.predict_batch(tight)
        for s, b in zip(scalar, batched):
            assert s.degradation_reason == "over_budget"
            assert b.degradation_reason == "over_budget"
            assert b.degradation == s.degradation
            assert b.probability == s.probability
            assert b.blocked == s.blocked

    def test_empty_batch(self, turbo):
        assert turbo.predict_batch([]) == []

    def test_rejects_non_requests(self, deployed, turbo):
        _, data = deployed
        with pytest.raises(TypeError):
            turbo.predict_batch([data.dataset.transactions[0]])


class TestBatchTracing:
    def test_all_requests_traced_and_reconciled(self, deployed, turbo):
        _, data = deployed
        requests = requests_for(data, 0, 12)
        responses = turbo.predict_batch(requests)
        assert_all_traced(responses)
        assert turbo.tracer.open_traces() == 0
        for response in responses:
            root = response.span
            assert root.name == "request"
            assert root.duration == response.breakdown.total
            by_name = {child.name: child for child in root.children}
            assert by_name["bn_sample"].duration == response.breakdown.sampling
            assert by_name["feature_fetch"].duration == response.breakdown.features
            assert by_name["inference"].duration == response.breakdown.prediction

    def test_requests_nest_under_one_batch_span(self, deployed, turbo):
        _, data = deployed
        requests = requests_for(data, 0, 8)
        responses = turbo.predict_batch(requests)
        batch = turbo.tracer.traces[-1]
        assert batch.name == "batch"
        assert batch.attributes["size"] == len(requests)
        assert [child.name for child in batch.children] == [
            "bn_sample",
            "feature_fetch",
            "inference",
        ]
        for stage in batch.children:
            assert stage.closed
            assert stage.attributes["requests"] == len(requests)
        # Coalescing is real on overlapping neighbourhoods and annotated.
        assert batch.attributes["sample_coalescing"] >= 1.0
        assert batch.attributes["feature_coalescing"] >= 1.0
        # Every request root joins the batch trace.
        for response in responses:
            assert response.span.trace_id == batch.trace_id
            assert response.span.parent_id == batch.span_id

    def test_batch_metrics_recorded(self, deployed, turbo):
        _, data = deployed
        registry = turbo.metrics
        batches_before = registry.counter("turbo.batch.batches").value
        requests_before = registry.counter("turbo.batch.requests").value
        turbo.predict_batch(requests_for(data, 0, 8))
        assert registry.counter("turbo.batch.batches").value == batches_before + 1
        assert registry.counter("turbo.batch.requests").value == requests_before + 8
        assert registry.histogram("turbo.batch.size").count >= 1
        assert registry.histogram("turbo.batch.coalescing").count >= 1
        for slot in ("sampling", "features", "prediction"):
            assert registry.histogram(f"turbo.batch.latency.{slot}").count >= 8

    def test_clock_advances_by_batch_wall_time(self, deployed, turbo):
        _, data = deployed
        before = turbo.clock.now()
        responses = turbo.predict_batch(requests_for(data, 0, 8))
        wall = max(r.breakdown.total for r in responses)
        assert turbo.clock.now() == before + wall


class TestBatchFaultIsolation:
    def test_one_poisoned_request_degrades_without_failing_the_batch(
        self, deployed, turbo
    ):
        """Chaos contract: a seeded transient fault poisons some requests in
        the batch; they degrade through the fallback ladder while the rest
        are served full-path — with probabilities bit-for-bit equal to a
        fault-free run."""
        _, data = deployed
        requests = requests_for(data, 0, 16)
        clean = {
            response.txn_id: response.probability
            for response in turbo.predict_batch(requests)
        }
        turbo.faults.add_transient("bn_server", rate=0.4)
        responses = turbo.predict_batch(requests)  # must not raise
        degraded = [r for r in responses if r.degraded]
        served = [r for r in responses if not r.degraded]
        assert degraded, "seeded schedule injected no fault"
        assert served, "one fault must not poison the whole batch"
        for response in degraded:
            assert response.degradation == "scorecard"
            assert response.degradation_reason == "graph_path_down"
            assert response.retries == 0  # batched mode never retries
            assert response.subgraph_size == 0
        for response in served:
            assert response.probability == clean[response.txn_id]
        assert_all_traced(responses)

    def test_open_breaker_short_circuits_batched_requests(self, deployed, turbo):
        _, data = deployed
        turbo.faults.add_transient("bn_server", rate=1.0)
        # Enough failures in one batch to trip the breaker for the next.
        first = turbo.predict_batch(requests_for(data, 0, 8))
        assert all(r.degradation_reason == "graph_path_down" for r in first)
        assert turbo.breaker.state == "open"
        second = turbo.predict_batch(requests_for(data, 8, 4))
        short_circuited = [
            r for r in second if r.degradation_reason == "circuit_open"
        ]
        assert short_circuited
        for response in short_circuited:
            assert response.degraded
            events = [e["name"] for e in response.span.events]
            assert "breaker.open" in events

    def test_degraded_requests_annotate_whole_trace(self, deployed, turbo):
        _, data = deployed
        turbo.faults.add_transient("feature_server", rate=1.0)
        responses = turbo.predict_batch(requests_for(data, 0, 4))
        assert all(r.degradation_reason == "graph_path_down" for r in responses)
        for response in responses:
            for span in response.span.iter():
                assert span.attributes["degradation"] == response.degradation
                assert span.attributes["degradation_reason"] == "graph_path_down"
            assert response.span.find("fallback") is not None
