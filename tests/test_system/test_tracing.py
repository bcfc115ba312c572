"""End-to-end tracing contracts of the online pipeline.

Pins the three observability guarantees of PR 3:

* every request returns a closed root span whose children mirror the
  pipeline stages, with durations bit-for-bit equal to the
  :class:`~repro.system.latency.LatencyBreakdown` slots;
* degradations are visible on *every* span of the affected trace
  (``degradation`` + ``degradation_reason`` tree annotations), and
  injected faults stamp the span that absorbed them;
* same-seed fault replays produce byte-identical span trees, and the
  metrics registry reconciles exactly with the ``SystemMonitor`` view.
"""

from __future__ import annotations

import pytest

from repro.network import FAST_WINDOWS
from repro.obs import assert_all_traced, render_span_tree
from repro.obs.export import span_to_dict
from repro.system import TurboConfig, deploy_turbo

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


class TestHealthyRequestTrace:
    def test_root_span_mirrors_breakdown(self, deployed, turbo):
        _, data = deployed
        txn = data.dataset.transactions[0]
        response = turbo.handle_request(txn, now=txn.audit_at)

        root = response.span
        assert root is not None and root.closed
        assert root.name == "request"
        assert response.trace_id == root.trace_id
        assert root.duration == response.breakdown.total
        assert root.attributes["uid"] == txn.uid
        assert root.attributes["txn_id"] == txn.txn_id
        assert root.attributes["probability"] == response.probability
        assert root.attributes["blocked"] == response.blocked

    def test_stage_spans_match_breakdown_bitexact(self, deployed, turbo):
        _, data = deployed
        txn = data.dataset.transactions[1]
        response = turbo.handle_request(txn, now=txn.audit_at)
        root = response.span

        names = [child.name for child in root.children]
        assert names == ["bn_sample", "feature_fetch", "inference"]
        by_name = {child.name: child for child in root.children}
        assert by_name["bn_sample"].duration == response.breakdown.sampling
        assert by_name["feature_fetch"].duration == response.breakdown.features
        assert by_name["inference"].duration == response.breakdown.prediction
        assert all(child.closed for child in root.children)

    def test_stage_spans_carry_storage_counters(self, deployed, turbo):
        _, data = deployed
        txn = data.dataset.transactions[2]
        turbo.bn_server.cache.clear()
        response = turbo.handle_request(txn, now=txn.audit_at)
        sample_span = response.span.find("bn_sample")
        assert sample_span.attributes.get("subgraph_size") == response.subgraph_size
        # A cold cache forces at least one primary read during sampling.
        assert sample_span.attributes.get("db.queries", 0) >= 1

    def test_tracer_retains_finished_traces(self, deployed, turbo):
        _, data = deployed
        before = len(turbo.tracer.traces)
        responses = [
            turbo.handle_request(txn, now=txn.audit_at)
            for txn in data.dataset.transactions[:4]
        ]
        assert_all_traced(responses)
        assert len(turbo.tracer.traces) == before + 4
        assert turbo.tracer.open_traces() == 0

    def test_render_span_tree_is_printable(self, deployed, turbo):
        _, data = deployed
        txn = data.dataset.transactions[0]
        response = turbo.handle_request(txn, now=txn.audit_at)
        text = render_span_tree(response.span)
        for name in ("request", "bn_sample", "feature_fetch", "inference"):
            assert name in text


class TestDegradedRequestTrace:
    def test_every_span_carries_degradation_reason(self, deployed, turbo):
        _, data = deployed
        txn = data.dataset.transactions[3]
        turbo.faults.add_transient("database", rate=1.0)
        turbo.bn_server.cache.clear()

        response = turbo.handle_request(txn, now=txn.audit_at)
        assert response.degradation == "scorecard"
        spans = list(response.span.iter())
        assert len(spans) >= 3  # request + failed stage + fallback
        for span in spans:
            assert span.attributes["degradation"] == "scorecard"
            assert span.attributes["degradation_reason"] == "graph_path_down"

    def test_failed_stage_annotated_and_fault_stamped(self, deployed, turbo):
        _, data = deployed
        txn = data.dataset.transactions[4]
        turbo.faults.add_transient("database", rate=1.0)
        turbo.bn_server.cache.clear()

        response = turbo.handle_request(txn, now=txn.audit_at)
        failed = response.span.find("bn_sample")
        assert failed is not None and failed.closed
        # The concrete class is the StorageError subclass that was raised.
        assert failed.attributes.get("error") in {"StorageError", "InjectedFault"}
        # The injected faults stamp the absorbing span as events.
        fault_events = [e for e in failed.events if e["name"].startswith("fault.")]
        assert fault_events, failed.events
        assert failed.attributes.get("faults", 0) >= 1

    def test_fallback_span_records_level_and_charge(self, deployed, turbo):
        _, data = deployed
        txn = data.dataset.transactions[5]
        turbo.faults.add_transient("feature_server", rate=1.0)

        response = turbo.handle_request(txn, now=txn.audit_at)
        assert response.degradation != "full"
        fallback = response.span.find("fallback")
        assert fallback is not None and fallback.closed
        assert fallback.attributes["level"] == response.degradation
        assert fallback.duration > 0.0

    def test_healthy_requests_carry_no_degradation_marks(self, deployed, turbo):
        _, data = deployed
        txn = data.dataset.transactions[6]
        response = turbo.handle_request(txn, now=txn.audit_at)
        assert response.degradation == "full"
        for span in response.span.iter():
            assert "degradation_reason" not in span.attributes


class TestReplayDeterminism:
    def test_same_seed_fault_replay_gives_identical_trees(self, tiny_dataset):
        def run():
            turbo, data = deploy_turbo(
                tiny_dataset,
                TurboConfig(
                    windows=FAST_WINDOWS, train_epochs=2, hidden=(8, 4), seed=0
                ),
            )
            turbo.faults.add_transient("database", rate=0.4)
            turbo.faults.add_transient("cache", rate=0.3)
            trees = []
            for txn in data.dataset.transactions[:10]:
                response = turbo.handle_request(txn, now=txn.audit_at)
                trees.append([span_to_dict(s) for s in response.span.iter()])
            return trees

        assert run() == run()


class TestMetricsReconciliation:
    def test_monitor_counters_are_registry_backed(self, deployed, turbo):
        _, data = deployed
        turbo.faults.add_transient("database", rate=0.5)
        responses = [
            turbo.handle_request(txn, now=txn.audit_at)
            for txn in data.dataset.transactions[:15]
        ]
        assert_all_traced(responses)

        monitor = turbo.monitor
        registry = turbo.metrics
        assert registry is monitor.registry
        counters = registry.counters
        assert monitor.requests == counters["turbo.requests"].as_int()
        assert monitor.blocked == counters["turbo.blocked"].as_int()
        assert monitor.retries == counters["turbo.retries"].as_int()
        assert monitor.failovers == counters["turbo.failovers"].as_int()
        assert monitor.degraded_requests == counters["turbo.degraded"].as_int()
        assert sum(monitor.errors.values()) == counters["turbo.errors"].as_int()
        assert monitor.total.count == monitor.requests
        blocked_responses = sum(1 for r in responses if r.blocked)
        degraded_responses = sum(1 for r in responses if r.degradation != "full")
        # The module-scoped monitor accumulates across tests, so check the
        # deltas indirectly: this batch's outcomes are all included.
        assert monitor.blocked >= blocked_responses
        assert monitor.degraded_requests >= degraded_responses

    def test_latency_histograms_match_monitor_views(self, deployed, turbo):
        _, data = deployed
        for txn in data.dataset.transactions[:5]:
            turbo.handle_request(txn, now=txn.audit_at)
        registry = turbo.metrics
        assert registry.histograms["turbo.latency.total"] is turbo.monitor.total
        assert registry.histograms["turbo.latency.sampling"] is turbo.monitor.sampling
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["turbo.latency.total"]["count"] == float(
            turbo.monitor.requests
        )
