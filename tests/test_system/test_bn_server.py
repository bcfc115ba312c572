"""BN server tests: streaming ingestion, window jobs, sampling."""

from __future__ import annotations

import pytest

from repro.datagen import DAY, HOUR, BehaviorLog, BehaviorType
from repro.network import BNBuilder
from repro.system import BNServer, InMemoryCache, LatencyModel

DEV = BehaviorType.DEVICE_ID


def make_server(cache: bool = False, windows=(HOUR, DAY)) -> BNServer:
    latency = LatencyModel(jitter_sigma=0.0, seed=0)
    builder = BNBuilder(windows=windows)
    return BNServer(
        builder,
        latency,
        cache=InMemoryCache(latency) if cache else None,
    )


def shared_logs(t0: float = 0.0):
    return [
        BehaviorLog(1, DEV, "d0", t0 + 60.0),
        BehaviorLog(2, DEV, "d0", t0 + 120.0),
    ]


class TestIngestion:
    def test_out_of_order_rejected(self):
        server = make_server()
        server.ingest([BehaviorLog(1, DEV, "d", 100.0)])
        with pytest.raises(ValueError):
            server.ingest([BehaviorLog(1, DEV, "d", 50.0)])

    def test_ingest_charges_latency(self):
        server = make_server()
        assert server.ingest(shared_logs()) > 0.0


class TestWindowJobs:
    def test_jobs_build_edges_after_epoch_closes(self):
        server = make_server()
        server.ingest(shared_logs())
        jobs, _ = server.run_due_jobs(now=HOUR)  # 1-hour epoch closed
        assert jobs >= 1
        assert server.bn.weight(1, 2, DEV) == pytest.approx(0.5)

    def test_no_jobs_before_epoch_closes(self):
        server = make_server()
        server.ingest(shared_logs())
        jobs, _ = server.run_due_jobs(now=HOUR / 2)
        assert jobs == 0
        assert server.bn.weight(1, 2, DEV) == 0.0

    def test_hierarchy_accumulates_across_windows(self):
        server = make_server()
        server.ingest(shared_logs())
        server.run_due_jobs(now=DAY)
        # Both the 1-hour and the 1-day jobs contributed 1/2.
        assert server.bn.weight(1, 2, DEV) == pytest.approx(1.0)

    def test_jobs_run_incrementally(self):
        server = make_server(windows=(HOUR,))
        server.ingest(shared_logs(0.0))
        server.run_due_jobs(now=HOUR)
        server.ingest(shared_logs(HOUR))
        jobs, _ = server.run_due_jobs(now=2 * HOUR)
        assert jobs == 1
        assert server.bn.weight(1, 2, DEV) == pytest.approx(1.0)

    def test_shorter_windows_run_more_jobs(self):
        server = make_server(windows=(HOUR, DAY))
        server.ingest(shared_logs())
        server.run_due_jobs(now=DAY)
        assert server.jobs_run == 24 + 1

    def test_ttl_sweep_prunes_old_edges(self):
        latency = LatencyModel(jitter_sigma=0.0)
        builder = BNBuilder(windows=(HOUR,), ttl=2 * DAY)
        server = BNServer(builder, latency, ttl_sweep_interval=DAY)
        server.ingest(shared_logs())
        server.run_due_jobs(now=HOUR)
        assert server.bn.num_edges() == 1
        server.run_due_jobs(now=5 * DAY)
        assert server.bn.num_edges() == 0


class TestSampling:
    def test_sample_returns_subgraph_and_cost(self):
        server = make_server()
        server.ingest(shared_logs())
        server.run_due_jobs(now=DAY)
        subgraph, seconds = server.sample(1, now=DAY)
        assert subgraph.target == 1
        assert 2 in subgraph.nodes
        assert seconds > 0

    def test_unknown_target_becomes_isolated_node(self):
        server = make_server()
        subgraph, _ = server.sample(42, now=0.0)
        assert subgraph.nodes == [42]

    def test_cache_reduces_repeat_cost(self):
        server = make_server(cache=True)
        server.ingest(shared_logs())
        server.run_due_jobs(now=DAY)
        _, cold = server.sample(1, now=DAY)
        _, warm = server.sample(1, now=DAY)
        assert warm < cold

    def test_allowed_filters_sample(self):
        server = make_server()
        server.ingest(shared_logs())
        server.run_due_jobs(now=DAY)
        subgraph, _ = server.sample(1, now=DAY, allowed={1})
        assert subgraph.nodes == [1]


class TestLogPruning:
    """``stats()["logs_buffered"]`` counts the rows buffered for window jobs;
    logs of non-edge types are persisted but never buffered, so not counted."""

    def test_prune_drops_logs_older_than_largest_window(self):
        server = make_server(windows=(HOUR, DAY))
        server.ingest(shared_logs(0.0))
        server.ingest(shared_logs(2 * DAY))
        server.run_due_jobs(now=3 * DAY)
        # Every pending job reads at most (now - DAY, now]; the t0=0 logs
        # can never contribute again and must leave the in-memory buffer.
        assert server.stats()["logs_buffered"] == 2

    def test_prune_keeps_logs_future_jobs_still_need(self):
        server = make_server(windows=(HOUR, DAY))
        server.ingest(shared_logs(0.0))
        server.run_due_jobs(now=HOUR)  # day job still pending for these logs
        assert server.stats()["logs_buffered"] == 2

    def test_pruned_buffer_does_not_change_job_results(self):
        kept = make_server(windows=(HOUR,))
        for t0 in (0.0, HOUR, 2 * HOUR):
            kept.ingest(shared_logs(t0))
        # Run hour-by-hour (pruning after each job) vs all at once.
        for now in (HOUR, 2 * HOUR, 3 * HOUR):
            kept.run_due_jobs(now=now)
        batch = make_server(windows=(HOUR,))
        for t0 in (0.0, HOUR, 2 * HOUR):
            batch.ingest(shared_logs(t0))
        batch.run_due_jobs(now=3 * HOUR)
        assert kept.bn.weight(1, 2, DEV) == pytest.approx(
            batch.bn.weight(1, 2, DEV)
        )
        assert kept.bn.weight(1, 2, DEV) == pytest.approx(1.5)
