"""Shard router: frontier exchange, failover, Turbo serving, forked sweep.

Covers the system half of the sharding tentpole:

* :meth:`ShardRouter.sample_batch` is bit-exact vs the scalar sampler on
  the unsharded network and emits the ``turbo.shard.*`` series: each hop's
  union frontier, its rows per owner shard (``frontier.exchanges`` counts
  the shards, ``frontier.keys`` the rows, ``frontier.lost`` the rows on
  dead shards);
* a crashed shard degrades sampling to the surviving frontier (requests
  flagged partial, nothing raises, breaker opens, the index's selection
  is not ranked again) and recovery restores bit-exact full serving;
* a sharded :class:`BNServer` holds one network and partitions only its
  reads;
* ``deploy_turbo(..., shards=N)`` serves bit-for-bit what the unsharded
  deployment serves, and tags shard-down requests ``partial``;
* a full-graph sweep forked four ways is byte-equal to the in-process
  sweep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import DAY, HOUR, BehaviorLog, BehaviorType
from repro.network import FAST_WINDOWS, BNBuilder, BehaviorNetwork
from repro.network import sharding
from repro.network.sharding import shard_of
from repro.obs.metrics import MetricsRegistry
from repro.system import (
    BNServer,
    CircuitBreaker,
    FaultInjector,
    LatencyModel,
    PredictRequest,
    ShardRouter,
    TurboConfig,
    fork_map,
    deploy_turbo,
)

from tests.test_network.test_sampling_batch import (
    assert_subgraph_equal,
    scalar_subgraphs,
)
from tests.test_network.test_sharding import build_network, contribution_batches

pytestmark = pytest.mark.sharding

DEV = BehaviorType.DEVICE_ID


def make_router(rng, n_shards=4, with_faults=False, metrics=None):
    bn = build_network(contribution_batches(rng))
    faults = FaultInjector() if with_faults else None
    breakers = {s: CircuitBreaker() for s in range(n_shards)} if with_faults else None
    router = ShardRouter(bn, n_shards, faults=faults, metrics=metrics, breakers=breakers)
    return bn, router


class TestRouterSampling:
    def test_bitexact_and_observable(self, rng):
        registry = MetricsRegistry()
        bn, router = make_router(rng, metrics=registry)
        targets = [int(t) for t in rng.integers(0, 200, size=16)]
        got, stats, gate_s = router.sample_batch(targets, hops=2, fanout=5)
        want = scalar_subgraphs(bn, targets, fanout=5)
        for want_sub, got_sub in zip(want, got):
            assert_subgraph_equal(got_sub, want_sub)
        assert stats.partial == ()
        assert gate_s == 0.0  # healthy path: no probe gate charged
        counters = registry.snapshot()["counters"]
        gauges = registry.snapshot()["gauges"]
        assert gauges["turbo.shard.index.nodes"] == bn.num_nodes()
        # The owned_* gauges come from the owner map: every node and every
        # half-edge is owned by exactly one shard.
        index = bn.index()
        owner = shard_of(index.node_ids, 4)
        for s in range(4):
            assert gauges[f"turbo.shard.owned_nodes.shard{s}"] == int((owner == s).sum())
            assert gauges[f"turbo.shard.owned_half_edges.shard{s}"] == int(
                np.diff(index.indptr)[owner == s].sum()
            )
        assert sum(gauges[f"turbo.shard.owned_half_edges.shard{s}"] for s in range(4)) == (
            2 * index.num_pairs
        )
        # Hop 0's union frontier is the distinct targets, hop 1's every
        # node one hop out; each is split by owner shard.
        hop1 = scalar_subgraphs(bn, targets, hops=1, fanout=5)
        frontiers = [set(targets), {uid for sub in hop1 for uid in sub.nodes[1:]}]
        owners = [set(shard_of(sorted(rows), 4).tolist()) for rows in frontiers]
        assert counters["turbo.shard.frontier.keys"] == sum(map(len, frontiers))
        assert counters["turbo.shard.frontier.exchanges"] == sum(map(len, owners))
        assert "turbo.shard.frontier.lost" not in counters

    def test_selection_cache_reused_across_calls(self, rng, monkeypatch):
        """The read index ranks its selection once; later batches re-rank nothing."""
        bn, router = make_router(rng, n_shards=2)
        first, _, _ = router.sample_batch([3, 9], fanout=5)
        selection = bn.index().selection(5)
        ranked: list[int] = []
        monkeypatch.setattr(sharding, "_ranked", lambda *args: ranked.append(1))
        again, _, _ = router.sample_batch([3, 9], fanout=5)
        assert ranked == [] and bn.index().selection(5) is selection
        for a, b in zip(first, again):
            assert_subgraph_equal(b, a)


class TestShardLoss:
    def test_dead_shard_degrades_not_raises(self, rng):
        registry = MetricsRegistry()
        bn, router = make_router(rng, with_faults=True, metrics=registry)
        router.faults.add_crash("bn_shard1", 0.0, 1e12)
        targets = [int(t) for t in rng.integers(0, 200, size=32)]
        got, stats, gate_s = router.sample_batch(targets, fanout=5, now=1.0)
        assert len(got) == len(targets)
        assert stats.partial, "a crashed shard must flag partial requests"
        assert gate_s >= 0.0  # crash probes fail fast (no latency charged)
        counters = registry.snapshot()["counters"]
        assert counters["turbo.shard.down"] >= 1
        assert counters["turbo.shard.partial_requests"] == len(stats.partial)
        # Hop 0's frontier is the targets: those on shard 1 are lost.
        assert counters["turbo.shard.frontier.lost"] >= sum(
            shard_of(sorted(set(targets)), 4) == 1
        ) > 0
        # Intact requests are still bit-exact vs the healthy sampler.
        want = scalar_subgraphs(bn, targets, fanout=5)
        for i, (want_sub, got_sub) in enumerate(zip(want, got)):
            if i not in stats.partial:
                assert_subgraph_equal(got_sub, want_sub)

    def test_a_dead_shard_selects_nothing_when_warm(self, rng, monkeypatch):
        """A shard down for five batches: its rows select nothing although
        the index's selection is warm, the requests it touches are partial,
        the others keep their bits, and nothing is ranked again — during the
        outage or after it."""
        bn = build_network(contribution_batches(rng))
        faults = FaultInjector()
        router = ShardRouter(bn, 4, faults=faults)
        targets = [int(t) for t in rng.integers(0, 200, size=16)]
        want = scalar_subgraphs(bn, targets, fanout=5)
        router.sample_batch(targets, fanout=5, now=0.0)
        ranked: list[int] = []
        monkeypatch.setattr(sharding, "_ranked", lambda *args: ranked.append(1))
        faults.add_crash("bn_shard1", 10.0, 15.0)
        for now in range(10, 15):
            got, stats, _ = router.sample_batch(targets, fanout=5, now=float(now))
            assert stats.partial
            for i, (got_sub, want_sub) in enumerate(zip(got, want)):
                if i not in stats.partial:
                    assert_subgraph_equal(got_sub, want_sub)
                elif shard_of([targets[i]], 4)[0] == 1:
                    assert got_sub.nodes == [targets[i]]  # its row selects nothing
        got, stats, _ = router.sample_batch(targets, fanout=5, now=16.0)
        assert stats.partial == () and ranked == []
        for got_sub, want_sub in zip(got, want):
            assert_subgraph_equal(got_sub, want_sub)

    def test_breaker_opens_then_recovery_restores_bits(self, rng):
        bn, router = make_router(rng, with_faults=True)
        router.faults.add_crash("bn_shard1", 0.0, 1e12)
        targets = [int(t) for t in rng.integers(0, 200, size=16)]
        for _ in range(4):  # past the breaker's failure threshold
            router.sample_batch(targets, fanout=5, now=1.0)
        assert not router.breakers[1].allow()
        # Operator recovery: plans cleared, breakers reset.
        router.faults.clear_plans()
        for breaker in router.breakers.values():
            breaker.reset()
        got, stats, _ = router.sample_batch(targets, fanout=5, now=2.0)
        assert stats.partial == ()
        want = scalar_subgraphs(bn, targets, fanout=5)
        for want_sub, got_sub in zip(want, got):
            assert_subgraph_equal(got_sub, want_sub)  # no stale emptiness


class TestShardedBNServer:
    def logs(self):
        return [
            BehaviorLog(1, DEV, "d0", 60.0),
            BehaviorLog(2, DEV, "d0", 120.0),
            BehaviorLog(3, DEV, "d0", 180.0),
        ]

    def test_sharded_stats_and_unsharded_default(self):
        """Shards partition the reads only: a sharded server writes the one
        network, its ingest counters and stats are the unsharded server's,
        and its router fronts that network."""
        servers = []
        for shards in (2, 1):
            registry = MetricsRegistry()
            server = BNServer(
                BNBuilder(windows=(HOUR, DAY)),
                LatencyModel(jitter_sigma=0.0, seed=0),
                metrics=registry,
                shards=shards,
            )
            server.ingest(self.logs())
            assert server.run_due_jobs(now=HOUR)[0] >= 1
            assert isinstance(server.bn, BehaviorNetwork)
            servers.append((server, registry.snapshot()["counters"]))
        (sharded, counters), (plain, plain_counters) = servers
        assert counters == plain_counters
        assert not any(name.startswith("bn.shard.") for name in counters)
        assert sharded.stats() == plain.stats()
        assert sharded.router.bn is sharded.bn and sharded.router.n_shards == 2
        assert plain.router is None
        with pytest.raises(ValueError):
            BNServer(BNBuilder(windows=(HOUR, DAY)), LatencyModel(seed=0), shards=0)


@pytest.fixture(scope="module")
def deployed_pair(tiny_dataset):
    """The same dataset deployed unsharded and with 2 BN shards."""
    plain = deploy_turbo(
        tiny_dataset,
        TurboConfig(windows=FAST_WINDOWS, train_epochs=5, hidden=(8, 4), seed=0),
    )
    sharded = deploy_turbo(
        tiny_dataset,
        TurboConfig(
            windows=FAST_WINDOWS, train_epochs=5, hidden=(8, 4), seed=0, shards=2
        ),
    )
    return plain, sharded


def requests_for(data, count=24):
    return [
        PredictRequest(txn=t, now=t.audit_at)
        for t in data.dataset.transactions[:count]
    ]


class TestTurboSharded:
    def test_serving_bitexact_vs_unsharded(self, deployed_pair):
        (plain, data), (sharded, _data) = deployed_pair
        requests = requests_for(data)
        want = [plain.predict(r) for r in requests]
        got_scalar = [sharded.predict(r) for r in requests]
        got_batch = sharded.predict_batch(requests)
        for w, s, b in zip(want, got_scalar, got_batch):
            for got in (s, b):
                assert got.probability == w.probability
                assert got.blocked == w.blocked
                assert got.degradation == w.degradation == "full"
                assert got.subgraph_size == w.subgraph_size

    def test_shard_down_tags_partial_and_recovers(self, deployed_pair):
        (_plain, _), (sharded, data) = deployed_pair
        requests = requests_for(data)
        baseline = {
            r.txn.txn_id: p.probability
            for r, p in zip(requests, sharded.predict_batch(requests))
        }
        sharded.faults.add_crash("bn_shard1", 0.0, 1e12)
        responses = sharded.predict_batch(requests)
        partial = [r for r in responses if r.degradation == "partial"]
        assert partial, "losing a shard must surface partial degradation"
        assert all(r.degradation_reason == "shard_down" for r in partial)
        assert all(r.degraded for r in partial)
        scalar = sharded.predict(requests[0])
        assert scalar.degradation in ("partial", "full")

        sharded.faults.clear_plans()
        sharded.recover()  # also resets the per-shard breakers
        recovered = sharded.predict_batch(requests)
        assert all(r.degradation == "full" for r in recovered)
        assert {
            r.txn_id: r.probability for r in recovered
        } == baseline, "recovery must restore bit-exact full serving"


class TestPoolMaterialize:
    """Full-graph sweep forked across four processes: bit-exact."""

    def test_four_worker_sweep_bitexact(self, rng):
        from repro.core import HAG
        from repro.core.lambda_infer import materialize
        from repro.features.pipeline import StandardScaler

        bn = build_network(contribution_batches(rng, n_users=160))
        types = tuple(sorted(bn.edge_types(), key=lambda t: t.value))
        model_rng = np.random.default_rng(3)
        model = HAG(
            5, len(types), model_rng, hidden=(8, 4), cfo_out_dim=2, mlp_hidden=(4,)
        )
        features = model_rng.normal(size=(200, 5))
        scaler = StandardScaler().fit(features)
        targets = sorted(int(t) for t in rng.choice(160, size=48, replace=False))

        def run(**kwargs):
            return materialize(
                model, bn, targets,
                [10 * t for t in targets], [float(t) for t in targets],
                lambda k, nodes: features[np.asarray(nodes, dtype=np.int64)],
                hops=2, fanout=5, edge_type_order=types,
                transform=scaler.transform,
                **kwargs,
            )

        want, want_stats, _ = run()
        got, got_stats, mstats = run(executor=fork_map, slices=4)
        assert mstats.slices == 4
        assert got_stats == want_stats
        got_arrays, want_arrays = got.to_arrays(), want.to_arrays()
        assert got_arrays.keys() == want_arrays.keys()
        for name in want_arrays:
            assert got_arrays[name].tobytes() == want_arrays[name].tobytes(), name
