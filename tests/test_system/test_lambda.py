"""Lambda two-tier serving: bit-exact cache hits, staleness gates, recovery.

Contracts pinned here (see ``docs/LAMBDA.md``):

* at zero delta the cached score served by the lambda tier is **bit-for-bit**
  what the fresh sampled path computes — same probability, same decision;
* every lambda-served request is traced (a ``lambda_delta`` child span under
  the request root, tier annotated);
* the batch-pass state checkpoints through the database and round-trips
  losslessly (disaster recovery without a recompute); a truncated or
  corrupt checkpoint is rejected at the checkpoint loader instead of
  being served;
* delta edge touches beyond the staleness budget force fallthrough to the
  exact sampled path; raising the budget serves the stale score and prices
  it honestly in ``TurboResponse.staleness``;
* faults keep their PR-4 semantics: a cache hit needs no graph path (it is
  served even during a BN outage), a miss degrades through the usual
  :class:`~repro.baselines.FallbackStack` tags;
* score drift under a ``datagen.drift`` replay is quantified and bounded —
  untouched users stay bit-exact, touched users drift by less than the
  pinned envelope;
* refreshes extend the current state only when it is a valid ancestor
  (same BN object, delta tracking on, same hops/fanout/allowed) and run a
  full pass otherwise; errors past that predicate propagate; a checkpoint
  computed under another hops/fanout/allowed is never installed.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.datagen import BehaviorLog, GeneratorConfig
from repro.datagen.drift import generate_drift_scenario
from repro.datagen.entities import HOUR
from repro.network import FAST_WINDOWS
from repro.system import (
    DeltaSampler,
    LambdaLayer,
    PredictRequest,
    TurboConfig,
    deploy_turbo,
)

from tests.test_core.test_lambda_infer import CORRUPTIONS

pytestmark = pytest.mark.resilience


def lambda_config(**overrides) -> TurboConfig:
    kwargs = dict(
        windows=FAST_WINDOWS,
        train_epochs=5,
        hidden=(8, 4),
        seed=0,
        lambda_tier=True,
    )
    kwargs.update(overrides)
    return TurboConfig(**kwargs)


@pytest.fixture(scope="module")
def lambda_deployed(tiny_dataset):
    return deploy_turbo(tiny_dataset, lambda_config())


@pytest.fixture(scope="module")
def plain_deployed(tiny_dataset):
    return deploy_turbo(
        tiny_dataset,
        TurboConfig(windows=FAST_WINDOWS, train_epochs=5, hidden=(8, 4), seed=0),
    )


@pytest.fixture()
def turbo(lambda_deployed):
    turbo, _data = lambda_deployed
    turbo.faults.clear_plans()
    turbo.recover()
    yield turbo
    turbo.faults.clear_plans()
    turbo.recover()


def covered_requests(turbo, data, count=20):
    """Replay-style requests the batch pass covers: latest txn, audit time."""
    lam = turbo.lambda_layer
    latest = {t.uid: t for t in data.feature_manager.latest_transactions()}
    uids = [int(u) for u in lam.state.node_ids[:count]]
    return [latest[uid] for uid in uids]


class TestZeroDeltaParity:
    def test_deploy_runs_one_batch_pass(self, lambda_deployed):
        turbo, _ = lambda_deployed
        lam = turbo.lambda_layer
        assert lam is not None
        assert lam.batch_passes >= 1
        assert lam.state is not None and lam.state.num_nodes > 0

    def test_sampler_is_delta_tier(self, lambda_deployed):
        turbo, _ = lambda_deployed
        sampler = turbo.bn_server.sampler
        assert isinstance(sampler, DeltaSampler)
        assert sampler.tier == "lambda"

    def test_bit_exact_vs_fresh_path(self, turbo, lambda_deployed, plain_deployed):
        _, data = lambda_deployed
        fresh_turbo, _fresh_data = plain_deployed
        for txn in covered_requests(turbo, data, count=25):
            cached = turbo.handle_request(txn, now=txn.audit_at)
            fresh = fresh_turbo.handle_request(txn, now=txn.audit_at)
            assert cached.tier == "lambda"
            assert cached.staleness == 0
            assert fresh.tier == "sampled"
            # Bit-for-bit: the cached score is the fresh path's replay.
            assert cached.probability == fresh.probability
            assert cached.blocked == fresh.blocked

    def test_lambda_hits_are_traced(self, turbo, lambda_deployed):
        _, data = lambda_deployed
        txn = covered_requests(turbo, data, count=1)[0]
        response = turbo.handle_request(txn, now=txn.audit_at)
        assert response.tier == "lambda"
        assert response.span is not None and response.span.closed
        assert response.span.attributes["tier"] == "lambda"
        children = [s for s in response.span.iter() if s.name == "lambda_delta"]
        assert len(children) == 1
        assert children[0].attributes["staleness"] == 0

    def test_predict_batch_serves_lambda_tier(self, turbo, lambda_deployed):
        _, data = lambda_deployed
        txns = covered_requests(turbo, data, count=8)
        requests = [PredictRequest(txn=t, now=t.audit_at) for t in txns]
        scalar = [turbo.predict(PredictRequest(txn=t, now=t.audit_at)) for t in txns]
        batch = turbo.predict_batch(requests)
        for one, many in zip(scalar, batch):
            assert many.tier == "lambda"
            assert many.staleness == 0
            assert many.probability == one.probability
            assert many.span is not None and many.span.closed

    def test_non_latest_transaction_misses(self, turbo, lambda_deployed):
        """Cached scores carry provenance: an older txn takes the fresh path."""
        _, data = lambda_deployed
        lam = turbo.lambda_layer
        by_uid: dict[int, list] = {}
        for txn in data.dataset.transactions:
            by_uid.setdefault(int(txn.uid), []).append(txn)
        covered = set(int(u) for u in lam.state.node_ids)
        stale_txn = next(
            txns[0]
            for uid, txns in by_uid.items()
            if uid in covered and len(txns) > 1
        )
        before = lam.misses["uncovered"]
        response = turbo.handle_request(stale_txn, now=stale_txn.audit_at)
        assert response.tier == "sampled"
        assert lam.misses["uncovered"] == before + 1

    def test_lambda_metrics_registered(self, turbo, lambda_deployed):
        _, data = lambda_deployed
        txn = covered_requests(turbo, data, count=1)[0]
        turbo.handle_request(txn, now=txn.audit_at)
        snapshot = turbo.metrics.snapshot()
        assert snapshot["counters"]["turbo.lambda.batch_passes"] >= 1
        assert snapshot["counters"]["turbo.lambda.hits"] >= 1
        assert snapshot["gauges"]["turbo.lambda.covered_nodes"] > 0


class TestCheckpoint:
    def test_round_trip_restores_identical_state(self, turbo):
        lam = turbo.lambda_layer
        live = lam.state
        loaded = lam.load_checkpoint()
        assert loaded is not None
        assert loaded.bn_version == live.bn_version
        np.testing.assert_array_equal(loaded.node_ids, live.node_ids)
        np.testing.assert_array_equal(loaded.scores, live.scores)
        np.testing.assert_array_equal(loaded.txn_ids, live.txn_ids)
        np.testing.assert_array_equal(loaded.nows, live.nows)
        np.testing.assert_array_equal(loaded.subgraph_indptr, live.subgraph_indptr)
        np.testing.assert_array_equal(loaded.subgraph_nodes, live.subgraph_nodes)

    def test_fresh_layer_recovers_from_checkpoint(self, turbo):
        """A rebuilt speed layer serves the checkpointed scores (recovery)."""
        lam = turbo.lambda_layer
        rebuilt = LambdaLayer(
            turbo.bn_server,
            turbo.feature_server,
            turbo.prediction_server,
            lam.database,
            hops=lam.hops,
            fanout=lam.fanout,
            allowed=lam.allowed,
        )
        state = rebuilt.load_checkpoint()
        assert state is not None
        assert rebuilt.state is not None  # installed: version + tracking match
        uid = int(state.node_ids[0])
        hit = rebuilt.lookup(uid, int(state.txn_ids[0]), float(state.nows[0]))
        assert hit is not None
        assert hit.score == float(state.scores[0])

    @pytest.mark.parametrize(
        "policy",
        [
            lambda state: {"hops": 1},
            lambda state: {"fanout": 3},
            # Every other covered user: the BFS skips the rest.
            lambda state: {"allowed": {int(u) for u in state.node_ids[::2]}},
        ],
        ids=["hops", "fanout", "allowed"],
    )
    def test_other_sampling_policy_is_not_installed(self, turbo, policy):
        """A checkpoint scored under another hops/fanout/allowed is not what
        this layer's fresh path computes: returned, never installed or served."""
        lam = turbo.lambda_layer
        kwargs = dict(hops=lam.hops, fanout=lam.fanout, allowed=lam.allowed)
        rebuilt = LambdaLayer(
            turbo.bn_server,
            turbo.feature_server,
            turbo.prediction_server,
            lam.database,
            **{**kwargs, **policy(lam.state)},
        )
        state = rebuilt.load_checkpoint()
        assert state is not None and (state.hops, state.fanout) == (lam.hops, lam.fanout)
        assert rebuilt.state is None
        uid = int(state.node_ids[0])
        assert rebuilt.lookup(uid, int(state.txn_ids[0]), float(state.nows[0])) is None

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_checkpoint_is_not_installed(self, turbo, corruption):
        """A rejected payload is no checkpoint: ``None``, nothing served."""
        lam = turbo.lambda_layer
        arrays = lam.state.to_arrays()
        CORRUPTIONS[corruption][0](arrays)
        rebuilt = LambdaLayer(
            turbo.bn_server,
            turbo.feature_server,
            turbo.prediction_server,
            lam.database,
            hops=lam.hops,
            fanout=lam.fanout,
            allowed=lam.allowed,
        )
        good = lam.database.query("lambda_state", "hag_state")[0][0]
        lam.database.put("lambda_state", "hag_state", arrays)
        try:
            assert rebuilt.load_checkpoint() is None
            assert rebuilt.state is None
        finally:
            lam.database.put("lambda_state", "hag_state", good)
        assert rebuilt.load_checkpoint() is not None


class TestFaultSemantics:
    def test_hit_served_during_bn_outage(self, turbo, lambda_deployed):
        """A cache hit needs no graph path: BN down, score still exact."""
        _, data = lambda_deployed
        txn = covered_requests(turbo, data, count=3)[2]
        baseline = turbo.handle_request(txn, now=txn.audit_at)
        turbo.faults.add_transient("bn_server", rate=1.0)
        turbo.bn_server.cache.clear()
        response = turbo.handle_request(txn, now=txn.audit_at)
        assert response.tier == "lambda"
        assert response.degradation == "full"
        assert response.probability == baseline.probability

    def test_miss_with_fault_keeps_fallback_tags(self, turbo, lambda_deployed):
        """A cache miss under a BN outage degrades exactly like PR 4."""
        _, data = lambda_deployed
        by_uid: dict[int, list] = {}
        for txn in data.dataset.transactions:
            by_uid.setdefault(int(txn.uid), []).append(txn)
        covered = set(int(u) for u in turbo.lambda_layer.state.node_ids)
        stale_txn = next(
            txns[0]
            for uid, txns in by_uid.items()
            if uid in covered and len(txns) > 1
        )
        user = data.dataset.user_by_id()[stale_txn.uid]
        turbo.faults.add_transient("bn_server", rate=1.0)
        turbo.bn_server.cache.clear()
        response = turbo.handle_request(stale_txn, now=stale_txn.audit_at)
        assert response.tier == "sampled"
        assert response.degradation == "scorecard"
        assert response.degradation_reason == "graph_path_down"
        assert response.probability == turbo.fallbacks.scorecard.score(
            user, stale_txn
        )


class TestStalenessBudget:
    @pytest.fixture()
    def drifted(self, tiny_dataset):
        """A lambda deployment with a re-baselined pass plus a small delta.

        The first ``run_due_jobs`` after deploy replays every window epoch
        since the origin (and runs the TTL sweep), touching most of the
        graph — so the fixture flushes that backlog, re-runs the batch
        pass to re-baseline delta tracking, and only then ingests fresh
        co-occurring logs inside one new epoch.
        """
        turbo, data = deploy_turbo(tiny_dataset, lambda_config())
        lam = turbo.lambda_layer
        t_end = max(log.timestamp for log in tiny_dataset.logs)
        turbo.bn_server.run_due_jobs(now=t_end)
        lam.run_batch_pass(turbo.clock.now())

        covered = [int(u) for u in lam.state.node_ids]
        a, b = covered[0], covered[1]
        template = tiny_dataset.logs[0]
        logs = [
            BehaviorLog(
                uid=uid,
                btype=template.btype,
                value="lambda-shared-device",
                timestamp=t_end + 60.0 + i,
            )
            for i, uid in enumerate((a, b))
        ]
        turbo.bn_server.ingest(logs)
        turbo.bn_server.run_due_jobs(now=t_end + 2 * HOUR)
        assert lam._bn.delta_size() > 0
        return turbo, data, (a, b)

    def test_touched_users_fall_through_at_zero_budget(self, drifted):
        turbo, data, (a, b) = drifted
        lam = turbo.lambda_layer
        latest = {t.uid: t for t in data.feature_manager.latest_transactions()}
        before = lam.misses["stale"]
        txn = latest[a]
        response = turbo.handle_request(txn, now=txn.audit_at)
        assert response.tier == "sampled"
        assert lam.misses["stale"] == before + 1
        assert lam.fallthrough_requests >= 1
        assert lam.fallthrough_nodes > 0

    def test_untouched_users_still_hit_bit_exact(self, drifted):
        turbo, data, (a, b) = drifted
        lam = turbo.lambda_layer
        touched = lam._delta_touched()
        latest = {t.uid: t for t in data.feature_manager.latest_transactions()}
        untouched_uid = next(
            int(uid)
            for uid in lam.state.node_ids
            if lam.state.staleness_of(lam.state.position_of(int(uid)), touched) == 0
        )
        txn = latest[untouched_uid]
        response = turbo.handle_request(txn, now=txn.audit_at)
        assert response.tier == "lambda"
        assert response.staleness == 0

    def test_budget_admits_stale_hits_with_honest_price(self, drifted):
        turbo, data, (a, b) = drifted
        lam = turbo.lambda_layer
        latest = {t.uid: t for t in data.feature_manager.latest_transactions()}
        lam.staleness_budget = 10**9
        txn = latest[a]
        response = turbo.handle_request(txn, now=txn.audit_at)
        assert response.tier == "lambda"
        assert response.staleness > 0

    def test_new_batch_pass_resets_staleness(self, drifted):
        turbo, data, (a, b) = drifted
        lam = turbo.lambda_layer
        lam.run_batch_pass(turbo.clock.now())
        latest = {t.uid: t for t in data.feature_manager.latest_transactions()}
        txn = latest[a]
        response = turbo.handle_request(txn, now=txn.audit_at)
        assert response.tier == "lambda"
        assert response.staleness == 0

    def test_refresh_period_drives_maybe_refresh(self, tiny_dataset):
        turbo, _data = deploy_turbo(
            tiny_dataset, lambda_config(lambda_refresh_period=50.0)
        )
        lam = turbo.lambda_layer
        passes = lam.batch_passes
        assert not lam.maybe_refresh(lam.last_pass_at + 10.0)
        assert lam.maybe_refresh(lam.last_pass_at + 60.0)
        assert lam.batch_passes == passes + 1


class TestDriftReplay:
    def test_drift_replay_quantifies_bounded_score_drift(self, tiny_dataset):
        """Replay a ``datagen.drift`` period as new behavior; bound the drift.

        The drifted period's logs are remapped onto covered users (a fresh
        population shares no uids with the deployment) so the new
        co-occurrences land inside cached subgraphs.  Serving then happens
        twice: once at budget 0 (forcing the exact fresh path — the ground
        truth) and once at an unbounded budget (serving the stale cached
        scores).  Users whose subgraphs absorbed no touches must be
        bit-exact; touched users' drift is quantified and pinned.
        """
        turbo, data = deploy_turbo(tiny_dataset, lambda_config())
        lam = turbo.lambda_layer
        t_end = max(log.timestamp for log in tiny_dataset.logs)
        turbo.bn_server.run_due_jobs(now=t_end)
        lam.run_batch_pass(turbo.clock.now())

        scenario = generate_drift_scenario(
            base=GeneratorConfig(n_users=60, span_days=30.0),
            n_periods=1,
            seed=3,
        )
        period = scenario.periods[0]
        covered = [int(u) for u in lam.state.node_ids]
        drift_logs = []
        for i, log in enumerate(sorted(period.dataset.logs, key=lambda l: l.timestamp)[:300]):
            drift_logs.append(
                BehaviorLog(
                    uid=covered[hash(log.uid) % len(covered)],
                    btype=log.btype,
                    value=f"drift:{log.value}",
                    timestamp=t_end + 1.0 + 0.01 * i,
                )
            )
        turbo.bn_server.ingest(drift_logs)
        turbo.bn_server.run_due_jobs(now=t_end + 2 * HOUR)
        assert lam._bn.delta_size() > 0

        latest = {t.uid: t for t in data.feature_manager.latest_transactions()}
        sample = covered[:40]

        lam.staleness_budget = 0
        fresh = {}
        for uid in sample:
            txn = latest[uid]
            fresh[uid] = turbo.handle_request(txn, now=txn.audit_at)
        lam.staleness_budget = 10**9
        drifts, stale_count = [], 0
        for uid in sample:
            txn = latest[uid]
            cached = turbo.handle_request(txn, now=txn.audit_at)
            assert cached.tier == "lambda"
            delta = abs(cached.probability - fresh[uid].probability)
            if cached.staleness == 0:
                # Zero staleness ⇒ bit-exactness held through the replay.
                assert delta == 0.0
            else:
                stale_count += 1
                drifts.append(delta)
        assert stale_count > 0, "drift replay touched no sampled user"
        # The pinned envelope: deterministic under the fixed seeds above.
        assert max(drifts) < 0.35, f"stale-score drift too large: {max(drifts)}"


class TestIncrementalRefresh:
    """Full deploy pass + cone refreshes through the one materializer."""

    def test_deploy_pass_is_full_graph(self, lambda_deployed):
        turbo, _ = lambda_deployed
        lam = turbo.lambda_layer
        assert lam.last_materialize is not None
        assert lam.last_materialize.mode == "full"
        assert lam.last_materialize.rows_computed == lam.state.num_nodes

    def test_maybe_refresh_prefers_incremental(self, tiny_dataset):
        turbo, _data = deploy_turbo(
            tiny_dataset, lambda_config(lambda_refresh_period=50.0)
        )
        lam = turbo.lambda_layer
        passes = lam.batch_passes
        assert lam.maybe_refresh(lam.last_pass_at + 60.0)
        assert lam.batch_passes == passes + 1
        assert lam.incremental_passes == 1
        assert lam.last_materialize.mode == "incremental"
        # Zero delta since the deploy pass: the refresh recomputes nothing.
        assert lam.last_materialize.rows_computed == 0

    @pytest.fixture(scope="class")
    def refreshable(self, tiny_dataset):
        """One deployment for the ancestor-predicate cases: each leaves a
        fresh, valid state behind."""
        return deploy_turbo(tiny_dataset, lambda_config())[0]

    @pytest.mark.parametrize(
        "invalidate",
        [
            lambda lam: setattr(lam, "hops", lam.hops - 1),
            lambda lam: setattr(lam, "fanout", lam.fanout - 1),
            lambda lam: setattr(lam, "_bn", object()),
            lambda lam: setattr(lam._bn, "_delta", None),
        ],
        ids=["hops", "fanout", "bn", "tracking-off"],
    )
    def test_invalid_ancestor_runs_a_full_pass(self, refreshable, invalidate):
        """A state the refresh cannot extend is not passed as the prior."""
        lam = refreshable.lambda_layer
        assert lam._ancestor() is lam.state
        incremental_passes = lam.incremental_passes
        invalidate(lam)
        assert lam._ancestor() is None
        lam.run_incremental_pass(refreshable.clock.now())
        assert lam.last_materialize.mode == "full"
        assert lam.incremental_passes == incremental_passes
        assert lam.last_materialize.rows_computed == lam.state.num_nodes
        # ... and the fresh state is a valid ancestor again.
        assert lam._ancestor() is lam.state
        lam.run_incremental_pass(refreshable.clock.now())
        assert lam.last_materialize.mode == "incremental"

    def test_stale_sampled_graph_propagates(self, refreshable):
        """Past the ancestor predicate nothing is swallowed: a state whose
        sampled subgraphs claim a BN version the network has not reached is
        an error, not a silent full sweep."""
        lam = refreshable.lambda_layer
        lam.state.bn_version = int(lam._bn.version) + 1
        assert lam._ancestor() is lam.state
        passes = lam.batch_passes
        with pytest.raises(ValueError, match="version"):
            lam.run_incremental_pass(refreshable.clock.now())
        assert lam.batch_passes == passes
        lam.run_batch_pass(refreshable.clock.now())  # leave a valid state behind

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_passes_leave_the_model_mode_alone(self, refreshable, mode):
        """``model.training`` is the caller's: a full pass and a cone refresh
        that rescores a target leave it as it was set."""
        lam = refreshable.lambda_layer
        model = lam.prediction_server.model
        getattr(model, mode)()
        now = refreshable.clock.now()
        lam.run_batch_pass(now)
        assert model.training is (mode == "train")
        u, v = (int(uid) for uid in lam.state.node_ids[:2])
        lam._bn.add_weight(u, v, sorted(lam._bn.edge_types())[0], 1.0, now)
        lam.run_incremental_pass(now)
        assert lam.last_materialize.mode == "incremental"
        assert lam.last_materialize.rows_computed > 0
        assert model.training is (mode == "train")

    def test_incremental_refresh_after_delta_matches_full(self, tiny_dataset):
        turbo, _data = deploy_turbo(tiny_dataset, lambda_config())
        lam = turbo.lambda_layer
        t_end = max(log.timestamp for log in tiny_dataset.logs)
        turbo.bn_server.run_due_jobs(now=t_end)
        lam.run_batch_pass(turbo.clock.now())

        covered = [int(u) for u in lam.state.node_ids]
        template = tiny_dataset.logs[0]
        turbo.bn_server.ingest(
            [
                BehaviorLog(
                    uid=uid,
                    btype=template.btype,
                    value="inc-shared-device",
                    timestamp=t_end + 60.0 + i,
                )
                for i, uid in enumerate(covered[:2])
            ]
        )
        turbo.bn_server.run_due_jobs(now=t_end + 2 * HOUR)
        assert lam._bn.delta_size() > 0
        lam.run_incremental_pass(turbo.clock.now())
        incremental = lam.state
        assert lam.last_materialize.mode == "incremental"
        assert 0 < lam.last_materialize.rows_computed < incremental.num_nodes

        lam.run_batch_pass(turbo.clock.now())
        full = lam.state
        # Scores and subgraphs must be byte-equal the fresh full sweep.
        assert incremental.scores.tobytes() == full.scores.tobytes()
        assert (
            incremental.subgraph_indptr.tobytes() == full.subgraph_indptr.tobytes()
        )
        assert (
            incremental.subgraph_nodes.tobytes() == full.subgraph_nodes.tobytes()
        )

    def test_materialize_metrics_and_span(self, tiny_dataset):
        turbo, _data = deploy_turbo(tiny_dataset, lambda_config())
        lam = turbo.lambda_layer
        lam.run_incremental_pass(turbo.clock.now())
        counters = turbo.metrics.snapshot()["counters"]
        assert "turbo.lambda.materialize.rows" in counters
        assert "turbo.lambda.materialize.edges" in counters
        histograms = turbo.metrics.snapshot()["histograms"]
        assert "turbo.lambda.materialize.wall_seconds" in histograms
        assert "turbo.lambda.materialize.clock_seconds" in histograms
        assert "turbo.lambda.batch_seconds" in histograms

        trace = next(
            t for t in reversed(turbo.tracer.traces) if t.name == "lambda_batch"
        )
        mat = next(s for s in trace.children if s.name == "lambda_materialize")
        assert mat.attributes["mode"] == "incremental"
        assert mat.closed

    def test_stats_expose_materialize_counters(self, lambda_deployed):
        turbo, _ = lambda_deployed
        stats = turbo.lambda_layer.stats()
        assert "incremental_passes" in stats
        assert stats["materialize_rows"] >= 0
        assert stats["materialize_edges"] >= 0


class TestContextRowStore:
    """The lambda pass reads the feature server's context-row store (no
    per-pass dict): rows serving or an earlier pass computed are not
    computed again, and what it assembles is still fresh-row bytes."""

    @pytest.fixture(scope="class")
    def deployed(self, tiny_dataset):
        return deploy_turbo(tiny_dataset, lambda_config())

    @pytest.fixture()
    def spied(self, deployed, monkeypatch):
        """``(context-row computes, assembled matrices)`` of the passes run."""
        import repro.system.lambda_layer as lambda_module
        from repro.features import FeatureManager

        turbo, data = deployed
        real_vector = FeatureManager.vector
        real_materialize = lambda_module.materialize
        context_computes: list[int] = []
        assembled: list[tuple[list[int], float, np.ndarray]] = []

        def vector(self, txn, as_of=None):
            if as_of is None:
                context_computes.append(txn.uid)
            return real_vector(self, txn, as_of)

        def materialize(model, bn, targets, txn_ids, nows, feature_fn, **kwargs):
            def recording(k, nodes):
                matrix = feature_fn(k, nodes)
                assembled.append(([int(u) for u in nodes], nows[k], matrix))
                return matrix

            return real_materialize(model, bn, targets, txn_ids, nows, recording, **kwargs)

        monkeypatch.setattr(FeatureManager, "vector", vector)
        monkeypatch.setattr(lambda_module, "materialize", materialize)

        def check_bytes():
            server, manager = turbo.feature_server, data.feature_manager
            assert assembled
            for nodes, now, matrix in assembled:
                rows = [real_vector(manager, server.latest_transaction(nodes[0]), now)]
                rows += [
                    real_vector(manager, server.latest_transaction(uid)) for uid in nodes[1:]
                ]
                np.testing.assert_array_equal(matrix, np.stack(rows))
            del assembled[:]

        return turbo, context_computes, check_bytes

    def test_passes_share_rows_across_observe_and_refresh(self, spied):
        turbo, context_computes, check_bytes = spied
        lam, server = turbo.lambda_layer, turbo.feature_server
        now = turbo.clock.now()
        covered = lam.state.num_nodes

        lam.run_batch_pass(now)  # the deploy pass filled the store
        assert context_computes == []
        check_bytes()

        uid = int(lam.state.node_ids[0])
        old = server.latest_transaction(uid)
        newer = replace(
            old, txn_id=10**6, created_at=old.created_at + 3600.0,
            item_value=old.item_value * 3,
        )
        assert server.observe([newer]) == 1
        lam.run_batch_pass(now)
        assert context_computes == [uid]  # a newer application: that row only
        check_bytes()

        del context_computes[:]
        assert server.observe([old]) == 0
        lam.run_batch_pass(now)
        assert context_computes == []  # an older one: nothing
        check_bytes()

        server.observe([newer])  # refresh() rebuilds from the dataset: back to old
        server.refresh()
        lam.run_batch_pass(now)
        # The pass reads the context rows of its subgraphs' non-target
        # nodes: each one computed once.
        context_nodes = {
            int(u) for row in range(lam.state.num_nodes) for u in lam.state.subgraph_of(row)[1:]
        }
        assert sorted(context_computes) == sorted(context_nodes)
        assert lam.state.num_nodes == covered
        check_bytes()

    def test_serving_reads_the_rows_the_pass_left(self, spied, deployed):
        turbo, context_computes, _ = spied
        _, data = deployed
        turbo.lambda_layer.run_batch_pass(turbo.clock.now())
        del context_computes[:]
        txn = covered_requests(turbo, data, count=1)[0]
        # Off the cached as-of time: a lambda miss, served by the sampled path.
        response = turbo.handle_request(txn, now=txn.audit_at + HOUR)
        assert response.tier == "sampled"
        assert context_computes == []
