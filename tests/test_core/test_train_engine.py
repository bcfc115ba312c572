"""Sampled-training engine: presampling, one epoch loop, data-parallel parity.

Four guarantees are pinned here:

* **Presample bit-exactness** — :class:`PresampledGraph` replays the
  deterministic (``rng=None``) fanout policy exactly: ``sample`` matches
  ``sample_khop_nodes`` and ``induced`` matches ``induced_adjacencies``
  bit-for-bit, across fanouts, hop counts, ties and duplicate seeds.
* **One loop** — :func:`train_with_neighbor_sampling` and
  :func:`train_parallel` are each other's oracle: bit-identical trained
  models wherever the fanout cap does not bind.
* **Gradient parity** — the optimizer trajectory of
  :func:`train_parallel` is bit-identical across ``workers`` in
  {0, 1, 2, 4} and with mid-run worker crashes failed over to the parent.
* **Seed threading** — every rng stream derives from ``TrainConfig.seed``
  via :meth:`TrainConfig.streams`; the stream traces are pinned so a
  change to the derivation (which would silently alter every trained
  model) fails loudly.
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    HAG,
    ParallelTrainConfig,
    PresampledGraph,
    TrainConfig,
    assemble_minibatch,
    induced_adjacencies,
    sample_khop_nodes,
    train_parallel,
    train_with_neighbor_sampling,
)
from repro.core import train_engine
from repro.core.train_engine import (
    _batch_gradient,
    _inprocess_epoch,
    _pooled_epoch,
    fold_gradients,
)
from repro.network.shm import SharedSnapshotStore
from repro.obs.profiling import NullProfiler, TrainProfiler
from repro.system.train_workers import TrainWorkerPool, publish_train_inputs
from repro import nn

N_TYPES = 2


def random_adjacencies(
    n: int, density: float, integer_weights: bool = False, seed: int = 0
) -> list[sp.csr_matrix]:
    rng = np.random.default_rng(seed)
    matrices = []
    for t in range(N_TYPES):
        m = int(density * n)
        rows = rng.integers(0, n, size=m)
        cols = rng.integers(0, n, size=m)
        if integer_weights:  # ties exercise the stable rank ordering
            weights = rng.integers(1, 4, size=m).astype(float)
        else:
            weights = rng.random(m) + 0.01
        a = sp.coo_matrix((weights, (rows, cols)), shape=(n, n)).tocsr()
        a.sum_duplicates()
        matrices.append(a)
    return matrices


def make_problem(n: int = 200, seed: int = 0):
    """A small 2-type training problem (graphs, features, labels, splits)."""
    rng = np.random.default_rng(seed)
    adjacencies = random_adjacencies(n, density=4.0, seed=seed)
    features = rng.normal(size=(n, 12))
    labels = (rng.random(n) < 0.3).astype(np.float64)
    idx = rng.permutation(n)
    train_idx = idx[: int(0.7 * n)]
    val_idx = idx[int(0.7 * n) :]
    return adjacencies, features, labels, train_idx, val_idx


def make_model(seed: int = 0) -> HAG:
    return HAG(
        12,
        N_TYPES,
        np.random.default_rng(seed),
        hidden=(8, 6),
        att_dim=4,
        cfo_att_dim=4,
        cfo_out_dim=4,
        mlp_hidden=(6,),
    )


def assert_states_equal(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key


# ----------------------------------------------------------------------
# Presampled structure: bit-exact vs the pinned reference samplers
# ----------------------------------------------------------------------
class TestPresampledGraph:
    @pytest.mark.parametrize("fanout", [None, 0, 3, 7])
    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    def test_sample_and_induced_bit_exact(self, fanout, hops):
        for seed in range(3):
            adjacencies = random_adjacencies(
                150, density=5.0, integer_weights=(seed == 1), seed=seed
            )
            pre = PresampledGraph.build(adjacencies, fanout)
            rng = np.random.default_rng(seed + 10)
            seeds = rng.choice(150, size=12, replace=False)
            seeds = np.concatenate([seeds, seeds[:4]])  # duplicates
            expected_nodes = sample_khop_nodes(
                adjacencies, seeds, hops, fanout, None
            )
            got_nodes = pre.sample(seeds, hops)
            assert np.array_equal(got_nodes, expected_nodes)
            expected_subs = induced_adjacencies(adjacencies, expected_nodes)
            got_subs = pre.induced(got_nodes)
            for got, expected in zip(got_subs, expected_subs):
                assert np.array_equal(got.indptr, expected.indptr)
                assert np.array_equal(got.indices, expected.indices)
                assert np.array_equal(got.data, expected.data)

    def test_empty_seed_set(self):
        adjacencies = random_adjacencies(50, density=3.0)
        pre = PresampledGraph.build(adjacencies, 5)
        empty = np.array([], dtype=np.int64)
        assert len(pre.sample(empty, 2)) == 0
        subs = pre.induced(empty)
        assert all(s.shape == (0, 0) for s in subs)

    def test_payload_round_trip(self):
        adjacencies = random_adjacencies(120, density=4.0, seed=3)
        pre = PresampledGraph.build(adjacencies, 4)
        arrays, meta = pre.to_payload()
        clone = PresampledGraph.from_payload(arrays, meta)
        seeds = np.arange(0, 120, 7)
        assert np.array_equal(clone.sample(seeds, 2), pre.sample(seeds, 2))
        nodes = pre.sample(seeds, 2)
        for got, expected in zip(clone.induced(nodes), pre.induced(nodes)):
            assert np.array_equal(got.indptr, expected.indptr)
            assert np.array_equal(got.indices, expected.indices)
            assert np.array_equal(got.data, expected.data)

    def test_scratch_reuse_is_clean(self):
        # Consecutive calls share scratch buffers; a dirty reset would
        # corrupt the second result.
        adjacencies = random_adjacencies(100, density=4.0, seed=5)
        pre = PresampledGraph.build(adjacencies, 3)
        a = pre.sample(np.array([1, 2, 3]), 2)
        b = pre.sample(np.array([50, 60]), 2)
        assert np.array_equal(a, pre.sample(np.array([1, 2, 3]), 2))
        assert np.array_equal(b, pre.sample(np.array([50, 60]), 2))

    @pytest.mark.parametrize(
        "seeds, hops",
        [([-1], 1), ([3, 100], 1), ([3, 4], -1)],
        ids=["negative-seed", "seed-out-of-range", "negative-hops"],
    )
    def test_rejected_sample_leaves_scratch_clean(self, seeds, hops):
        # A rejected call used to mark `_seen` first and raise second, so
        # the next valid call silently lost nodes; hops=-1 returned the
        # seeds where sample_khop_nodes raises.
        adjacencies = random_adjacencies(100, density=4.0, seed=5)
        pre = PresampledGraph.build(adjacencies, 3)
        valid = np.arange(0, 99, 7)
        expected = pre.sample(valid, 2)
        assert 99 in expected  # the node a wrapped seed of -1 would mark
        with pytest.raises(ValueError):
            pre.sample(np.array(seeds), hops)
        assert np.array_equal(pre.sample(valid, 2), expected)
        assert np.array_equal(
            expected, sample_khop_nodes(adjacencies, valid, 2, 3, None)
        )

    def test_build_rejects_malformed_inputs(self):
        adjacencies = random_adjacencies(40, density=3.0)
        with pytest.raises(ValueError, match="fanout"):
            PresampledGraph.build(adjacencies, -1)
        with pytest.raises(ValueError, match="at least one"):
            PresampledGraph.build([], 3)
        with pytest.raises(ValueError, match="same-shape"):
            PresampledGraph.build([adjacencies[0], sp.csr_matrix((41, 41))], 3)
        with pytest.raises(ValueError, match="square"):
            PresampledGraph.build([sp.csr_matrix((40, 41))], 3)


# ----------------------------------------------------------------------
# Seed threading: one seed drives every stream, pinned
# ----------------------------------------------------------------------
class TestSeedThreading:
    def test_streams_trace_pinned_for_seed_zero(self):
        # A change to the seed->stream derivation would silently change
        # every trained model; these literals pin the derivation.
        streams = TrainConfig(seed=0).streams()
        expected = {
            "shuffle": [802, 942, 5, 316, 758],
            "sample": [662, 677, 352, 242, 78],
            "init": [656, 838, 462, 83, 997],
            "workers": [892, 364, 310, 511, 145],
        }
        assert set(streams) == set(expected)
        for name, trace in expected.items():
            assert list(streams[name].integers(0, 1000, 5)) == trace

    def test_streams_differ_across_names_and_seeds(self):
        a = TrainConfig(seed=1).streams()
        b = TrainConfig(seed=2).streams()
        draws_a = {k: tuple(v.integers(0, 2**32, 4)) for k, v in a.items()}
        draws_b = {k: tuple(v.integers(0, 2**32, 4)) for k, v in b.items()}
        assert len(set(draws_a.values())) == len(draws_a)  # independent streams
        for name in draws_a:
            assert draws_a[name] != draws_b[name]  # seed actually threads

    def test_same_seed_same_trained_model(self):
        adjacencies, features, labels, train_idx, _ = make_problem(120)
        states = []
        for _ in range(2):
            model = make_model(seed=3)
            train_parallel(
                model, adjacencies, features, labels, train_idx,
                config=ParallelTrainConfig(
                    epochs=2, batch_size=48, seed=7, min_epochs=1, patience=50
                ),
                hops=2, fanout=4,
            )
            states.append(model.state_dict())
        assert_states_equal(states[0], states[1])

    def test_different_seed_changes_schedule(self):
        adjacencies, features, labels, train_idx, _ = make_problem(120)
        states = []
        for seed in (0, 1):
            model = make_model(seed=3)
            train_parallel(
                model, adjacencies, features, labels, train_idx,
                config=ParallelTrainConfig(
                    epochs=2, batch_size=48, seed=seed, min_epochs=1, patience=50
                ),
                hops=2, fanout=4,
            )
            states.append(model.state_dict())
        assert any(
            not np.array_equal(states[0][k], states[1][k]) for k in states[0]
        )


# ----------------------------------------------------------------------
# Engine parity: bit-identical trajectories across every execution mode
# ----------------------------------------------------------------------
class TestTrainParallelParity:
    @pytest.fixture(scope="class")
    def problem(self):
        return make_problem(200, seed=0)

    @pytest.fixture(scope="class")
    def baseline_state(self, problem):
        adjacencies, features, labels, train_idx, val_idx = problem
        model = make_model()
        train_parallel(
            model, adjacencies, features, labels, train_idx, val_idx,
            config=self.config(), hops=2, fanout=5,
        )
        return model.state_dict()

    @staticmethod
    def config(**overrides) -> ParallelTrainConfig:
        base = dict(
            epochs=3, batch_size=64, seed=0, min_epochs=1, patience=50,
            sync_batches=2,
        )
        base.update(overrides)
        return ParallelTrainConfig(**base)

    @pytest.mark.parametrize("fanout", ["max-degree", None])
    def test_entry_points_are_each_others_oracle(self, problem, fanout):
        # One driver, two `build` closures: where the fanout cap never
        # binds, weighted draws and the presampled top-k replay select the
        # same nodes, so the two public trainers must agree bit for bit.
        adjacencies, features, labels, train_idx, val_idx = problem
        if fanout is not None:
            fanout = max(int(np.diff(a.indptr).max()) for a in adjacencies)
        base = dict(epochs=3, batch_size=64, seed=0, min_epochs=1, patience=50)
        legacy = make_model()
        legacy_result = train_with_neighbor_sampling(
            legacy, adjacencies, features, labels, train_idx, val_idx,
            config=TrainConfig(**base), hops=2, fanout=fanout,
        )
        engine = make_model()
        engine_result = train_parallel(
            engine, adjacencies, features, labels, train_idx, val_idx,
            config=ParallelTrainConfig(**base, sync_batches=1, workers=0),
            hops=2, fanout=fanout,
        )
        assert_states_equal(legacy.state_dict(), engine.state_dict())
        assert legacy_result.train_losses == engine_result.train_losses
        assert legacy_result.val_aucs == engine_result.val_aucs

    def test_binding_fanout_draws_from_the_sample_stream(self, problem):
        # Under a binding cap the legacy entry point draws (seeded by the
        # config's `sample` stream): reproducible, and not the top-k model.
        adjacencies, features, labels, train_idx, _ = problem
        config = TrainConfig(epochs=2, batch_size=64, seed=0, min_epochs=1, patience=50)
        states = []
        for _ in range(2):
            model = make_model()
            train_with_neighbor_sampling(
                model, adjacencies, features, labels, train_idx,
                config=config, hops=2, fanout=2,
            )
            states.append(model.state_dict())
        assert_states_equal(states[0], states[1])
        topk = make_model()
        train_parallel(
            topk, adjacencies, features, labels, train_idx,
            config=self.config(epochs=2, sync_batches=1), hops=2, fanout=2,
        )
        assert any(
            not np.array_equal(states[0][k], topk.state_dict()[k]) for k in states[0]
        )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_counts_bit_identical(self, problem, baseline_state, workers):
        adjacencies, features, labels, train_idx, val_idx = problem
        model = make_model()
        result = train_parallel(
            model, adjacencies, features, labels, train_idx, val_idx,
            config=self.config(workers=workers), hops=2, fanout=5,
        )
        assert_states_equal(model.state_dict(), baseline_state)
        assert len(result.train_losses) == 3

    def test_serialized_dispatch_bit_identical(self, problem, baseline_state):
        adjacencies, features, labels, train_idx, val_idx = problem
        model = make_model()
        train_parallel(
            model, adjacencies, features, labels, train_idx, val_idx,
            config=self.config(workers=2, serialize_dispatch=True),
            hops=2, fanout=5,
        )
        assert_states_equal(model.state_dict(), baseline_state)

    @pytest.mark.parametrize("sync_batches", [1, 3])
    def test_sync_batches_parity_across_workers(self, problem, sync_batches):
        # Different sync_batches change the trajectory (fewer, averaged
        # steps) but the trajectory must still not depend on workers.
        adjacencies, features, labels, train_idx, _ = problem
        states = []
        for workers in (0, 2):
            model = make_model()
            train_parallel(
                model, adjacencies, features, labels, train_idx,
                config=self.config(workers=workers, sync_batches=sync_batches),
                hops=2, fanout=5,
            )
            states.append(model.state_dict())
        assert_states_equal(states[0], states[1])

    def test_matches_legacy_loop_losses(self, problem):
        # Pin that training actually reduces the loss.
        adjacencies, features, labels, train_idx, _ = problem
        model = make_model()
        result = train_parallel(
            model, adjacencies, features, labels, train_idx,
            config=self.config(epochs=5), hops=2, fanout=5,
        )
        assert result.train_losses[-1] < result.train_losses[0]


# ----------------------------------------------------------------------
# Worker pool: round trips, fallback inputs, failover
# ----------------------------------------------------------------------
class TestTrainWorkerPool:
    @pytest.fixture()
    def published(self):
        adjacencies, features, labels, train_idx, _ = make_problem(120, seed=2)
        pre = PresampledGraph.build([a.tocsr() for a in adjacencies], 4)
        store = SharedSnapshotStore(prefix="repro-test-train")
        handle = publish_train_inputs(store, pre, features, labels, hops=2)
        inputs = handle.segment if handle.shared else (handle.arrays, handle.meta)
        yield pre, features, labels, train_idx, inputs
        store.close()

    @staticmethod
    def payload(model) -> bytes:
        return pickle.dumps({"model": model, "pos_weight": 2.0})

    def test_gradients_match_in_process_bits(self, published):
        pre, features, labels, train_idx, inputs = published
        model = make_model(seed=1)
        pool = TrainWorkerPool(inputs, 2, model_payload=self.payload(model))
        try:
            params = model.parameters()
            batches = [train_idx[:32], train_idx[32:64]]
            state = [p.data for p in params]
            value = pool.gradients(0, state, batches)
            assert value is not None
            w_grads, w_losses, w_nodes, busy = value
            assert busy > 0.0
            for batch, grads, loss, nodes in zip(
                batches, w_grads, w_losses, w_nodes
            ):
                mb = assemble_minibatch(pre, features, labels, batch, 2)
                expected_grads, expected_loss = _batch_gradient(
                    model, params, mb, 2.0
                )
                assert loss == expected_loss
                assert nodes == len(mb.nodes)
                for got, expected in zip(grads, expected_grads):
                    assert np.array_equal(got, expected)
        finally:
            pool.close()

    def test_dead_worker_reports_none(self, published):
        *_, inputs = published
        pool = TrainWorkerPool(inputs, 2, model_payload=self.payload(make_model()))
        try:
            pool.crash(0)
            assert pool.gradients(0, [], []) is None
            assert not pool.alive(0)
            assert pool.alive(1)
            assert pool.alive_count() == 1
        finally:
            pool.close()

    def test_worker_error_raises(self, published):
        *_, inputs = published
        pool = TrainWorkerPool(inputs, 1)  # no model loaded
        try:
            with pytest.raises(RuntimeError, match="no model loaded"):
                pool.gradients(0, [], [np.array([0, 1])])
            assert pool.alive(0)  # errors are reported, not fatal
        finally:
            pool.close()

    def test_failover_epoch_is_bit_identical(self, published):
        # Crash one of two workers, run a pooled epoch, and compare the
        # resulting parameters with a pure in-process epoch: the parent's
        # recomputation of the dead worker's batches must be bit-exact.
        pre, features, labels, train_idx, inputs = published
        config = ParallelTrainConfig(
            epochs=1, batch_size=32, sync_batches=2, workers=2,
            min_epochs=1, patience=50,
        )
        batches = [
            train_idx[i : i + config.batch_size]
            for i in range(0, len(train_idx), config.batch_size)
        ]

        def build(batch):
            return assemble_minibatch(pre, features, labels, batch, 2)

        reference = make_model(seed=4)
        ref_params = reference.parameters()
        ref_optimizer = nn.Adam(ref_params, lr=config.lr)
        ref_loss = _inprocess_epoch(
            reference, ref_params, ref_optimizer, batches, config,
            2.0, build, NullProfiler(),
        )

        model = make_model(seed=4)
        params = model.parameters()
        optimizer = nn.Adam(params, lr=config.lr)
        pool = TrainWorkerPool(inputs, 2, model_payload=self.payload(model))
        try:
            pool.crash(1)
            loss = _pooled_epoch(
                pool, model, params, optimizer, batches, config,
                2.0, build, NullProfiler(),
            )
        finally:
            pool.close()
        assert loss == ref_loss
        assert_states_equal(model.state_dict(), reference.state_dict())


# ----------------------------------------------------------------------
# Config validation, fold semantics, profiler accounting
# ----------------------------------------------------------------------
class TestConfigAndFold:
    def test_validate_rejects_bad_values(self):
        with pytest.raises(ValueError, match="sync_batches"):
            ParallelTrainConfig(sync_batches=0).validate()
        with pytest.raises(ValueError, match="workers"):
            ParallelTrainConfig(workers=-1).validate()
        ParallelTrainConfig(workers=2, sync_batches=4).validate()

    @pytest.mark.parametrize("removed", ["presample", "prefetch"])
    def test_removed_options_are_gone(self, removed):
        # Presampling and prefetching are the path, not options.
        with pytest.raises(TypeError, match=removed):
            ParallelTrainConfig(**{removed: True})

    def test_base_validation_still_applies(self):
        with pytest.raises(ValueError, match="epochs"):
            ParallelTrainConfig(epochs=0).validate()

    def test_requires_batch_size(self):
        adjacencies, features, labels, train_idx, _ = make_problem(60)
        with pytest.raises(ValueError, match="batch size"):
            train_parallel(
                make_model(), adjacencies, features, labels, train_idx,
                config=ParallelTrainConfig(batch_size=None),
            )

    @pytest.mark.parametrize("train", [train_parallel, train_with_neighbor_sampling])
    @pytest.mark.parametrize(
        "bad, match",
        [
            (dict(hops=-1), "hops"),
            (dict(fanout=-1), "fanout"),
            (dict(adjacencies=[sp.csr_matrix((60, 60)), sp.csr_matrix((61, 61))]), "same-shape"),
            (dict(train_idx=np.array([0, 60])), "train_idx"),
            (dict(train_idx=np.array([-1, 3])), "train_idx"),
            (dict(val_idx=np.array([5, 99])), "val_idx"),
        ],
        ids=["hops", "fanout", "shapes", "train-high", "train-negative", "val-high"],
    )
    def test_driver_rejects_malformed_inputs(self, train, bad, match, monkeypatch):
        # Typed error at the driver entry, before any presample pass.
        adjacencies, features, labels, train_idx, val_idx = make_problem(60)
        kwargs = dict(
            adjacencies=adjacencies, features=features, labels=labels,
            train_idx=train_idx, val_idx=val_idx, hops=2, fanout=4,
            config=ParallelTrainConfig(epochs=1, batch_size=16, workers=1),
        )
        kwargs.update(bad)
        monkeypatch.setattr(
            PresampledGraph, "build", lambda *a: pytest.fail("presampled")
        )
        with pytest.raises(ValueError, match=match):
            train(make_model(), **kwargs)

    def test_fold_is_left_to_right_in_batch_order(self):
        rng = np.random.default_rng(0)
        per_batch = [[rng.normal(size=(3, 2)), rng.normal(size=(4,))] for _ in range(4)]
        folded = fold_gradients(per_batch, 0.25)
        for i in range(2):
            expected = per_batch[0][i].copy()
            for grads in per_batch[1:]:
                expected = expected + grads[i]
            expected = expected * 0.25
            assert np.array_equal(folded[i], expected)

    def test_fold_scale_one_skips_multiply(self):
        g = np.array([1.0, 2.0])
        folded = fold_gradients([[g]], 1.0)
        assert np.array_equal(folded[0], g)
        assert folded[0] is not g  # defensive copy


class TestPrefetchLifetime:
    def test_failed_epoch_leaves_no_thread_and_fork_still_works(self, monkeypatch):
        # A consumer that raised mid-epoch used to leave the prefetch
        # thread parked on its bounded queue forever, and the next
        # train_parallel(workers>0) in the process was refused its fork.
        adjacencies, features, labels, train_idx, _ = make_problem(120)
        config = dict(epochs=1, batch_size=16, min_epochs=1, patience=50)
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("boom on batch 2")
            return _batch_gradient(*args, **kwargs)

        monkeypatch.setattr(train_engine, "_batch_gradient", failing)
        with pytest.raises(RuntimeError, match="boom on batch 2"):
            train_parallel(
                make_model(), adjacencies, features, labels, train_idx,
                config=ParallelTrainConfig(**config), hops=2, fanout=4,
            )
        monkeypatch.undo()
        assert threading.enumerate() == [threading.main_thread()]
        result = train_parallel(
            make_model(), adjacencies, features, labels, train_idx,
            config=ParallelTrainConfig(**config, workers=1), hops=2, fanout=4,
        )
        assert len(result.train_losses) == 1

    def test_build_error_reaches_the_consumer(self):
        adjacencies, features, labels, train_idx, _ = make_problem(60)
        config = ParallelTrainConfig(epochs=1, batch_size=16, sync_batches=1)

        def build(batch):
            raise KeyError("assembly failed")

        model = make_model()
        params = model.parameters()
        with pytest.raises(KeyError, match="assembly failed"):
            _inprocess_epoch(
                model, params, nn.Adam(params), [train_idx[:16]], config,
                2.0, build, NullProfiler(),
            )
        assert threading.enumerate() == [threading.main_thread()]


class TestProfilerAccounting:
    def test_stage_breakdown_covers_pipeline(self):
        adjacencies, features, labels, train_idx, val_idx = make_problem(120)
        profiler = TrainProfiler()
        train_parallel(
            make_model(), adjacencies, features, labels, train_idx, val_idx,
            config=ParallelTrainConfig(
                epochs=2, batch_size=48, min_epochs=1, patience=50
            ),
            hops=2, fanout=4, profiler=profiler,
        )
        totals = profiler.stage_totals()
        for stage in (
            "presample", "sampling", "induction", "gather", "prefetch",
            "forward", "backward", "reduce", "step", "validation",
        ):
            assert stage in totals, stage
        expected_batches = -(-len(train_idx) // 48)
        assert len(profiler.epochs) == 2
        assert all(p.batches == expected_batches for p in profiler.epochs)
        assert all(p.sampled_nodes > 0 for p in profiler.epochs)

    def test_pooled_stages_include_worker_clocks(self):
        adjacencies, features, labels, train_idx, _ = make_problem(120)
        profiler = TrainProfiler()
        train_parallel(
            make_model(), adjacencies, features, labels, train_idx,
            config=ParallelTrainConfig(
                epochs=1, batch_size=48, min_epochs=1, patience=50, workers=2
            ),
            hops=2, fanout=4, profiler=profiler,
        )
        totals = profiler.stage_totals()
        for stage in ("dispatch", "workers_busy", "workers_critical"):
            assert stage in totals, stage
        assert totals["workers_busy"] >= totals["workers_critical"] > 0.0

    def test_mirror_into_prefixes_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        adjacencies, features, labels, train_idx, _ = make_problem(100)
        profiler = TrainProfiler()
        train_parallel(
            make_model(), adjacencies, features, labels, train_idx,
            config=ParallelTrainConfig(
                epochs=1, batch_size=48, min_epochs=1, patience=50
            ),
            hops=2, fanout=4, profiler=profiler,
        )
        registry = MetricsRegistry()
        profiler.mirror_into(registry, prefix="turbo.")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["turbo.train.epochs"] == 1
        assert snapshot["counters"]["turbo.train.batches"] >= 1
        assert any(
            name.startswith("turbo.train.stage_seconds.")
            for name in snapshot["histograms"]
        )
