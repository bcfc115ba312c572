"""Sampled-training engine: presampling, one epoch loop, input boundaries.

Four guarantees are pinned here:

* **Presample bit-exactness** — :class:`PresampledGraph` replays the
  deterministic (``rng=None``) fanout policy exactly: ``sample`` matches
  the per-node loops of ``tests/oracles/minibatch.py`` bit-for-bit, across
  fanouts, hop counts, ties and duplicate seeds, and walks its own scratch,
  never serving's.
* **One loop** — :func:`train_with_neighbor_sampling` and
  :func:`train_parallel` are each other's oracle: bit-identical trained
  models wherever the fanout cap does not bind.
* **Boundaries** — bad hyperparameters, graphs, indices, non-finite
  features and non-binary labels raise ``ValueError`` before any
  presample pass or optimizer step, in every trainer.
* **Seed threading** — every rng stream derives from ``TrainConfig.seed``
  via :meth:`TrainConfig.streams`; the stream traces are pinned so a
  change to the derivation (which would silently alter every trained
  model) fails loudly.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    HAG,
    TrainConfig,
    prepare_aggregators,
    train_node_classifier,
    train_parallel,
    train_with_neighbor_sampling,
)
from repro.core import train_engine
from repro.core.train_engine import PresampledGraph
from repro.network import sampling
from repro.obs.profiling import TrainProfiler
from repro.system import fork_map
from repro import nn
from tests.oracles.minibatch import (
    induced_adjacencies_reference,
    sample_khop_nodes_reference,
)

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
            expected_nodes = sample_khop_nodes_reference(
                adjacencies, seeds, hops, fanout, None
            )
            got_nodes = pre.sample(seeds, hops)
            assert np.array_equal(got_nodes, expected_nodes)
            expected_subs = induced_adjacencies_reference(adjacencies, expected_nodes)
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
            expected, sample_khop_nodes_reference(adjacencies, valid, 2, 3, None)
        )

    def test_walks_never_touch_the_serving_scratch(self, monkeypatch):
        # Training walks run on the prefetch thread: a walk that marked in
        # serving's module scratch could corrupt a concurrent request's BFS.
        class Untouchable:
            def __getattr__(self, name):
                pytest.fail("the serving scratch was read")

            def __getitem__(self, key):
                pytest.fail("the serving scratch was read")

            def __iter__(self):
                pytest.fail("the serving scratch was read")

        adjacencies, features, labels, train_idx, val_idx = make_problem(120)
        expected = sample_khop_nodes_reference(adjacencies, train_idx[:20], 2, 3)
        pre = PresampledGraph.build(adjacencies, 3)
        monkeypatch.setattr(sampling, "_MARKS", Untouchable())
        with pytest.raises(pytest.fail.Exception):  # serving's walk does read it
            sampling._bfs_positions(
                (pre.all_indptr, pre.all_indices), None, train_idx[:1], 1
            )
        assert np.array_equal(pre.sample(train_idx[:20], 2), expected)
        result = train_parallel(
            make_model(), adjacencies, features, labels, train_idx, val_idx,
            config=TrainConfig(epochs=1, batch_size=32, seed=0, min_epochs=1, patience=50),
            hops=2, fanout=3,
        )
        assert len(result.train_losses) == 1

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
                config=TrainConfig(
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
                config=TrainConfig(
                    epochs=2, batch_size=48, seed=seed, min_epochs=1, patience=50
                ),
                hops=2, fanout=4,
            )
            states.append(model.state_dict())
        assert any(
            not np.array_equal(states[0][k], states[1][k]) for k in states[0]
        )


# ----------------------------------------------------------------------
# Engine parity: the two entry points are each other's oracle
# ----------------------------------------------------------------------
class TestTrainParallelParity:
    @pytest.fixture(scope="class")
    def problem(self):
        return make_problem(200, seed=0)

    @staticmethod
    def config(**overrides) -> TrainConfig:
        base = dict(epochs=3, batch_size=64, seed=0, min_epochs=1, patience=50)
        base.update(overrides)
        return TrainConfig(**base)

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
            config=TrainConfig(**base),
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
            config=self.config(epochs=2), hops=2, fanout=2,
        )
        assert any(
            not np.array_equal(states[0][k], topk.state_dict()[k]) for k in states[0]
        )

    def test_matches_legacy_loop_losses(self, problem):
        # Pin that training actually reduces the loss.
        adjacencies, features, labels, train_idx, _ = problem
        model = make_model()
        result = train_parallel(
            model, adjacencies, features, labels, train_idx,
            config=self.config(epochs=5), hops=2, fanout=5,
        )
        assert result.train_losses[-1] < result.train_losses[0]


def full_graph(model, adjacencies, features, labels, train_idx, val_idx, config, **_):
    """:func:`train_node_classifier` behind the sampled trainers' signature."""
    aggregators = prepare_aggregators(adjacencies)
    return train_node_classifier(
        model, lambda x: model.forward(x, aggregators),
        features, labels, train_idx, val_idx, config,
    )


# ----------------------------------------------------------------------
# Config and input validation, profiler accounting
# ----------------------------------------------------------------------
class TestConfigAndFold:
    def test_validate_rejects_bad_values(self):
        nan, inf = float("nan"), float("inf")
        for kwargs in (
            dict(lr=nan), dict(lr=0.0), dict(lr=-1.0), dict(lr=inf),
            dict(weight_decay=-0.1), dict(weight_decay=nan),
            dict(pos_weight=nan), dict(pos_weight=0.0), dict(pos_weight=-2.0),
            dict(min_epochs=-5),
        ):
            (name,) = kwargs
            with pytest.raises(ValueError, match=name):
                TrainConfig(**kwargs).validate()
        for lr in (nan, inf):
            with pytest.raises(ValueError, match="learning rate"):
                nn.Adam([], lr=lr)
        TrainConfig(weight_decay=0.0, pos_weight=3.0, min_epochs=0).validate()

    @pytest.mark.parametrize(
        "removed",
        ["presample", "prefetch", "workers", "serialize_dispatch", "sync_batches"],
    )
    def test_removed_options_are_gone(self, removed):
        # Presampling and prefetching are the path; training runs in one
        # process with one step per batch.
        with pytest.raises(TypeError, match=removed):
            TrainConfig(**{removed: True})

    def test_base_validation_still_applies(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0).validate()

    def test_requires_batch_size(self):
        adjacencies, features, labels, train_idx, _ = make_problem(60)
        with pytest.raises(ValueError, match="batch size"):
            train_parallel(
                make_model(), adjacencies, features, labels, train_idx,
                config=TrainConfig(batch_size=None),
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
            config=TrainConfig(epochs=1, batch_size=16),
        )
        kwargs.update(bad)
        monkeypatch.setattr(
            PresampledGraph, "build", lambda *a: pytest.fail("presampled")
        )
        with pytest.raises(ValueError, match=match):
            train(make_model(), **kwargs)

    @pytest.mark.parametrize(
        "train",
        [full_graph, train_parallel, train_with_neighbor_sampling],
        ids=["train_node_classifier", "train_parallel", "train_with_neighbor_sampling"],
    )
    @pytest.mark.parametrize(
        "bad", ["feature-nan", "feature-inf", "train-label-2", "val-label-nan"]
    )
    def test_trainers_reject_bad_features_and_labels(self, train, bad, monkeypatch):
        # One NaN feature used to train into NaN parameters with
        # best_epoch = -1, and a label of 2.0 trained silently.
        adjacencies, features, labels, train_idx, val_idx = make_problem(60)
        features, labels = features.copy(), labels.copy()
        if bad == "feature-nan":
            features[7, 3], match = np.nan, "features"
        elif bad == "feature-inf":
            features[11, 0], match = -np.inf, "features"
        elif bad == "train-label-2":
            labels[train_idx[5]], match = 2.0, "train_idx"
        else:
            labels[val_idx[2]], match = np.nan, "val_idx"
        model = make_model()
        before = model.state_dict()
        monkeypatch.setattr(
            PresampledGraph, "build", lambda *a: pytest.fail("presampled")
        )
        monkeypatch.setattr(nn.Adam, "step", lambda self: pytest.fail("stepped"))
        with pytest.raises(ValueError, match=match):
            train(
                model, adjacencies, features, labels, train_idx, val_idx,
                config=TrainConfig(epochs=1, batch_size=16), hops=2, fanout=4,
            )
        assert_states_equal(model.state_dict(), before)


class TestPrefetchLifetime:
    def test_failed_epoch_leaves_no_thread_and_fork_still_works(self, monkeypatch):
        # A consumer that raised mid-epoch used to leave the prefetch
        # thread parked on its bounded queue forever, and the next fork in
        # the process was refused.
        adjacencies, features, labels, train_idx, _ = make_problem(120)
        config = TrainConfig(epochs=1, batch_size=16, min_epochs=1, patience=50)
        calls = []
        train_step = train_engine._train_step

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("boom on batch 2")
            return train_step(*args, **kwargs)

        monkeypatch.setattr(train_engine, "_train_step", failing)
        with pytest.raises(RuntimeError, match="boom on batch 2"):
            train_parallel(
                make_model(), adjacencies, features, labels, train_idx,
                config=config, hops=2, fanout=4,
            )
        monkeypatch.undo()
        assert threading.enumerate() == [threading.main_thread()]

        pids = fork_map(lambda _: os.getpid(), [0, 1])
        assert pids[0] == os.getpid() and pids[1] not in (None, os.getpid())

    def test_build_error_reaches_the_consumer(self, monkeypatch):
        adjacencies, features, labels, train_idx, _ = make_problem(60)

        def build(*args):
            raise KeyError("assembly failed")

        monkeypatch.setattr(train_engine, "_minibatch_of", build)
        with pytest.raises(KeyError, match="assembly failed"):
            train_parallel(
                make_model(), adjacencies, features, labels, train_idx,
                config=TrainConfig(epochs=1, batch_size=16), hops=2, fanout=4,
            )
        assert threading.enumerate() == [threading.main_thread()]


class TestProfilerAccounting:
    def test_stage_breakdown_covers_pipeline(self):
        adjacencies, features, labels, train_idx, val_idx = make_problem(120)
        profiler = TrainProfiler()
        train_parallel(
            make_model(), adjacencies, features, labels, train_idx, val_idx,
            config=TrainConfig(
                epochs=2, batch_size=48, min_epochs=1, patience=50
            ),
            hops=2, fanout=4, profiler=profiler,
        )
        totals = profiler.stage_totals()
        for stage in (
            "presample", "sampling", "induction", "gather", "prefetch",
            "forward", "backward", "step", "validation",
        ):
            assert stage in totals, stage
        expected_batches = -(-len(train_idx) // 48)
        assert len(profiler.epochs) == 2
        assert all(p.batches == expected_batches for p in profiler.epochs)
        assert all(p.sampled_nodes > 0 for p in profiler.epochs)

    def test_mirror_into_prefixes_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        adjacencies, features, labels, train_idx, _ = make_problem(100)
        profiler = TrainProfiler()
        train_parallel(
            make_model(), adjacencies, features, labels, train_idx,
            config=TrainConfig(
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
