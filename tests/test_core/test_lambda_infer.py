"""Batch-layer state: validation, serialization, and replay parity.

Pins the lambda tentpole's core guarantees (PR 8):

* :class:`~repro.core.lambda_infer.HAGState` validates its aligned
  per-node columns, answers exact-provenance lookups, and prices
  staleness over the cached subgraph node sets;
* ``to_arrays``/``from_arrays`` round-trip losslessly, which is what the
  storage checkpoint relies on — and a payload that does not describe one consistent state
  (:data:`CORRUPTIONS`) is a ``ValueError`` naming the array, never a
  state that serves;
* :func:`~repro.core.lambda_infer.materialize` replays the exact scalar
  serving path — cached scores are bit-for-bit what per-target sampling
  plus :meth:`~repro.core.hag.HAG.predict_subgraph` computes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HAG, HAGState, lambda_infer, materialize
from repro.datagen import BehaviorType

from tests.oracles.sampling import computation_subgraph

TYPES = (BehaviorType.DEVICE_ID, BehaviorType.IPV4, BehaviorType.WIFI_MAC)


def _drop(name):
    return lambda arrays: arrays.pop(name)


def _set(name, value):
    return lambda arrays: arrays.__setitem__(name, value(arrays[name]))


#: ``name -> (mutate(arrays), array the error must name)``: the ways a
#: serialized state stops describing one consistent state.  Shared with the
#: checkpoint and worker-attach boundary tests (``test_system/test_lambda``).
CORRUPTIONS = {
    "truncated_subgraph_nodes": (
        _set("subgraph_nodes", lambda a: a[:-2]), "subgraph_nodes",
    ),
    "non_monotone_indptr": (
        _set("subgraph_indptr", lambda a: np.concatenate([a[:1], a[2:0:-1], a[3:]])),
        "subgraph_indptr",
    ),
    # An older checkpoint format's layer array (one row per node) is
    # refused, not half-read.
    "layer_array": (
        lambda arrays: arrays.__setitem__(
            "state:fused", np.zeros((len(arrays["node_ids"]), 2))
        ),
        "state:fused",
    ),
    "nan_score": (
        _set("scores", lambda a: np.where(np.arange(len(a)) == 0, np.nan, a)),
        "scores",
    ),
    "score_out_of_range": (_set("scores", lambda a: a + 1.0), "scores"),
    "missing_array": (_drop("txn_ids"), "txn_ids"),
    # A checkpoint without the ``allowed`` digest was scored under an
    # unknown policy.
    "missing_allowed": (_drop("allowed"), "allowed"),
}


def small_state() -> HAGState:
    return HAGState(
        bn_version=7,
        hops=2,
        fanout=10,
        node_ids=np.array([3, 5, 9], dtype=np.int64),
        scores=np.array([0.1, 0.6, 0.9]),
        txn_ids=np.array([30, 50, 90], dtype=np.int64),
        nows=np.array([1.0, 2.0, 3.0]),
        subgraph_indptr=np.array([0, 2, 3, 6], dtype=np.int64),
        subgraph_nodes=np.array([3, 4, 5, 9, 4, 11], dtype=np.int64),
    )


class TestHAGState:
    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError):
            HAGState(
                bn_version=1,
                hops=2,
                fanout=10,
                node_ids=np.array([1, 2], dtype=np.int64),
                scores=np.array([0.5]),
                txn_ids=np.array([10, 20], dtype=np.int64),
                nows=np.array([1.0, 2.0]),
                subgraph_indptr=np.array([0, 1, 2], dtype=np.int64),
                subgraph_nodes=np.array([1, 2], dtype=np.int64),
            )

    def test_bad_indptr_rejected(self):
        with pytest.raises(ValueError):
            HAGState(
                bn_version=1,
                hops=2,
                fanout=10,
                node_ids=np.array([1, 2], dtype=np.int64),
                scores=np.array([0.5, 0.6]),
                txn_ids=np.array([10, 20], dtype=np.int64),
                nows=np.array([1.0, 2.0]),
                subgraph_indptr=np.array([0, 2], dtype=np.int64),
                subgraph_nodes=np.array([1, 2], dtype=np.int64),
            )

    def test_unsorted_node_ids_rejected(self):
        with pytest.raises(ValueError):
            HAGState(
                bn_version=1,
                hops=2,
                fanout=10,
                node_ids=np.array([5, 3], dtype=np.int64),
                scores=np.array([0.5, 0.6]),
                txn_ids=np.array([10, 20], dtype=np.int64),
                nows=np.array([1.0, 2.0]),
                subgraph_indptr=np.array([0, 1, 2], dtype=np.int64),
                subgraph_nodes=np.array([5, 3], dtype=np.int64),
            )

    def test_lookup_requires_exact_provenance(self):
        state = small_state()
        assert state.lookup(5, 50, 2.0) == (pytest.approx(0.6), 1)
        # Any provenance mismatch must fall through to the fresh path.
        assert state.lookup(5, 51, 2.0) is None  # newer transaction
        assert state.lookup(5, 50, 2.5) is None  # different as-of time
        assert state.lookup(6, 50, 2.0) is None  # uncovered uid

    def test_subgraph_of_slices_csr(self):
        state = small_state()
        assert state.subgraph_of(0).tolist() == [3, 4]
        assert state.subgraph_of(1).tolist() == [5]
        assert state.subgraph_of(2).tolist() == [9, 4, 11]

    def test_staleness_counts_touches_in_cached_subgraph(self):
        state = small_state()
        touched = {4: 2, 11: 1, 999: 5}
        assert state.staleness_of(0, touched) == 2  # node 4 only
        assert state.staleness_of(1, touched) == 0  # subgraph {5} untouched
        assert state.staleness_of(2, touched) == 3  # nodes 4 and 11
        assert state.staleness_of(2, {}) == 0

    def test_round_trip_is_lossless(self):
        state = small_state()
        state.allowed = lambda_infer.allowed_digest({9, 3, 5, 4, 11})
        back = HAGState.from_arrays(state.to_arrays())
        assert back.bn_version == state.bn_version
        assert back.hops == state.hops
        assert back.fanout == state.fanout
        assert back.allowed == state.allowed
        np.testing.assert_array_equal(back.node_ids, state.node_ids)
        np.testing.assert_array_equal(back.scores, state.scores)
        np.testing.assert_array_equal(back.txn_ids, state.txn_ids)
        np.testing.assert_array_equal(back.nows, state.nows)
        np.testing.assert_array_equal(back.subgraph_indptr, state.subgraph_indptr)
        np.testing.assert_array_equal(back.subgraph_nodes, state.subgraph_nodes)

    def test_round_trip_none_fanout(self):
        state = small_state()
        state.fanout = None
        back = HAGState.from_arrays(state.to_arrays())
        assert back.fanout is None and back.allowed is None

    def test_malformed_meta_rejected(self):
        arrays = small_state().to_arrays()
        arrays["meta"] = arrays["meta"][:2]
        with pytest.raises(ValueError):
            HAGState.from_arrays(arrays)

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_payload_rejected(self, corruption):
        """A truncated/corrupt payload is a ValueError naming the array."""
        mutate, named = CORRUPTIONS[corruption]
        arrays = small_state().to_arrays()
        HAGState.from_arrays(arrays)  # sane before the corruption
        mutate(arrays)
        with pytest.raises(ValueError, match=named):
            HAGState.from_arrays(arrays)


class TestMaterialize:
    @pytest.fixture(scope="class")
    def model_and_features(self, tiny_bn):
        # Mirror the serving path: the model's towers cover every edge type
        # present in the BN, and sampling runs unrestricted over them.
        types = tuple(sorted(tiny_bn.edge_types(), key=lambda t: t.value))
        rng = np.random.default_rng(3)
        n = max(tiny_bn.nodes()) + 1
        features = rng.normal(size=(n, 6))
        model = HAG(
            6, len(types), rng, hidden=(8, 4), cfo_out_dim=2, mlp_hidden=(4,)
        )
        return model, features, types

    def test_scores_match_scalar_serving_path(self, tiny_bn, model_and_features):
        model, features, types = model_and_features
        targets = sorted(tiny_bn.nodes())[:12]
        txn_ids = [10 * uid for uid in targets]
        nows = [float(uid) for uid in targets]

        state, stats, mstats = materialize(
            model,
            tiny_bn,
            targets,
            txn_ids,
            nows,
            lambda k, nodes: features[np.asarray(nodes, dtype=np.int64)],
            hops=2,
            fanout=10,
            edge_type_order=types,
        )
        assert state.num_nodes == len(targets)
        assert stats.requests == len(targets)
        assert state.bn_version == int(tiny_bn.version)
        assert mstats.mode == "full" and mstats.rows_computed == len(targets)

        for uid in targets:
            position = state.position_of(uid)
            subgraph = computation_subgraph(tiny_bn, uid, hops=2, fanout=10)
            fresh = model.predict_subgraph(
                subgraph,
                features[np.asarray(subgraph.nodes, dtype=np.int64)],
                edge_type_order=types,
            )
            assert state.scores[position] == fresh  # bit-for-bit, no approx
            np.testing.assert_array_equal(
                state.subgraph_of(position), np.asarray(subgraph.nodes)
            )

    def test_chunking_does_not_change_bits(self, tiny_bn, model_and_features, monkeypatch):
        model, features, types = model_and_features
        targets = sorted(tiny_bn.nodes())[:9]
        txn_ids = [1] * len(targets)
        nows = [0.0] * len(targets)
        fn = lambda k, nodes: features[np.asarray(nodes, dtype=np.int64)]
        monkeypatch.setattr(lambda_infer, "SCORE_CHUNK", 1)
        one, _, _ = materialize(
            model, tiny_bn, targets, txn_ids, nows, fn,
            hops=2, fanout=10, edge_type_order=types,
        )
        monkeypatch.setattr(lambda_infer, "SCORE_CHUNK", 256)
        big, _, _ = materialize(
            model, tiny_bn, targets, txn_ids, nows, fn,
            hops=2, fanout=10, edge_type_order=types,
        )
        np.testing.assert_array_equal(one.scores, big.scores)

    def test_duplicate_targets_rejected(self, tiny_bn, model_and_features):
        model, features, types = model_and_features
        uid = sorted(tiny_bn.nodes())[0]
        with pytest.raises(ValueError):
            materialize(
                model, tiny_bn, [uid, uid], [1, 2], [0.0, 0.0],
                lambda k, nodes: features[np.asarray(nodes, dtype=np.int64)],
                hops=2, fanout=10, edge_type_order=types,
            )

    def test_misaligned_inputs_rejected(self, tiny_bn, model_and_features):
        model, features, types = model_and_features
        uid = sorted(tiny_bn.nodes())[0]
        with pytest.raises(ValueError):
            materialize(
                model, tiny_bn, [uid], [1, 2], [0.0],
                lambda k, nodes: features[np.asarray(nodes, dtype=np.int64)],
                hops=2, fanout=10, edge_type_order=types,
            )
