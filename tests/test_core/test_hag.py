"""HAG model tests: shapes, ablations, inductive prediction."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import HAG, prepare_aggregators
from repro.datagen import BehaviorType
from repro.network import BehaviorNetwork
from repro.nn import Tensor, no_grad

from tests.oracles.sampling import computation_subgraph


def random_adjacencies(n: int, n_types: int, rng) -> list[sp.csr_matrix]:
    matrices = []
    for t in range(n_types):
        dense = rng.random((n, n)) < 0.2
        dense = np.triu(dense, 1)
        dense = (dense + dense.T).astype(float)
        matrices.append(sp.csr_matrix(dense))
    return matrices


class TestHAGForward:
    def test_logit_shape(self, rng):
        adjs = random_adjacencies(7, 3, np.random.default_rng(0))
        model = HAG(5, 3, rng, hidden=(8, 4), att_dim=4, cfo_att_dim=4, cfo_out_dim=2, mlp_hidden=(4,))
        aggs = prepare_aggregators(adjs)
        logits = model(Tensor(np.random.default_rng(1).normal(size=(7, 5))), aggs)
        assert logits.shape == (7,)

    def test_wrong_aggregator_count_rejected(self, rng):
        model = HAG(5, 3, rng, hidden=(8, 4))
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((4, 5))), prepare_aggregators(random_adjacencies(4, 2, np.random.default_rng(0))))

    def test_needs_at_least_one_layer(self, rng):
        with pytest.raises(ValueError):
            HAG(5, 3, rng, hidden=())

    def test_predict_proba_in_unit_interval(self, rng):
        adjs = random_adjacencies(6, 2, np.random.default_rng(2))
        model = HAG(4, 2, rng, hidden=(8, 4), cfo_out_dim=2, mlp_hidden=(4,))
        probs = model.predict_proba(
            np.random.default_rng(3).normal(size=(6, 4)), prepare_aggregators(adjs)
        )
        assert probs.shape == (6,)
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_embeddings_dim_with_cfo(self, rng):
        adjs = random_adjacencies(6, 2, np.random.default_rng(4))
        model = HAG(4, 2, rng, hidden=(8, 4), cfo_out_dim=3, mlp_hidden=(4,))
        emb = model.embeddings(Tensor(np.zeros((6, 4))), prepare_aggregators(adjs))
        assert emb.shape == (6, 3 * 2)


class TestAblations:
    def test_cfo_disabled_uses_single_tower(self, rng):
        model = HAG(4, 5, rng, hidden=(8, 4), use_cfo=False)
        assert model.n_types == 1
        assert model.cfo is None
        adj = random_adjacencies(6, 1, np.random.default_rng(0))
        emb = model.embeddings(Tensor(np.zeros((6, 4))), prepare_aggregators(adj))
        assert emb.shape == (6, 4)

    def test_sao_disabled_has_no_attention_params(self, rng):
        with_attention = HAG(4, 2, rng, hidden=(8, 4))
        without = HAG(4, 2, np.random.default_rng(0), hidden=(8, 4), use_sao=False)
        assert without.num_parameters() < with_attention.num_parameters()


class TestInductivePrediction:
    def build_bn(self) -> BehaviorNetwork:
        bn = BehaviorNetwork()
        dev = BehaviorType.DEVICE_ID
        ip = BehaviorType.IPV4
        bn.add_weight(0, 1, dev, 1.0, 0.0)
        bn.add_weight(1, 2, ip, 0.5, 0.0)
        return bn

    def test_predict_subgraph_returns_probability(self, rng):
        bn = self.build_bn()
        types = [BehaviorType.DEVICE_ID, BehaviorType.IPV4]
        model = HAG(3, 2, rng, hidden=(6, 4), cfo_out_dim=2, mlp_hidden=(4,))
        subgraph = computation_subgraph(bn, 0, hops=2, edge_types=types)
        features = np.random.default_rng(5).normal(size=(subgraph.num_nodes, 3))
        probability = model.predict_subgraph(subgraph, features, edge_type_order=types)
        assert 0.0 <= probability <= 1.0

    def test_missing_type_filled_with_empty_matrix(self, rng):
        bn = BehaviorNetwork()
        bn.add_weight(0, 1, BehaviorType.DEVICE_ID, 1.0, 0.0)
        types = [BehaviorType.DEVICE_ID, BehaviorType.IPV4]
        model = HAG(3, 2, rng, hidden=(6, 4), cfo_out_dim=2, mlp_hidden=(4,))
        subgraph = computation_subgraph(bn, 0, hops=1, edge_types=[BehaviorType.DEVICE_ID])
        features = np.zeros((subgraph.num_nodes, 3))
        probability = model.predict_subgraph(subgraph, features, edge_type_order=types)
        assert np.isfinite(probability)

    def test_feature_row_mismatch_rejected(self, rng):
        bn = self.build_bn()
        model = HAG(3, 2, rng, hidden=(6, 4))
        subgraph = computation_subgraph(bn, 0, hops=1)
        with pytest.raises(ValueError):
            model.predict_subgraph(subgraph, np.zeros((99, 3)))

    def test_isolated_target_predictable(self, rng):
        bn = BehaviorNetwork()
        bn.add_node(7)
        types = [BehaviorType.DEVICE_ID]
        model = HAG(3, 1, rng, hidden=(6, 4), cfo_out_dim=2, mlp_hidden=(4,))
        subgraph = computation_subgraph(bn, 7, hops=2, edge_types=types)
        probability = model.predict_subgraph(
            subgraph, np.zeros((1, 3)), edge_type_order=types
        )
        assert 0.0 <= probability <= 1.0


class TestPrepareAggregatorsBoundary:
    """The stacked normaliser's preconditions are errors, not footnotes."""

    def test_rejects_non_square_naming_position(self):
        square, wide = sp.identity(3, format="csr"), sp.csr_matrix((3, 4))
        with pytest.raises(ValueError, match=r"adjacency 1 has shape \(3, 4\), not \(3, 3\)"):
            prepare_aggregators([square, wide])

    def test_rejects_differing_shapes_naming_position(self):
        adjs = random_adjacencies(4, 2, np.random.default_rng(0))
        adjs.append(sp.identity(5, format="csr"))
        with pytest.raises(ValueError, match=r"adjacency 2 has shape \(5, 5\), not \(4, 4\)"):
            prepare_aggregators(adjs)

    def test_rejects_duplicate_columns_naming_position(self):
        good = random_adjacencies(3, 1, np.random.default_rng(0))[0]
        repeated = sp.csr_matrix(
            (np.ones(2), np.array([1, 1]), np.array([0, 2, 2, 2])), shape=(3, 3)
        )
        with pytest.raises(ValueError, match="matrix 1: a column repeats"):
            prepare_aggregators([good, repeated])

    def test_rejects_non_finite_data_naming_position(self):
        adjs = random_adjacencies(5, 3, np.random.default_rng(1))
        adjs[2].data[0] = np.nan
        with pytest.raises(ValueError, match="matrix 2: non-finite data"):
            prepare_aggregators(adjs)

    def test_dense_input_is_still_a_type_error(self):
        with pytest.raises(TypeError):
            prepare_aggregators([np.eye(3)])


class TestPredictionLeavesModeAlone:
    """``predict_proba`` runs under ``no_grad``, where dropout is already the
    identity: it neither needs nor touches the train/eval flag."""

    def build(self):
        rng = np.random.default_rng(0)
        model = HAG(4, 2, rng, hidden=(8, 4), cfo_out_dim=2, mlp_hidden=(6,), dropout=0.5)
        x = rng.normal(size=(6, 4))
        return model, x, prepare_aggregators(random_adjacencies(6, 2, rng))

    def test_same_prediction_in_either_mode(self):
        model, x, aggs = self.build()
        training = model.predict_proba(x, aggs)
        model.eval()
        assert np.array_equal(model.predict_proba(x, aggs), training)

    @pytest.mark.parametrize("training", [True, False])
    def test_mode_is_what_the_caller_left(self, training):
        model, x, aggs = self.build()
        model.train() if training else model.eval()
        model.predict_proba(x, aggs)
        assert model.training is training and model.head.training is training


class TestBuiltUnderNoGrad:
    """``no_grad`` stops recording ops, not parameters: a HAG built inside
    it (as a model manager materializes one) loads a trained state."""

    def test_has_every_parameter_and_loads_a_state(self):
        kwargs = dict(hidden=(32, 16), att_dim=32, cfo_att_dim=32, cfo_out_dim=8, mlp_hidden=(16,))
        trained = HAG(6, 2, np.random.default_rng(0), **kwargs)
        with no_grad():
            built = HAG(6, 2, np.random.default_rng(1), **kwargs)
        assert len(built.parameters()) == len(trained.parameters()) == 38
        built.load_state_dict(trained.state_dict())
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 6))
        aggs = prepare_aggregators(random_adjacencies(5, 2, rng))
        assert np.array_equal(built.predict_proba(x, aggs), trained.predict_proba(x, aggs))
