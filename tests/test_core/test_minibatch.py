"""Neighbor-sampled mini-batch training tests."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    HAG,
    TrainConfig,
    induced_adjacencies,
    sample_khop_nodes,
    train_with_neighbor_sampling,
)


def chain_adjacency(n: int) -> sp.csr_matrix:
    rows = list(range(n - 1)) + list(range(1, n))
    cols = list(range(1, n)) + list(range(n - 1))
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))


class TestSampling:
    def test_seeds_come_first(self):
        nodes = sample_khop_nodes([chain_adjacency(10)], np.array([5, 2]), hops=1)
        assert nodes[0] == 5 and nodes[1] == 2

    def test_khop_closure_on_chain(self):
        nodes = sample_khop_nodes([chain_adjacency(10)], np.array([4]), hops=2)
        assert set(nodes) == {2, 3, 4, 5, 6}

    def test_fanout_caps_expansion(self):
        star = sp.csr_matrix(
            (np.arange(1.0, 10.0), (np.zeros(9, dtype=int), np.arange(1, 10))),
            shape=(10, 10),
        )
        nodes = sample_khop_nodes([star], np.array([0]), hops=1, fanout=3)
        # Top-3 neighbours by weight.
        assert set(nodes) == {0, 9, 8, 7}

    def test_duplicate_seeds_deduped(self):
        nodes = sample_khop_nodes([chain_adjacency(5)], np.array([1, 1]), hops=0)
        assert list(nodes) == [1]

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            sample_khop_nodes([chain_adjacency(5)], np.array([0]), hops=-1)

    @pytest.mark.parametrize("weighted", [False, True], ids=["top-k", "weighted"])
    @pytest.mark.parametrize("hops", [0, 2])
    @pytest.mark.parametrize("seeds", [[-1], [5], [0, 7], [2, -3]])
    def test_out_of_range_seeds_rejected(self, weighted, hops, seeds):
        # A seed outside [0, n) used to come back as a node at hops=0 and
        # fail deep in the expansion otherwise.
        rng = np.random.default_rng(0) if weighted else None
        with pytest.raises(ValueError, match="seeds"):
            sample_khop_nodes([chain_adjacency(5)], np.array(seeds), hops, 1, rng)

    def test_induced_adjacency_indexing(self):
        adjacency = chain_adjacency(6)
        nodes = np.array([2, 3, 4])
        sub = induced_adjacencies([adjacency], nodes)[0]
        assert sub.shape == (3, 3)
        assert sub[0, 1] == 1.0  # edge 2-3 preserved
        assert sub[0, 2] == 0.0  # 2-4 not adjacent


class TestTraining:
    def test_minibatch_hag_learns(self, tiny_experiment):
        data = tiny_experiment
        model = HAG(
            data.features.shape[1],
            n_types=len(data.edge_types),
            rng=np.random.default_rng(0),
            hidden=(16, 8),
            att_dim=8,
            cfo_att_dim=8,
            cfo_out_dim=4,
            mlp_hidden=(8,),
        )
        adjacencies = [data.adjacencies[t] for t in data.edge_types]
        result = train_with_neighbor_sampling(
            model,
            adjacencies,
            data.features,
            data.labels,
            data.train_idx,
            data.val_idx,
            TrainConfig(epochs=6, lr=5e-3, batch_size=64, min_epochs=3, patience=6),
            hops=2,
            fanout=8,
        )
        assert len(result.train_losses) >= 3
        assert result.train_losses[-1] < result.train_losses[0] * 1.5

    def test_requires_batch_size(self, tiny_experiment):
        data = tiny_experiment
        model = HAG(
            data.features.shape[1],
            n_types=len(data.edge_types),
            rng=np.random.default_rng(0),
            hidden=(8, 4),
        )
        adjacencies = [data.adjacencies[t] for t in data.edge_types]
        with pytest.raises(ValueError):
            train_with_neighbor_sampling(
                model,
                adjacencies,
                data.features,
                data.labels,
                data.train_idx,
                config=TrainConfig(batch_size=None),
            )
