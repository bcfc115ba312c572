"""Influence score/distribution tests (Definition 1)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import influence_distribution, influence_scores
from repro.nn import Linear, Tensor, spmm


class TestInfluence:
    def test_linear_model_influence_matches_jacobian(self, rng):
        """For h = A @ X @ W the influence is exactly |A_ij| * sum|W|."""
        n, d = 5, 3
        a = sp.csr_matrix(np.random.default_rng(0).random((n, n)))
        layer = Linear(d, 2, rng, bias=False)
        forward = lambda x: spmm(a, layer(x))
        features = np.random.default_rng(1).normal(size=(n, d))
        scores = influence_scores(forward, features, node=0)
        w_abs = np.abs(layer.weight.numpy()).sum()
        expected = np.abs(a.toarray()[0]) * w_abs
        np.testing.assert_allclose(scores, expected, rtol=1e-9)

    def test_distribution_sums_to_one(self, rng):
        n, d = 6, 4
        a = sp.csr_matrix(np.random.default_rng(2).random((n, n)))
        layer = Linear(d, 3, rng)
        forward = lambda x: spmm(a, layer(x)).tanh()
        dist = influence_distribution(forward, np.random.default_rng(3).normal(size=(n, d)), node=2)
        np.testing.assert_allclose(dist.sum(), 1.0)
        assert (dist >= 0).all()

    def test_disconnected_node_self_influence(self, rng):
        layer = Linear(3, 2, rng)
        forward = lambda x: layer(x)  # no mixing between rows
        dist = influence_distribution(forward, np.random.default_rng(4).normal(size=(4, 3)), node=1)
        np.testing.assert_allclose(dist[1], 1.0)
        np.testing.assert_allclose(np.delete(dist, 1), 0.0)

    def test_out_of_range_node_rejected(self, rng):
        layer = Linear(3, 2, rng)
        with pytest.raises(ValueError):
            influence_scores(lambda x: layer(x), np.zeros((3, 3)), node=5)

    def test_zero_model_distribution_degenerates_to_self(self):
        forward = lambda x: x * 0.0
        dist = influence_distribution(forward, np.ones((3, 2)), node=0)
        np.testing.assert_allclose(dist, [1.0, 0.0, 0.0])
