"""Sparse matmul op tests."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import Tensor, spmm
from repro.nn.sparse import reset_transpose_conversion_count, transpose_conversion_count


class TestSpmm:
    def test_forward_matches_dense(self, rng):
        matrix = sp.random(6, 5, density=0.4, random_state=0, format="csr")
        dense = rng.normal(size=(5, 3))
        out = spmm(matrix, Tensor(dense))
        np.testing.assert_allclose(out.numpy(), matrix.toarray() @ dense)

    def test_gradient_is_transpose_product(self, rng):
        matrix = sp.random(6, 5, density=0.4, random_state=1, format="csr")
        dense = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        spmm(matrix, dense).sum().backward()
        expected = matrix.T.toarray() @ np.ones((6, 2))
        np.testing.assert_allclose(dense.grad, expected)

    def test_rejects_dense_matrix(self):
        with pytest.raises(TypeError):
            spmm(np.ones((2, 2)), Tensor(np.ones((2, 2))))

    def test_composes_with_autograd(self, rng):
        matrix = sp.random(4, 4, density=0.5, random_state=2, format="csr")
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        loss = spmm(matrix, x.tanh()).relu().sum()
        loss.backward()
        assert x.grad is not None
        assert np.isfinite(x.grad).all()

    def test_empty_matrix_gives_zero(self):
        matrix = sp.csr_matrix((3, 3))
        out = spmm(matrix, Tensor(np.ones((3, 2))))
        np.testing.assert_allclose(out.numpy(), 0.0)


class TestPreparedAggregator:
    def make(self, seed: int = 0) -> "sp.csr_matrix":
        return sp.random(6, 6, density=0.4, random_state=seed, format="csr")

    def test_matches_raw_csr_forward_and_backward(self, rng):
        from repro.nn import PreparedAggregator

        matrix = self.make()
        dense = rng.normal(size=(6, 3))
        x_raw = Tensor(dense, requires_grad=True)
        x_prep = Tensor(dense, requires_grad=True)
        out_raw = spmm(matrix, x_raw)
        out_prep = spmm(PreparedAggregator(matrix), x_prep)
        np.testing.assert_allclose(out_prep.numpy(), out_raw.numpy())
        out_raw.sum().backward()
        out_prep.sum().backward()
        np.testing.assert_allclose(x_prep.grad, x_raw.grad)

    def test_rejects_dense_input(self):
        from repro.nn import PreparedAggregator

        with pytest.raises(TypeError):
            PreparedAggregator(np.ones((3, 3)))

    def test_as_csr_unwraps(self):
        from repro.nn import PreparedAggregator, as_csr

        matrix = self.make()
        prepared = PreparedAggregator(matrix)
        assert as_csr(prepared) is prepared.matrix
        assert (as_csr(matrix) != matrix).nnz == 0


class TestTransposeAccounting:
    def make(self, seed: int = 0) -> "sp.csr_matrix":
        return sp.random(8, 8, density=0.3, random_state=seed, format="csr")

    def test_forward_only_never_converts(self, rng):
        from repro import nn
        from repro.nn import PreparedAggregator

        aggregator = PreparedAggregator(self.make())
        reset_transpose_conversion_count()
        with nn.no_grad():
            for _ in range(4):
                spmm(aggregator, Tensor(rng.normal(size=(8, 2))))
        assert transpose_conversion_count() == 0
        reset_transpose_conversion_count()

    def test_prepared_converts_at_most_once_across_steps(self, rng):
        from repro.nn import PreparedAggregator

        aggregators = [PreparedAggregator(self.make(s)) for s in (0, 1, 2)]
        reset_transpose_conversion_count()
        for _ in range(5):  # five "training steps" reusing the aggregators
            x = Tensor(rng.normal(size=(8, 2)), requires_grad=True)
            loss = sum(
                (spmm(a, x).sum() for a in aggregators), start=Tensor(np.zeros(()))
            )
            loss.backward()
        assert transpose_conversion_count() <= len(aggregators)
        reset_transpose_conversion_count()

    def test_raw_csr_converts_per_backward_call(self, rng):
        matrix = self.make()
        reset_transpose_conversion_count()
        for _ in range(3):
            x = Tensor(rng.normal(size=(8, 2)), requires_grad=True)
            spmm(matrix, x).sum().backward()
        assert transpose_conversion_count() == 3
        reset_transpose_conversion_count()
