"""Fused kernels (`addmm`, `spmm_affine`) pinned bit-exact vs unfused chains.

The parallel training engine relies on the fused ops being *bit-identical*
to the node chains they replace: the engine's gradient-parity guarantees
(same bits regardless of worker count) assume every process runs the same
op sequence.  These tests pin forward and backward bits against the
unfused graphs, with and without an active ``row_blocks`` context.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import nn
from repro.nn import Linear, PreparedAggregator, Tensor, addmm, spmm, spmm_affine
from repro.nn.sparse import reset_transpose_conversion_count, transpose_conversion_count


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def _random_csr(rng, rows, cols, density=0.3):
    mask = rng.random((rows, cols)) < density
    data = np.where(mask, rng.normal(size=(rows, cols)), 0.0)
    return sp.csr_matrix(data)


class TestAddmm:
    def test_forward_and_backward_bits_match_unfused(self, rng):
        x_data = rng.normal(size=(7, 5))
        w_data = rng.normal(size=(5, 3))
        b_data = rng.normal(size=(3,))
        g = rng.normal(size=(7, 3))

        x1, w1, b1 = (Tensor(d.copy(), requires_grad=True) for d in (x_data, w_data, b_data))
        fused = addmm(x1, w1, b1)
        fused.backward(g.copy())

        x2, w2, b2 = (Tensor(d.copy(), requires_grad=True) for d in (x_data, w_data, b_data))
        unfused = x2 @ w2 + b2
        unfused.backward(g.copy())

        assert np.array_equal(fused.data, unfused.data)
        assert np.array_equal(x1.grad, x2.grad)
        assert np.array_equal(w1.grad, w2.grad)
        assert np.array_equal(b1.grad, b2.grad)

    def test_batched_input_bits_match_unfused(self, rng):
        x_data = rng.normal(size=(2, 4, 5))
        w_data = rng.normal(size=(5, 3))
        b_data = rng.normal(size=(3,))
        g = rng.normal(size=(2, 4, 3))

        x1, w1, b1 = (Tensor(d.copy(), requires_grad=True) for d in (x_data, w_data, b_data))
        fused = addmm(x1, w1, b1)
        fused.backward(g.copy())

        x2, w2, b2 = (Tensor(d.copy(), requires_grad=True) for d in (x_data, w_data, b_data))
        unfused = x2 @ w2 + b2
        unfused.backward(g.copy())

        assert np.array_equal(fused.data, unfused.data)
        assert np.array_equal(x1.grad, x2.grad)
        assert np.array_equal(w1.grad, w2.grad)
        assert np.array_equal(b1.grad, b2.grad)

    def test_bits_match_under_row_blocks(self, rng):
        sizes = [3, 1, 6]
        boundaries = np.concatenate(([0], np.cumsum(sizes)))
        x_data = rng.normal(size=(int(boundaries[-1]), 5))
        w_data = rng.normal(size=(5, 2))
        b_data = rng.normal(size=(2,))
        g = rng.normal(size=(int(boundaries[-1]), 2))

        with nn.row_blocks(boundaries):
            x1, w1, b1 = (
                Tensor(d.copy(), requires_grad=True) for d in (x_data, w_data, b_data)
            )
            fused = addmm(x1, w1, b1)
            fused.backward(g.copy())

            x2, w2, b2 = (
                Tensor(d.copy(), requires_grad=True) for d in (x_data, w_data, b_data)
            )
            unfused = x2 @ w2 + b2
            unfused.backward(g.copy())

        assert np.array_equal(fused.data, unfused.data)
        assert np.array_equal(x1.grad, x2.grad)
        assert np.array_equal(w1.grad, w2.grad)
        assert np.array_equal(b1.grad, b2.grad)

    def test_rejects_one_dimensional_input(self, rng):
        with pytest.raises(ValueError):
            addmm(
                Tensor(rng.normal(size=(5,))),
                Tensor(rng.normal(size=(5, 3))),
                Tensor(rng.normal(size=(3,))),
            )


class TestLinearUsesAddmm:
    def test_linear_forward_bits_unchanged(self, rng):
        layer = Linear(5, 3, rng=np.random.default_rng(1))
        x_data = rng.normal(size=(6, 5))
        g = rng.normal(size=(6, 3))

        x1 = Tensor(x_data.copy(), requires_grad=True)
        out = layer(x1)
        out.backward(g.copy())
        w_grad, b_grad, x_grad = layer.weight.grad, layer.bias.grad, x1.grad
        layer.weight.grad = None
        layer.bias.grad = None

        x2 = Tensor(x_data.copy(), requires_grad=True)
        unfused = x2 @ layer.weight + layer.bias
        unfused.backward(g.copy())

        assert np.array_equal(out.data, unfused.data)
        assert np.array_equal(x_grad, x2.grad)
        assert np.array_equal(w_grad, layer.weight.grad)
        assert np.array_equal(b_grad, layer.bias.grad)


class TestSpmmAffine:
    @pytest.mark.parametrize("use_bias", [True, False])
    @pytest.mark.parametrize("prepared", [True, False])
    def test_bits_match_unfused_chain(self, rng, use_bias, prepared):
        csr = _random_csr(rng, 8, 8)
        h_data = rng.normal(size=(8, 5))
        w_data = rng.normal(size=(5, 3))
        b_data = rng.normal(size=(3,)) if use_bias else None
        g = rng.normal(size=(8, 3))
        matrix = PreparedAggregator(csr) if prepared else csr
        matrix2 = PreparedAggregator(csr) if prepared else csr

        h1 = Tensor(h_data.copy(), requires_grad=True)
        w1 = Tensor(w_data.copy(), requires_grad=True)
        b1 = Tensor(b_data.copy(), requires_grad=True) if use_bias else None
        fused = spmm_affine(matrix, h1, w1, b1)
        fused.backward(g.copy())

        h2 = Tensor(h_data.copy(), requires_grad=True)
        w2 = Tensor(w_data.copy(), requires_grad=True)
        unfused = spmm(matrix2, h2) @ w2
        if use_bias:
            b2 = Tensor(b_data.copy(), requires_grad=True)
            unfused = unfused + b2
        unfused.backward(g.copy())

        assert np.array_equal(fused.data, unfused.data)
        assert np.array_equal(h1.grad, h2.grad)
        assert np.array_equal(w1.grad, w2.grad)
        if use_bias:
            assert np.array_equal(b1.grad, b2.grad)

    def test_prepared_aggregator_transpose_memoized(self, rng):
        csr = _random_csr(rng, 6, 6)
        agg = PreparedAggregator(csr)
        h = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        reset_transpose_conversion_count()
        for _ in range(3):
            spmm_affine(agg, h, w).sum().backward()
        assert transpose_conversion_count() == 1

    def test_rejects_dense_matrix(self, rng):
        with pytest.raises(TypeError):
            spmm_affine(
                rng.normal(size=(4, 4)),
                Tensor(rng.normal(size=(4, 3))),
                Tensor(rng.normal(size=(3, 2))),
            )

    def test_rejects_non_2d_operands(self, rng):
        csr = _random_csr(rng, 4, 4)
        with pytest.raises(ValueError):
            spmm_affine(
                csr,
                Tensor(rng.normal(size=(4,))),
                Tensor(rng.normal(size=(4, 2))),
            )
