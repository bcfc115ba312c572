"""Module / layer tests: parameter discovery, modes, forward shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import MLP, Linear, Module, ModuleList, Tensor
from repro.nn.layers import Dropout


class TestLinear:
    def test_forward_shape_and_affine(self, rng):
        layer = Linear(4, 3, rng)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_parameters_found(self, rng):
        layer = Linear(4, 3, rng)
        params = layer.parameters()
        assert len(params) == 2
        assert {p.shape for p in params} == {(4, 3), (3,)}


class TestModuleMechanics:
    def test_nested_parameter_discovery(self, rng):
        model = ModuleList([Linear(4, 8, rng), Linear(8, 2, rng)])
        assert len(model.parameters()) == 4

    def test_parameters_in_dict_and_list_attrs(self, rng):
        class Custom(Module):
            def __init__(self):
                super().__init__()
                self.items = [Linear(2, 2, rng)]
                self.table = {"a": Linear(2, 2, rng)}

        assert len(Custom().parameters()) == 4

    def test_train_eval_propagates(self, rng):
        model = ModuleList([Dropout(0.5, rng), Linear(2, 2, rng)])
        model.eval()
        assert not model[0].training
        model.train()
        assert model[0].training

    def test_zero_grad_clears(self, rng):
        layer = Linear(3, 1, rng)
        layer(Tensor(np.ones((2, 3)))).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self, rng):
        a = MLP(4, [8], 1, rng)
        b = MLP(4, [8], 1, np.random.default_rng(999))
        state = a.state_dict()
        b.load_state_dict(state)
        x = Tensor(np.ones((3, 4)))
        np.testing.assert_allclose(a(x).numpy(), b(x).numpy())

    def test_load_state_dict_shape_mismatch(self, rng):
        a = MLP(4, [8], 1, rng)
        b = MLP(4, [16], 1, rng)
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())

    def test_num_parameters(self, rng):
        layer = Linear(4, 3, rng)
        assert layer.num_parameters() == 4 * 3 + 3

    def test_modulelist_iteration(self, rng):
        ml = ModuleList([Linear(2, 2, rng)])
        ml.append(Linear(2, 2, rng))
        assert len(ml) == 2
        assert isinstance(ml[1], Linear)


class TestDropout:
    def test_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng)

    def test_eval_is_identity(self, rng):
        drop = Dropout(0.9, rng)
        drop.eval()
        x = Tensor(np.ones((4, 4)))
        np.testing.assert_allclose(drop(x).numpy(), x.numpy())

    def test_train_scales_survivors(self, rng):
        drop = Dropout(0.5, rng)
        out = drop(Tensor(np.ones((100, 100)))).numpy()
        surviving = out[out > 0]
        np.testing.assert_allclose(surviving, 2.0)
        # Roughly half survive.
        assert 0.35 < (out > 0).mean() < 0.65


class TestMLP:
    def test_output_shape(self, rng):
        model = MLP(6, [16, 8], 2, rng)
        assert model(Tensor(np.zeros((5, 6)))).shape == (5, 2)

    def test_learns_xor_like_separation(self, rng):
        # A linearly-inseparable problem distinguishes MLP from Linear.
        x = rng.normal(size=(400, 2))
        y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(float)
        from repro.nn import Adam, bce_with_logits

        model = MLP(2, [16, 16], 1, rng)
        optimizer = Adam(model.parameters(), lr=0.02)
        for _ in range(300):
            optimizer.zero_grad()
            loss = bce_with_logits(model(Tensor(x)).flatten(), y)
            loss.backward()
            optimizer.step()
        predictions = model(Tensor(x)).flatten().numpy() > 0
        assert (predictions == y.astype(bool)).mean() > 0.9
