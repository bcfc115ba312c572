"""Optimizer tests: convergence on convex problems, option handling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import SGD, Adam, Tensor
from tests.oracles.optim import adam_step_reference


def quadratic_loss(w: Tensor) -> Tensor:
    target = Tensor(np.array([3.0, -2.0]))
    diff = w - target
    return (diff * diff).sum()


class TestSGD:
    def test_converges_on_quadratic(self):
        w = Tensor(np.zeros(2), requires_grad=True)
        optimizer = SGD([w], lr=0.1)
        for _ in range(200):
            optimizer.zero_grad()
            quadratic_loss(w).backward()
            optimizer.step()
        np.testing.assert_allclose(w.numpy(), [3.0, -2.0], atol=1e-3)

    def test_momentum_accelerates(self):
        losses = {}
        for momentum in (0.0, 0.9):
            w = Tensor(np.zeros(2), requires_grad=True)
            optimizer = SGD([w], lr=0.01, momentum=momentum)
            for _ in range(50):
                optimizer.zero_grad()
                loss = quadratic_loss(w)
                loss.backward()
                optimizer.step()
            losses[momentum] = quadratic_loss(w).item()
        assert losses[0.9] < losses[0.0]

    def test_weight_decay_shrinks(self):
        w = Tensor(np.array([10.0]), requires_grad=True)
        optimizer = SGD([w], lr=0.1, weight_decay=1.0)
        for _ in range(100):
            optimizer.zero_grad()
            (w * 0.0).sum().backward()  # zero data gradient
            optimizer.step()
        assert abs(w.numpy()[0]) < 1.0

    def test_invalid_lr(self):
        for lr in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SGD([Tensor([1.0], requires_grad=True)], lr=lr)


class TestAdam:
    def test_converges_on_quadratic(self):
        w = Tensor(np.zeros(2), requires_grad=True)
        optimizer = Adam([w], lr=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            quadratic_loss(w).backward()
            optimizer.step()
        np.testing.assert_allclose(w.numpy(), [3.0, -2.0], atol=1e-3)

    def test_skips_params_without_grad(self):
        w = Tensor(np.ones(2), requires_grad=True)
        optimizer = Adam([w], lr=0.1)
        optimizer.step()  # no backward yet: must not move or crash
        np.testing.assert_allclose(w.numpy(), [1.0, 1.0])

    def test_zero_grad_resets(self):
        w = Tensor(np.zeros(2), requires_grad=True)
        optimizer = Adam([w], lr=0.1)
        quadratic_loss(w).backward()
        optimizer.zero_grad()
        assert w.grad is None


class TestAdamInPlace:
    """The fused in-place step must be bit-exact vs the reference update."""

    @staticmethod
    def _paired(weight_decay: float) -> tuple[Adam, Adam]:
        rng = np.random.default_rng(3)
        shapes = [(5, 4), (4,), (3, 2), (1,)]
        data = [rng.standard_normal(shape) for shape in shapes]
        fused = Adam(
            [Tensor(d.copy(), requires_grad=True) for d in data],
            lr=0.07,
            weight_decay=weight_decay,
        )
        reference = Adam(
            [Tensor(d.copy(), requires_grad=True) for d in data],
            lr=0.07,
            weight_decay=weight_decay,
        )
        return fused, reference

    @pytest.mark.parametrize("weight_decay", [0.0, 0.13])
    def test_bit_exact_vs_reference(self, weight_decay):
        fused, reference = self._paired(weight_decay)
        rng = np.random.default_rng(11)
        for step in range(25):
            grads = [rng.standard_normal(p.data.shape) for p in fused.params]
            for p, q, g in zip(fused.params, reference.params, grads):
                p.grad = g.copy()
                q.grad = g.copy()
            fused.step()
            adam_step_reference(reference)
            for p, q in zip(fused.params, reference.params):
                assert np.array_equal(p.data, q.data), step
            for m1, m2 in zip(fused._m, reference._m):
                assert np.array_equal(m1, m2), step
            for v1, v2 in zip(fused._v, reference._v):
                assert np.array_equal(v1, v2), step

    def test_bit_exact_with_missing_grads(self):
        fused, reference = self._paired(0.05)
        rng = np.random.default_rng(7)
        for step in range(10):
            for i, (p, q) in enumerate(zip(fused.params, reference.params)):
                if (step + i) % 3 == 0:
                    p.grad = None
                    q.grad = None
                else:
                    g = rng.standard_normal(p.data.shape)
                    p.grad = g.copy()
                    q.grad = g.copy()
            fused.step()
            adam_step_reference(reference)
            for p, q in zip(fused.params, reference.params):
                assert np.array_equal(p.data, q.data), step

    def test_step_does_not_allocate_new_param_array(self):
        # The in-place update must mutate the existing buffer — that is the
        # whole point of the fusion (and what callers holding `p.data`
        # references across a step observe).
        w = Tensor(np.ones(4), requires_grad=True)
        optimizer = Adam([w], lr=0.1)
        buffer = w.data
        w.grad = np.full(4, 0.5)
        optimizer.step()
        assert w.data is buffer
