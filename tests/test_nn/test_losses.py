"""Loss function tests: values, stability, gradients, weighting."""

from __future__ import annotations

import numpy as np

from repro.nn import Tensor, bce_with_logits


class TestBCEWithLogits:
    def test_matches_reference_formula(self):
        logits = np.array([0.2, -1.5, 3.0])
        targets = np.array([1.0, 0.0, 1.0])
        loss = bce_with_logits(Tensor(logits), targets).item()
        p = 1 / (1 + np.exp(-logits))
        reference = -np.mean(targets * np.log(p) + (1 - targets) * np.log(1 - p))
        np.testing.assert_allclose(loss, reference, rtol=1e-9)

    def test_extreme_logits_stable(self):
        loss = bce_with_logits(Tensor([1000.0, -1000.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())
        assert loss.item() < 1e-6

    def test_pos_weight_shifts_gradient(self):
        logits = Tensor(np.zeros(2), requires_grad=True)
        targets = np.array([1.0, 0.0])
        bce_with_logits(logits, targets, pos_weight=5.0).backward()
        # Positive example's gradient magnitude is 5x the negative's.
        assert abs(logits.grad[0]) > 4.0 * abs(logits.grad[1])

    def test_perfect_prediction_near_zero(self):
        loss = bce_with_logits(Tensor([20.0, -20.0]), np.array([1.0, 0.0]))
        assert loss.item() < 1e-6
