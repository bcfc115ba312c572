"""Weight-initialization tests."""

from __future__ import annotations

import numpy as np

from repro.nn import normal, xavier_uniform, zeros


class TestInitializers:
    def test_xavier_uniform_bounds(self, rng):
        w = xavier_uniform((100, 50), rng)
        limit = np.sqrt(6.0 / 150)
        assert w.requires_grad
        assert np.abs(w.numpy()).max() <= limit

    def test_zeros(self):
        w = zeros((5,))
        assert w.requires_grad
        np.testing.assert_allclose(w.numpy(), 0.0)

    def test_normal_std(self, rng):
        w = normal((10_000,), rng, std=0.05)
        assert 0.04 < w.numpy().std() < 0.06

    def test_vector_fans(self, rng):
        # 1-D shapes must not crash the fan computation.
        w = xavier_uniform((7,), rng)
        assert w.shape == (7,)

    def test_gain_scales_limit(self, rng):
        narrow = xavier_uniform((50, 50), np.random.default_rng(0), gain=1.0)
        wide = xavier_uniform((50, 50), np.random.default_rng(0), gain=2.0)
        np.testing.assert_allclose(2 * narrow.numpy(), wide.numpy())
