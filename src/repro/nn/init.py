"""Weight initialization schemes for the autograd substrate."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["xavier_uniform", "zeros", "normal"]


def xavier_uniform(
    shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0
) -> Tensor:
    """Glorot/Xavier uniform initialization for a weight of ``shape``."""
    fan_in, fan_out = _fans(shape)
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def zeros(shape: tuple[int, ...]) -> Tensor:
    """Zero-initialized trainable tensor (for biases)."""
    return Tensor(np.zeros(shape), requires_grad=True)


def normal(
    shape: tuple[int, ...], rng: np.random.Generator, std: float = 0.01
) -> Tensor:
    """Small-variance normal initialization (for attention vectors)."""
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[0] * receptive, shape[1] * receptive
