"""First-order optimizers for the autograd substrate."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["SGD", "Adam"]


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, params: Sequence[Tensor], lr: float) -> None:
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"learning rate must be finite and positive, got {lr}")
        self.params = list(params)
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear gradients of every managed parameter."""
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update step (implemented by subclasses)."""
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Apply one (momentum) SGD update to every parameter."""
        for param, velocity in zip(self.params, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data = param.data - self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) — the optimizer used by the paper (lr 5e-4)."""

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float = 5e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        #: two per-parameter scratch buffers so the update runs allocation
        #: free: one holds the (decayed) gradient / numerator, the other the
        #: second-moment term / denominator — both are live at once.
        self._num = [np.empty_like(p.data) for p in self.params]
        self._den = [np.empty_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        """Apply one bias-corrected Adam update to every parameter.

        The update is computed entirely in preallocated scratch buffers —
        zero per-parameter temporaries.  Every fused ufunc call performs the
        same elementwise operation sequence as the one-temporary-per-line
        update it replaced (``tests/oracles/optim.py``; only the output
        buffer differs, and scalar multiplication order, which IEEE-754
        rounds identically), so the two are bit-exact; the test suite pins
        that equivalence.
        """
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param, m, v, num, den in zip(
            self.params, self._m, self._v, self._num, self._den
        ):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                np.multiply(param.data, self.weight_decay, out=num)
                np.add(grad, num, out=num)
                grad = num
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=den)
            m += den
            v *= self.beta2
            np.multiply(grad, grad, out=den)
            den *= 1.0 - self.beta2
            v += den
            # grad (possibly aliasing ``num``) is dead past this point, so
            # the numerator can be built in place.
            np.divide(v, bias2, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            np.divide(m, bias1, out=num)
            num *= self.lr
            np.divide(num, den, out=num)
            param.data -= num
