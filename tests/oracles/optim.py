"""The pre-fusion Adam update ``repro.nn.optim.Adam.step`` replaced.

Moved unchanged out of ``Adam`` (``self`` became the ``adam`` argument): one
temporary per line.  The optimizer tests run it and ``step`` against
identical parameter clones and assert bit-identical trajectories, so any
edit to ``step`` that changes the float sequence fails loudly.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Adam


def adam_step_reference(adam: Adam) -> None:
    adam._t += 1
    bias1 = 1.0 - adam.beta1**adam._t
    bias2 = 1.0 - adam.beta2**adam._t
    for param, m, v in zip(adam.params, adam._m, adam._v):
        if param.grad is None:
            continue
        grad = param.grad
        if adam.weight_decay:
            grad = grad + adam.weight_decay * param.data
        m *= adam.beta1
        m += (1.0 - adam.beta1) * grad
        v *= adam.beta2
        v += (1.0 - adam.beta2) * grad**2
        m_hat = m / bias1
        v_hat = v / bias2
        param.data = param.data - adam.lr * m_hat / (np.sqrt(v_hat) + adam.eps)
