"""Loss functions for binary fraud classification."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["bce_with_logits"]


def bce_with_logits(
    logits: Tensor,
    targets: np.ndarray,
    pos_weight: float = 1.0,
) -> Tensor:
    """Numerically stable binary cross-entropy on raw logits.

    Uses the log-sum-exp form ``max(x, 0) - x*y + log(1 + exp(-|x|))`` so no
    intermediate sigmoid can saturate.  ``pos_weight`` rescales the positive
    class, the standard remedy for the extreme class imbalance of the D1
    dataset (918 fraudsters among 67 072 users in the paper).
    """
    targets = np.asarray(targets, dtype=np.float64)
    x = logits
    relu_x = x.relu()
    softplus = (1.0 + (x.abs() * -1.0).exp()).log()
    per_example = relu_x - x * Tensor(targets) + softplus
    if pos_weight != 1.0:
        weights = np.where(targets > 0.5, pos_weight, 1.0)
        per_example = per_example * Tensor(weights)
        return per_example.sum() * (1.0 / weights.sum())
    return per_example.mean()
