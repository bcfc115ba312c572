"""Influence score and distribution (Definition 1; Fig. 9 case study).

The influence score ``S_i(j)`` of node ``i`` by node ``j`` is the sum of the
absolute entries of the Jacobian of ``i``'s final representation with respect
to ``j``'s input features; the influence distribution normalizes the scores
over ``j``.  We compute the Jacobian exactly with one backward pass per
output coordinate, which is affordable on case-study-sized subgraphs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..nn import Tensor

__all__ = ["influence_scores", "influence_distribution"]


def influence_scores(
    forward: Callable[[Tensor], Tensor],
    features: np.ndarray,
    node: int,
) -> np.ndarray:
    """``S_node(j)`` for every node ``j``, given an embedding ``forward``.

    ``forward`` maps an ``(n, d_in)`` feature tensor to ``(n, d_out)``
    node representations (e.g. ``lambda x: model.embeddings(x, aggs)``).
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if not 0 <= node < n:
        raise ValueError(f"node index {node} out of range")
    scores = np.zeros(n)
    x = Tensor(features, requires_grad=True)
    h = forward(x)
    d_out = h.shape[1] if h.ndim > 1 else 1
    for c in range(d_out):
        x.zero_grad()
        seed = np.zeros(h.shape)
        if h.ndim > 1:
            seed[node, c] = 1.0
        else:
            seed[node] = 1.0
        h.backward(seed)
        scores += np.abs(x.grad).sum(axis=1)
    return scores


def influence_distribution(
    forward: Callable[[Tensor], Tensor],
    features: np.ndarray,
    node: int,
) -> np.ndarray:
    """``D_node`` — influence scores normalized to sum to one."""
    scores = influence_scores(forward, features, node)
    total = scores.sum()
    if total <= 0:
        # An isolated node is influenced only by itself.
        result = np.zeros_like(scores)
        result[node] = 1.0
        return result
    return scores / total
