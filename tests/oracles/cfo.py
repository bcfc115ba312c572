"""CFO's node-wise attention as a loop over the edge types.

``cfo_forward_stacked_loop`` is ``repro.core.cfo.cfo_forward_stacked`` as it
was before the types were batched into one kernel, copied unchanged but for
its name: one ``(b, |R|, ·)`` pass and one ``M_r`` product per type ``r``,
each type's parameters a separate array.  The shipped kernel promises its
bits (``tests/test_core/test_hag_oracles.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.tensor import softmax, stacked_matmul


def cfo_forward_stacked_loop(
    type_embeddings: np.ndarray,
    w_att: Sequence[np.ndarray],
    v_att: Sequence[np.ndarray],
    m_trans: Sequence[np.ndarray],
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """:meth:`CFOLayer.forward` on ndarrays: ``(|R|, n, d_k)`` tower-stacked
    embeddings in, ``(n, d_m * |R|)`` out, the loop's op order and bits.

    The node-wise attention (projection, ``tanh``, score, softmax, type mix)
    runs only on ``rows`` (``None``: every row) — a request reads one node,
    and this is ``tanh`` of ``|R|² · d_a`` values per node.  Its products are
    per node, ``(|R|, d_k) @ (d_k, d_a)``, so a node's bits do not depend on
    how many nodes are computed.  The mixes land in a zeroed ``(n, d_k)``
    array and ``M_r`` — the one product with rows on its left — runs at the
    full shape, per request block: a BLAS row's bits depend on the operand
    shape, not on the other rows' values.  Rows outside ``rows`` come back
    zero.  The loop over ``r`` stays: batching it needs a ``(b, |R|, |R|,
    d_a)`` intermediate, which a full-graph call (every row of a validation
    graph) cannot afford.
    """
    n = type_embeddings.shape[1]
    if rows is None:
        rows = slice(None)
    h = np.ascontiguousarray(type_embeddings[:, rows].transpose(1, 0, 2))  # (b, |R|, d_k)
    mixed = np.zeros((n, h.shape[2]))
    fused = []
    for w_r, v_r, m_r in zip(w_att, v_att, m_trans):
        projected = np.matmul(h, w_r)
        np.tanh(projected, out=projected)
        alpha = softmax(np.matmul(projected, v_r))
        mixed[rows] = (alpha[..., None] * h).sum(axis=1)
        fused.append(stacked_matmul(mixed, m_r))
    return np.concatenate(fused, axis=1)
