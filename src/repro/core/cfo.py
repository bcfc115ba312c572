"""Cross-type Fusion Operator (CFO) — Section IV-B, Eq. 10–15.

BN is a superposition of homogeneous subgraphs ``G^r``; the certainty of an
edge varies by type (a shared device is near-certain, a shared public Wi-Fi
is weak evidence), and the usefulness of a type also varies per node.  CFO
fuses the per-type embeddings produced by SAO towers with *node-wise*
attention (micro level, Eq. 12) and a per-type transformation matrix
``M_r`` (macro level, Eq. 13)::

    H_v       = (h_v,1, ..., h_v,|R|)                     (11)  (d_k x |R|)
    alpha_v,r = softmax_r(v_r^T tanh(W_r H_v))^T          (12)  (|R| vector)
    fused_v,r = M_r^T H_v alpha_v,r                       (13)  (d_m vector)

The operator returns the concatenation of the per-type fused vectors
(``d_m * |R|``), which the classification MLP consumes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import nn
from ..nn import Tensor
from ..nn.tensor import softmax, stacked_matmul

__all__ = ["CFOLayer", "cfo_forward_stacked"]


#: Rows whose node-wise attention runs in one batch: the intermediates are
#: ``(|R|, b, |R|, d_a)``, so a whole-graph forward goes through in chunks.
ROW_CHUNK = 256


def cfo_forward_stacked(
    type_embeddings: np.ndarray,
    w_att: np.ndarray,
    v_att: np.ndarray,
    m_trans: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """:meth:`CFOLayer.forward` on ndarrays: ``(|R|, n, d_k)`` tower-stacked
    embeddings in, ``(n, d_m * |R|)`` out, the loop's op order and bits.

    ``w_att`` ``(|R|, d_k, d_a)``, ``v_att`` ``(|R|, d_a)`` and ``m_trans``
    ``(|R|, d_k, d_m)`` are the types' parameters stacked.  The node-wise
    attention (projection, ``tanh``, score, softmax, type mix) of every
    type ``r`` runs at once, on ``rows`` only (``None``: every row) — a
    request reads one node — through ``(|R|, b, |R|, ·)`` intermediates,
    ``b`` rows at a time (:data:`ROW_CHUNK`).  Its products are per node
    and type, ``(|R|, d_k) @ (d_k, d_a)``, so a node's bits depend neither
    on how many nodes are computed nor on the batching over ``r``.  The
    mixes land in a zeroed ``(|R|, n, d_k)`` array and ``M_r`` — the one
    product with rows on its left — runs at the full shape, one batched
    call per request block: a BLAS row's bits depend on the operand shape,
    not on the other rows' values.  Rows outside ``rows`` come back zero.
    """
    towers, n, d_k = type_embeddings.shape
    if rows is None:
        chunks = [slice(start, start + ROW_CHUNK) for start in range(0, n, ROW_CHUNK)]
    else:
        chunks = [rows[start : start + ROW_CHUNK] for start in range(0, len(rows), ROW_CHUNK)]
    w_att = w_att[:, None]  # (|R|, 1, d_k, d_a): every row's product with W_r
    v_att = v_att[:, None, :, None]
    mixed = np.zeros((towers, n, d_k))
    for chunk in chunks:
        h = np.ascontiguousarray(type_embeddings[:, chunk].transpose(1, 0, 2))  # (b, |R|, d_k)
        projected = np.matmul(h, w_att)  # (|R|, b, |R|, d_a)
        np.tanh(projected, out=projected)
        alpha = softmax(np.matmul(projected, v_att)[..., 0])  # (|R|, b, |R|)
        mixed[:, chunk] = (alpha[..., None] * h).sum(axis=2)
    fused = stacked_matmul(mixed, m_trans)  # (|R|, n, d_m)
    # contiguous: with d_m == 1 the reshape alone is a strided view, and the
    # head's BLAS takes other bits off it
    return np.ascontiguousarray(fused.transpose(1, 0, 2)).reshape(n, -1)


class CFOLayer(nn.Module):
    """Fuse ``|R|`` per-type node embeddings into one representation."""

    def __init__(
        self,
        n_types: int,
        embed_dim: int,
        att_dim: int,
        out_dim: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        if n_types < 1:
            raise ValueError("CFO needs at least one edge type")
        self.n_types = n_types
        self.embed_dim = embed_dim  # d_k
        self.out_dim = out_dim  # d_m
        # Per-type attention parameters (Eq. 12): W_r in R^{d_a x d_k},
        # v_r in R^{d_a}; and macro transformation M_r in R^{d_k x d_m}.
        self.w_att = [nn.xavier_uniform((embed_dim, att_dim), rng) for _ in range(n_types)]
        self.v_att = [nn.normal((att_dim,), rng, std=0.1) for _ in range(n_types)]
        self.m_trans = [nn.xavier_uniform((embed_dim, out_dim), rng) for _ in range(n_types)]

    @property
    def output_dim(self) -> int:
        return self.out_dim * self.n_types

    def forward(self, type_embeddings: Sequence[Tensor]) -> Tensor:
        """``type_embeddings[r]`` has shape ``(n, d_k)``; returns ``(n, d_m*|R|)``."""
        if len(type_embeddings) != self.n_types:
            raise ValueError(
                f"expected {self.n_types} type embeddings, got {len(type_embeddings)}"
            )
        # H: (n, |R|, d_k) — node-wise stacked type embeddings (Eq. 11).
        h = nn.stack(list(type_embeddings), axis=1)
        fused: list[Tensor] = []
        for r in range(self.n_types):
            # tanh(W_r H_v): (n, |R|, d_a); scores v_r^T(...): (n, |R|).
            projected = (h @ self.w_att[r]).tanh()
            scores = projected @ self.v_att[r]
            alpha = scores.softmax(axis=1)  # (n, |R|) — Eq. 12
            # H_v alpha_v,r: weighted mix over types, then macro M_r^T (Eq. 13).
            mixed = (alpha.reshape(alpha.shape[0], self.n_types, 1) * h).sum(axis=1)
            fused.append(mixed @ self.m_trans[r])
        return nn.concat(fused, axis=1)

    def attention_matrix(self, type_embeddings: Sequence[Tensor]) -> np.ndarray:
        """Per-node attention coefficients ``alpha_v`` (n, |R|, |R|) for analysis."""
        with nn.no_grad():
            h = nn.stack(list(type_embeddings), axis=1)
            rows = []
            for r in range(self.n_types):
                projected = (h @ self.w_att[r]).tanh()
                scores = projected @ self.v_att[r]
                rows.append(scores.softmax(axis=1).numpy())
        return np.stack(rows, axis=1)
