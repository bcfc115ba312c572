"""Self-aware Aggregation Operator (SAO) — Section IV-A, Eq. 5–9.

BN's implicit relations form *cliques*; Theorem 1 shows that GCN-style
aggregation maps every node of a clique to the same expected hidden feature
after one round (over-smoothing).  SAO counteracts this with a learned,
node-wise gate between a node's own representation and its aggregated
neighbourhood::

    h_v' = ReLU(alpha_self * W_ls h_v + alpha_neigh * W_ln h_N(v))      (5)
    h_N(v) = (1/deg(v)) * sum_u w_uv h_u                                 (6)
    alpha'_self  = p^T tanh([W_s h_v ; W_s h_v])                         (7)
    alpha'_neigh = p^T tanh([W_n h_N ; W_s h_v])                         (8)
    (alpha_self, alpha_neigh) = softmax(alpha'_self, alpha'_neigh)       (9)

With ``use_attention=False`` the gate is removed (both coefficients fixed to
1), reducing Eq. 5 to the skip-connection form of Eq. 4 — this is the SAO(-)
ablation of Table V.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .. import nn
from ..nn import Tensor
from ..nn.sparse import row_mean_csr
from ..nn.tensor import stacked_matmul

__all__ = ["SAOLayer", "neighbor_mean_matrix", "sao_combine_stacked"]


def neighbor_mean_matrix(
    adjacency: sp.spmatrix | nn.PreparedAggregator,
) -> sp.csr_matrix:
    """Aggregation matrix for Eq. 6: row ``v`` holds ``w_uv / deg(v)``.

    We read ``deg(v)`` as the *weighted* degree on the (type-normalized) BN
    weights — consistent with the paper's ``deg'`` definition in Section
    III-A — so every non-empty row sums to one.  Dividing by the neighbour
    count instead would shrink the already-normalized weights a second time
    and starve the neighbourhood branch of gradient signal.  The one-matrix
    case of :func:`~repro.nn.sparse.row_mean_csr`, which
    :func:`~repro.core.hag.prepare_aggregators` runs over all towers at once.
    """
    return row_mean_csr([adjacency])[0]


def sao_combine_stacked(
    h: np.ndarray,
    h_neigh: np.ndarray,
    weights: Sequence[np.ndarray],
    activation: bool = True,
) -> np.ndarray:
    """:meth:`SAOLayer.combine` of ``T`` towers at once, on ndarrays.

    ``h`` is ``(T, n, d)`` (or ``(n, d)``, one input shared by every tower),
    ``h_neigh`` ``(T, n, d)``, ``weights`` the towers' parameters stacked on
    a leading axis: ``W_ls, b_ls, W_ln, b_ln`` and, with the gate,
    ``W_s, W_n, p``.  Slice ``t`` of the result carries the bits of tower
    ``t``'s ``combine``: every dense product is that tower's BLAS call
    (:func:`~repro.nn.tensor.stacked_matmul`), the rest is elementwise or a
    last-axis reduction (``tanh`` runs once per projection, not once per
    concatenation — the same values; the softmax over two scores is
    written out, the same values as ``softmax`` of the pair).
    """
    w_self, b_self, w_neigh, b_neigh, *gate = weights
    z_self = stacked_matmul(h, w_self) + b_self[:, None, :]
    z_neigh = stacked_matmul(h_neigh, w_neigh) + b_neigh[:, None, :]
    if gate:
        att_self, att_neigh, p = gate
        proj_self = stacked_matmul(h, att_self)
        proj_neigh = stacked_matmul(h_neigh, att_neigh)
        np.tanh(proj_self, out=proj_self)
        np.tanh(proj_neigh, out=proj_neigh)
        p = p[:, :, None]
        score_self = stacked_matmul(np.concatenate([proj_self, proj_self], axis=-1), p)
        score_neigh = stacked_matmul(np.concatenate([proj_neigh, proj_self], axis=-1), p)
        # softmax over the pair, spelled out: a two-element max and sum
        # are ``maximum`` and ``+``
        top = np.maximum(score_self, score_neigh)
        e_self, e_neigh = np.exp(score_self - top), np.exp(score_neigh - top)
        total = e_self + e_neigh
        out = (e_self / total) * z_self + (e_neigh / total) * z_neigh
    else:
        out = z_self + z_neigh
    return out * (out > 0) if activation else out


class SAOLayer(nn.Module):
    """One SAO layer operating on a single homogeneous subgraph ``G^r``."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        att_dim: int,
        rng: np.random.Generator,
        use_attention: bool = True,
        activation: bool = True,
    ) -> None:
        super().__init__()
        self.use_attention = use_attention
        self.activation = activation
        self.w_self = nn.Linear(in_dim, out_dim, rng)  # W_ls
        self.w_neigh = nn.Linear(in_dim, out_dim, rng)  # W_ln
        if use_attention:
            self.att_self = nn.xavier_uniform((in_dim, att_dim), rng)  # W_s
            self.att_neigh = nn.xavier_uniform((in_dim, att_dim), rng)  # W_n
            self.p = nn.normal((2 * att_dim,), rng, std=0.1)

    def forward(
        self, h: Tensor, aggregator: sp.spmatrix | nn.PreparedAggregator
    ) -> Tensor:
        """Apply SAO given node features ``h`` and the Eq. 6 aggregator.

        Without attention the aggregate and the neighbour affine fuse into
        one :func:`~repro.nn.spmm_affine` node (bit-exact with the unfused
        chain).  The attention path keeps the explicit ``spmm``: Eq. 8
        needs the raw ``h_N(v)`` for the ``W_n`` projection, so the
        intermediate cannot be eliminated there.
        """
        if not self.use_attention:
            z_self = self.w_self(h)
            z_neigh = nn.spmm_affine(
                aggregator, h, self.w_neigh.weight, self.w_neigh.bias
            )
            out = z_self + z_neigh
            return out.relu() if self.activation else out
        return self.combine(h, nn.spmm(aggregator, h))

    def combine(self, h: Tensor, h_neigh: Tensor) -> Tensor:
        """Everything after neighbourhood aggregation: the per-row mixing.

        Split out of :meth:`forward` because it is *row-local* — row ``v``
        of the output depends only on row ``v`` of ``h`` and ``h_neigh``.
        The lambda incremental rematerialization exploits this: it feeds a
        rectangular aggregation (cone rows of ``A`` against the full
        previous layer) through the exact same op sequence as the
        full-graph pass.
        """
        z_self = self.w_self(h)
        z_neigh = self.w_neigh(h_neigh)
        if not self.use_attention:
            out = z_self + z_neigh
            return out.relu() if self.activation else out

        proj_self = h @ self.att_self  # W_s h_v
        proj_neigh = h_neigh @ self.att_neigh  # W_n h_N
        score_self = nn.concat([proj_self, proj_self], axis=1).tanh() @ self.p
        score_neigh = nn.concat([proj_neigh, proj_self], axis=1).tanh() @ self.p
        alphas = nn.stack([score_self, score_neigh], axis=1).softmax(axis=1)
        alpha_self = alphas[:, 0].reshape(-1, 1)
        alpha_neigh = alphas[:, 1].reshape(-1, 1)
        out = alpha_self * z_self + alpha_neigh * z_neigh
        return out.relu() if self.activation else out

    def attention_coefficients(
        self, h: Tensor, aggregator: sp.spmatrix | nn.PreparedAggregator
    ) -> np.ndarray:
        """Return the per-node ``(alpha_self, alpha_neigh)`` pairs (for analysis)."""
        if not self.use_attention:
            return np.ones((h.shape[0], 2))
        with nn.no_grad():
            h_neigh = nn.spmm(aggregator, h)
            proj_self = h @ self.att_self
            proj_neigh = h_neigh @ self.att_neigh
            score_self = nn.concat([proj_self, proj_self], axis=1).tanh() @ self.p
            score_neigh = nn.concat([proj_neigh, proj_self], axis=1).tanh() @ self.p
            alphas = nn.stack([score_self, score_neigh], axis=1).softmax(axis=1)
        return alphas.numpy()
