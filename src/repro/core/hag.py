"""HAG — Heterogeneous Adaptive Graph neural network (Section IV).

Architecture (paper settings: ``k = 2`` layers with 128 and 64 hidden units,
attention layers of 64 units, cascaded by an MLP with 32 hidden units):

1. per edge type ``r``, a tower of :class:`~repro.core.sao.SAOLayer` operating
   on the homogeneous subgraph ``G^r`` produces the type embedding
   ``h_v,r`` (Eq. 10);
2. :class:`~repro.core.cfo.CFOLayer` fuses the type embeddings with
   node-wise cross-type attention (Eq. 11–15);
3. an MLP head maps the fused representation to a fraud logit.

Ablation switches map onto Table V:

* ``use_sao=False`` → SAO(-): Eq. 5's gate removed (plain skip-connection);
* ``use_cfo=False`` → CFO(-): edge types collapsed into one merged graph,
  a single SAO tower, no fusion;
* both false → Both(-).

HAG is inductive: ``forward`` takes whatever adjacency it is given, so
prediction on a sampled computation subgraph computes exactly what training
on the full BN does.  The forward has two spellings: while autograd records,
the per-type tape forward (``Tensor`` ops, one tower at a time) — the
definition, and the only path that trains; under ``no_grad``, the same float
operations on ndarrays (``sao_combine_stacked``: all towers in one batched
kernel; ``cfo_forward_stacked``: every type's attention in one kernel) over
one type-stacked CSR built from the requests' sampled entries by one sort,
pinned bit-equal to the tape by ``tests/test_core/test_hag_kernels.py``.

The forward scores the ``rows`` its caller reads — a request's target, a
pack's targets — and returns only their logits.  The towers still run on
every node, because neighbour sums read them all; CFO's node-wise attention
runs on ``rows`` alone, while ``M_r`` and the head keep the full shape,
which is what keeps each logit's bits.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .. import nn
from ..nn import Tensor
from ..nn.sparse import StackedCSR, row_mean_csr
from ..nn.tensor import stacked_matmul
from ..network.sampling import ComputationSubgraph
from .cfo import CFOLayer, cfo_forward_stacked
from .sao import SAOLayer, sao_combine_stacked

__all__ = ["HAG", "prepare_aggregators"]

_DATA_BASE = operator.attrgetter("data.base")


def prepare_aggregators(
    adjacencies: Sequence[sp.spmatrix] | sp.spmatrix,
) -> list[nn.PreparedAggregator]:
    """Convert raw per-type adjacency matrices to Eq. 6 aggregators.

    All towers are normalised in one stacked pass
    (:func:`~repro.nn.sparse.row_mean_csr`) and each result is wrapped in
    :class:`repro.nn.PreparedAggregator`, so a training run builds its CSR
    transpose at most once (and a forward-only pass never builds it) — see
    ``docs/PERFORMANCE.md``.  The towers share one node set: a matrix that
    is not square, or not of the first one's shape, is a ``ValueError``.
    """
    if sp.issparse(adjacencies):
        adjacencies = [adjacencies]
    adjacencies = [nn.as_csr(a) for a in adjacencies]
    for k, matrix in enumerate(adjacencies):
        n = adjacencies[0].shape[0]
        if matrix.shape != (n, n):
            raise ValueError(f"adjacency {k} has shape {matrix.shape}, not ({n}, {n})")
    return [nn.PreparedAggregator(a) for a in row_mean_csr(adjacencies)]


class HAG(nn.Module):
    """The full HAG classifier.

    Parameters
    ----------
    in_dim:
        Node feature dimensionality (``X_{u+tau}`` + ``X_s``).
    n_types:
        Number of BN edge types ``|R|`` (ignored when ``use_cfo=False``).
    rng:
        Generator for weight initialization.
    hidden:
        SAO tower widths (the paper uses ``(128, 64)``).
    att_dim:
        Hidden size of the SAO attention layers (paper: 64).
    cfo_att_dim / cfo_out_dim:
        CFO attention size ``d_a`` and per-type output size ``d_m``.
    mlp_hidden:
        Classification head widths (paper: ``(32,)``).
    use_sao / use_cfo:
        Table V ablation switches.
    """

    def __init__(
        self,
        in_dim: int,
        n_types: int,
        rng: np.random.Generator,
        hidden: Sequence[int] = (128, 64),
        att_dim: int = 64,
        cfo_att_dim: int = 64,
        cfo_out_dim: int = 16,
        mlp_hidden: Sequence[int] = (32,),
        use_sao: bool = True,
        use_cfo: bool = True,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        if not hidden:
            raise ValueError("at least one SAO layer width is required")
        self.in_dim = in_dim
        self.use_sao = use_sao
        self.use_cfo = use_cfo
        self.n_types = n_types if use_cfo else 1
        self.hidden = tuple(hidden)

        widths = [in_dim, *hidden]
        self.towers = nn.ModuleList(
            nn.ModuleList(
                SAOLayer(a, b, att_dim, rng, use_attention=use_sao)
                for a, b in zip(widths[:-1], widths[1:])
            )
            for _ in range(self.n_types)
        )
        if use_cfo:
            self.cfo: CFOLayer | None = CFOLayer(
                n_types=self.n_types,
                embed_dim=hidden[-1],
                att_dim=cfo_att_dim,
                out_dim=cfo_out_dim,
                rng=rng,
            )
            head_in = self.cfo.output_dim
        else:
            self.cfo = None
            head_in = hidden[-1]
        self.head = nn.MLP(head_in, mlp_hidden, 1, rng, dropout=dropout)
        #: ``[parameters, stack]`` per tower-indexed group (:meth:`_stacked_weights`).
        self._weights: list[list] | None = None

    def __getstate__(self) -> dict:
        """Pickle without the weight stacks: copies would arrive disconnected
        from the parameters, which pickle as arrays of their own."""
        return {**self.__dict__, "_weights": None}

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def embeddings(
        self, x: Tensor, aggregators: Sequence[sp.csr_matrix]
    ) -> Tensor:
        """Fused node representation before the MLP head: the per-type tape
        forward, one SAO tower per aggregator, fused by CFO."""
        if len(aggregators) != self.n_types:
            raise ValueError(
                f"expected {self.n_types} aggregators, got {len(aggregators)}"
            )
        type_embeddings: list[Tensor] = []
        for tower, aggregator in zip(self.towers, aggregators):
            h = x
            for layer in tower:
                h = layer(h, aggregator)
            type_embeddings.append(h)
        return self.cfo(type_embeddings) if self.cfo is not None else type_embeddings[0]

    def forward(
        self,
        x: Tensor,
        aggregators: Sequence[sp.csr_matrix] | StackedCSR,
        rows: Sequence[int] | np.ndarray | None = None,
    ) -> Tensor:
        """Fraud logits of ``rows`` (``None``: all ``n``), from one Eq. 6
        matrix per tower (under ``no_grad`` also their
        :class:`~repro.nn.sparse.StackedCSR`).

        Two spellings of one computation.  While autograd records it is the
        per-type tape forward (:meth:`embeddings`, then the head) — the
        definition — indexed by ``rows``.  Under ``no_grad`` nothing needs a
        graph, so the same float operations run on ndarrays with every tower
        in one batched kernel (:meth:`_forward_stacked`), bit for bit the same
        logits, and they are the only ``Tensor`` made.  ``rows`` that are not
        a 1-D array of in-range integers are a ``ValueError``.
        """
        if rows is not None:
            rows = np.asarray(rows)
            n = x.shape[0]
            if rows.ndim != 1 or rows.dtype.kind not in "iu" or not (
                (rows >= 0) & (rows < n)
            ).all():
                raise ValueError(f"rows must be a 1-D integer array in [0, {n})")
        if nn.is_grad_enabled():
            logits = self.head(self.embeddings(x, aggregators)).flatten()
            return logits if rows is None else logits[rows]
        return Tensor(self._forward_stacked(x.data, aggregators, rows))

    def _stacked_weights(self) -> list[np.ndarray]:
        """Every SAO parameter group as one ``(T, ...)`` array: layer ``k``'s
        ``W_ls, b_ls, W_ln, b_ln[, W_s, W_n, p]`` (discovery order), layer
        after layer; then, with CFO, its ``W``, ``v`` and ``M`` over types.

        A stack cannot go stale because it is the storage: each
        ``param.data`` is rebound to its slice, so an in-place optimizer step
        writes through.  Whatever rebinds ``param.data`` instead (SGD,
        ``load_state_dict``, a worker's parameter push, unpickling) breaks
        ``data.base is stack``, and that stack is rebuilt here.
        """
        if self._weights is None:
            self._weights = [
                [list(group), None]
                for depth in zip(*self.towers)
                for group in zip(*(layer.parameters() for layer in depth))
            ]
            if self.cfo is not None:
                cfo = self.cfo
                self._weights += [[list(g), None] for g in (cfo.w_att, cfo.v_att, cfo.m_trans)]
        for entry in self._weights:
            params, stack = entry
            # C-level all the way: no Python frame per parameter
            bases = map(_DATA_BASE, params)
            if stack is None or not all(map(operator.is_, bases, repeat(stack))):
                entry[1] = stack = np.stack([param.data for param in params])
                for param, view in zip(params, stack):
                    param.data = view
        return [stack for _, stack in self._weights]

    def _head_logits(self, h: np.ndarray) -> np.ndarray:
        """The MLP head on ndarrays (dropout is the identity off the tape)."""
        for layer in self.head.hidden_layers:
            h = stacked_matmul(h, layer.weight.data) + layer.bias.data
            h = h * (h > 0)
        head = self.head.head
        return (stacked_matmul(h, head.weight.data) + head.bias.data).reshape(-1)

    def _forward_stacked(
        self,
        x: np.ndarray,
        aggregators: Sequence[sp.csr_matrix] | StackedCSR,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """The tape-free forward: logits of ``rows`` (``None``: all ``n``)
        from features ``(n, d)``.

        Activations are ``(T, n, d)``, all towers' rows in one array: layer
        1 aggregates with one ``(T·n, n) @ X`` sparse product, later layers
        with one block-diagonal ``(T·n, T·n)`` product over the same row
        entries, every SAO dense product is batched over ``T``.  That is
        ``|R|`` times the per-type working set — right for a request or a
        packed chunk of them.  The towers run on every row (the
        last layer's neighbour sums read them all); only CFO's node-wise
        attention is cut to ``rows``, and ``M_r`` and the head keep the
        full shape, so every logit keeps the tape's bits.
        """
        if not isinstance(aggregators, StackedCSR):
            aggregators = StackedCSR.from_matrices(aggregators)
        n, towers = x.shape[0], self.n_types
        if len(aggregators.shapes) != towers:
            raise ValueError(
                f"expected {towers} aggregators, got {len(aggregators.shapes)}"
            )
        if any(shape != (n, n) for shape in aggregators.shapes):
            raise ValueError(f"aggregators {aggregators.shapes} are not all ({n}, {n})")
        weights = self._stacked_weights()
        per_layer = 7 if self.use_sao else 4
        h = x
        for k, layer in enumerate(self.towers[0]):
            h_neigh = aggregators.matmul(h.reshape(-1, h.shape[-1]), block_diagonal=k > 0)
            h_neigh = h_neigh.reshape(towers, n, -1)
            h = sao_combine_stacked(
                h, h_neigh, weights[k * per_layer : (k + 1) * per_layer], layer.activation
            )
        if self.cfo is None:
            logits = self._head_logits(h[0])
        else:
            logits = self._head_logits(cfo_forward_stacked(h, *weights[-3:], rows))
        return logits if rows is None else logits[rows]

    def predict_proba(
        self,
        x: np.ndarray,
        aggregators: Sequence[sp.csr_matrix] | StackedCSR,
        rows: Sequence[int] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Fraud probabilities of ``rows`` (``None``: every node), no autograd
        recording."""
        with nn.no_grad():
            logits = self.forward(Tensor(x), aggregators, rows)
        return 1.0 / (1.0 + np.exp(-logits.numpy()))

    def _request_aggregators(
        self,
        subgraphs: Sequence[ComputationSubgraph],
        edge_type_order: Sequence | None,
    ) -> StackedCSR:
        """The Eq. 6 aggregators of a pack of requests, stacked in tower order.

        Every request's stored entries (the sampler's typed entries in both
        directions, a dict's matrices' entries; CFO(-) the entries of its
        ``merged()``) are shifted down the diagonal by the request's first
        row and sent to the tower of their type: ``edge_type_order``
        (``None`` means the subgraph's own types, sorted).  A type with no
        tower is dropped, and a tower a request lacks stays empty.  One
        :meth:`~repro.nn.sparse.StackedCSR.from_entries` builds the pack,
        one :meth:`~repro.nn.sparse.StackedCSR.row_mean` normalises every row.
        """
        empty = np.empty(0, dtype=np.int64)
        parts = [(empty, empty, np.empty(0), empty)]
        offset, towers = 0, None
        for subgraph in subgraphs:
            if self.use_cfo:
                types, rows, cols, data, code = subgraph.stored_entries()
                order = sorted(types) if edge_type_order is None else edge_type_order
                tower_of = {btype: t for t, btype in enumerate(order)}
                tower = np.array([tower_of.get(b, -1) for b in types], dtype=np.int64)[code]
            else:
                merged = subgraph.merged()
                rows = np.repeat(np.arange(merged.shape[0]), np.diff(merged.indptr))
                cols, data = merged.indices, merged.data
                order, tower = [None], np.zeros(len(data), dtype=np.int64)
            towers = len(order) if towers is None else towers
            keep = tower >= 0
            parts.append((rows[keep] + offset, cols[keep] + offset, data[keep], tower[keep]))
            offset += subgraph.num_nodes
        rows, cols, data, tower = map(np.concatenate, zip(*parts))
        return StackedCSR.from_entries(rows, cols, data, tower, towers, offset).row_mean()

    def predict_subgraph(
        self,
        subgraph: ComputationSubgraph,
        features: np.ndarray,
        edge_type_order: Sequence | None = None,
    ) -> float:
        """Inductive prediction: fraud probability of the subgraph's target.

        ``features`` holds one row per ``subgraph.nodes`` entry;
        ``edge_type_order`` fixes the adjacency ordering so it matches the
        towers the model was trained with.  A non-finite feature is a
        ``ValueError``: it would otherwise come back as a ``nan`` score.
        """
        if features.shape[0] != subgraph.num_nodes:
            raise ValueError("feature rows must align with subgraph nodes")
        if not np.isfinite(features).all():
            raise ValueError("features must be finite (found nan or inf)")
        aggregators = self._request_aggregators([subgraph], edge_type_order)
        return float(self.predict_proba(features, aggregators, [0])[0])

    def predict_subgraphs(
        self,
        subgraphs: Sequence[ComputationSubgraph],
        features: Sequence[np.ndarray],
        edge_type_order: Sequence | None = None,
    ) -> list[float]:
        """Batched inductive prediction: one packed forward, bit-exact per request.

        ``features[i]`` holds one row per ``subgraphs[i].nodes`` entry.  The
        per-request node blocks are stacked row-wise, the requests'
        type-stacked adjacencies are packed block-diagonally per tower, and
        the whole batch runs through the same ``forward`` as
        :meth:`predict_subgraph` exactly once.  Aggregation, nonlinearities,
        softmax and the CFO's per-node matmuls are row-local, so they run
        genuinely packed; dense products with rows on the left are evaluated
        per request block under :class:`repro.nn.row_blocks`, making each
        returned probability bit-for-bit the value :meth:`predict_subgraph`
        would compute for that subgraph alone.

        ``edge_type_order`` is required when the model uses CFO: the scalar
        path's per-subgraph default (``sorted(subgraph.adjacency)``) is not
        well defined for a shared packed pass.  A non-finite feature is a
        ``ValueError`` naming the request's position.
        """
        if len(subgraphs) != len(features):
            raise ValueError("one feature matrix per subgraph is required")
        if not subgraphs:
            return []
        for subgraph, rows in zip(subgraphs, features):
            if rows.shape[0] != subgraph.num_nodes:
                raise ValueError("feature rows must align with subgraph nodes")
        if self.use_cfo and edge_type_order is None:
            raise ValueError("edge_type_order is required for batched CFO inference")
        sizes = [subgraph.num_nodes for subgraph in subgraphs]
        boundaries = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        packed = np.vstack(features)
        if not np.isfinite(packed).all():
            row = np.flatnonzero(~np.isfinite(packed).all(axis=1))[0]
            position = int(np.searchsorted(boundaries, row, side="right")) - 1
            raise ValueError(
                f"features must be finite (found nan or inf in request {position})"
            )
        aggregators = self._request_aggregators(subgraphs, edge_type_order)
        with nn.row_blocks(boundaries):
            probabilities = self.predict_proba(packed, aggregators, boundaries[:-1])
        return [float(p) for p in probabilities]
