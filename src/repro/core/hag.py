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
prediction on a sampled computation subgraph uses exactly the same code path
as training on the full BN.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .. import nn
from ..nn import Tensor
from ..nn.sparse import row_mean_csr
from ..network.sampling import ComputationSubgraph
from .cfo import CFOLayer
from .sao import SAOLayer

__all__ = ["HAG", "prepare_aggregators"]


def _block_diag_csr(
    blocks: Sequence[sp.csr_matrix | None], sizes: Sequence[int]
) -> sp.csr_matrix:
    """Block-diagonal CSR assembled by direct index concatenation.

    Equivalent to ``sp.block_diag(blocks, format="csr")`` for square CSR
    blocks — same indptr/indices/data, hence bit-identical downstream row
    reductions — but without the COO round-trip, and ``None`` entries stand
    in for all-zero blocks so callers never materialize empty matrices.
    """
    total = int(sum(sizes))
    indptr = np.zeros(total + 1, dtype=np.int64)
    indices_parts: list[np.ndarray] = []
    data_parts: list[np.ndarray] = []
    row = 0
    offset = 0
    nnz = 0
    for block, n in zip(blocks, sizes):
        if block is not None and block.nnz:
            indptr[row + 1 : row + n + 1] = nnz + block.indptr[1:]
            indices_parts.append(block.indices.astype(np.int64) + offset)
            data_parts.append(block.data)
            nnz += int(block.indptr[-1])
        else:
            indptr[row + 1 : row + n + 1] = nnz
        row += n
        offset += n
    indices = (
        np.concatenate(indices_parts)
        if indices_parts
        else np.empty(0, dtype=np.int64)
    )
    data = np.concatenate(data_parts) if data_parts else np.empty(0)
    return sp.csr_matrix((data, indices, indptr), shape=(total, total))


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

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def layer_states(
        self,
        x: Tensor,
        aggregators: Sequence[sp.csr_matrix],
        observer: Callable[[str], None] | None = None,
    ) -> tuple[Tensor, list[list[Tensor]]]:
        """Fused representation plus every tower's per-layer hidden states.

        ``states[t][k]`` is tower ``t``'s output after SAO layer ``k`` —
        the layer-``k`` aggregation state the lambda batch layer
        checkpoints (:mod:`repro.core.lambda_infer`).  The computation is
        exactly :meth:`embeddings`; the intermediate tensors are simply
        kept instead of discarded.

        ``observer`` (if given) is called with a stage name after each SAO
        layer (``"tower{t}.layer{k}"``) and after fusion (``"fused"``) —
        the lambda batch tier derives per-layer span timings from the call
        sequence.
        """
        if len(aggregators) != self.n_types:
            raise ValueError(
                f"expected {self.n_types} aggregators, got {len(aggregators)}"
            )
        type_embeddings: list[Tensor] = []
        states: list[list[Tensor]] = []
        for t, (tower, aggregator) in enumerate(zip(self.towers, aggregators)):
            h = x
            tower_states: list[Tensor] = []
            for k, layer in enumerate(tower):
                h = layer(h, aggregator)
                tower_states.append(h)
                if observer is not None:
                    observer(f"tower{t}.layer{k}")
            states.append(tower_states)
            type_embeddings.append(h)
        fused = self.cfo(type_embeddings) if self.cfo is not None else type_embeddings[0]
        if observer is not None:
            observer("fused")
        return fused, states

    def layer_states_rows(
        self,
        rows: np.ndarray,
        inputs_fn: Callable[[int, int, np.ndarray | None], np.ndarray],
        aggregators: Sequence[sp.csr_matrix],
        observer: Callable[[str], None] | None = None,
    ) -> tuple[Tensor, list[list[Tensor]]]:
        """:meth:`layer_states` restricted to ``rows`` of the output.

        The incremental rematerialization path: each aggregator is the
        *rectangular* slice ``A_mean[rows]`` of the full Eq. 6 aggregation
        matrix, and ``inputs_fn(t, k, fresh_prev)`` returns the **full**
        layer-``k`` input matrix for tower ``t`` — prior-state rows outside
        the cone, freshly computed rows (``fresh_prev``, aligned with
        ``rows``; ``None`` for ``k == 0``) inside it.  Because
        :meth:`SAOLayer.combine <repro.core.sao.SAOLayer.combine>` is
        row-local and a CSR row slice preserves each kept row's entries
        bit-for-bit, every ``spmm``/``combine`` here reproduces exactly the
        cone rows the full pass would compute (up to BLAS reduction order
        in the dense products, which is why untouched rows are *copied*
        from the prior state rather than recomputed).
        """
        if len(aggregators) != self.n_types:
            raise ValueError(
                f"expected {self.n_types} aggregators, got {len(aggregators)}"
            )
        type_embeddings: list[Tensor] = []
        states: list[list[Tensor]] = []
        for t, (tower, aggregator) in enumerate(zip(self.towers, aggregators)):
            fresh_prev: np.ndarray | None = None
            tower_states: list[Tensor] = []
            for k, layer in enumerate(tower):
                full_prev = inputs_fn(t, k, fresh_prev)
                h = layer.combine(
                    Tensor(full_prev[rows]),
                    nn.spmm(aggregator, Tensor(full_prev)),
                )
                tower_states.append(h)
                fresh_prev = h.numpy()
                if observer is not None:
                    observer(f"tower{t}.layer{k}")
            states.append(tower_states)
            type_embeddings.append(tower_states[-1])
        fused = self.cfo(type_embeddings) if self.cfo is not None else type_embeddings[0]
        if observer is not None:
            observer("fused")
        return fused, states

    def embeddings(
        self, x: Tensor, aggregators: Sequence[sp.csr_matrix]
    ) -> Tensor:
        """Fused node representation before the MLP head."""
        return self.layer_states(x, aggregators)[0]

    def head_proba(self, embedding: np.ndarray) -> np.ndarray:
        """Fraud probabilities from an already-fused node representation.

        The inference-only counterpart of ``head``: scores nodes whose
        fused embeddings were precomputed by a batch pass (the lambda
        batch layer's full-graph materialization) without re-running the
        towers.
        """
        with nn.no_grad():
            logits = self.head(Tensor(embedding)).flatten()
        return 1.0 / (1.0 + np.exp(-logits.numpy()))

    def forward(
        self, x: Tensor, aggregators: Sequence[sp.csr_matrix]
    ) -> Tensor:
        """Fraud logits, shape ``(n,)``."""
        return self.head(self.embeddings(x, aggregators)).flatten()

    def predict_proba(
        self, x: np.ndarray, aggregators: Sequence[sp.csr_matrix]
    ) -> np.ndarray:
        """Fraud probabilities for every node (no autograd recording)."""
        with nn.no_grad():
            logits = self.forward(Tensor(x), aggregators)
        return 1.0 / (1.0 + np.exp(-logits.numpy()))

    def predict_subgraph(
        self,
        subgraph: ComputationSubgraph,
        features: np.ndarray,
        edge_type_order: Sequence | None = None,
    ) -> float:
        """Inductive prediction: fraud probability of the subgraph's target.

        ``features`` holds one row per ``subgraph.nodes`` entry;
        ``edge_type_order`` fixes the adjacency ordering so it matches the
        towers the model was trained with.
        """
        if features.shape[0] != subgraph.num_nodes:
            raise ValueError("feature rows must align with subgraph nodes")
        if self.use_cfo:
            if edge_type_order is None:
                edge_type_order = sorted(subgraph.adjacency)
            n = subgraph.num_nodes
            empty = sp.csr_matrix((n, n))
            adjacencies = [
                subgraph.adjacency.get(btype, empty) for btype in edge_type_order
            ]
        else:
            adjacencies = [subgraph.merged()]
        aggregators = prepare_aggregators(adjacencies)
        return float(self.predict_proba(features, aggregators)[0])

    def predict_subgraphs(
        self,
        subgraphs: Sequence[ComputationSubgraph],
        features: Sequence[np.ndarray],
        edge_type_order: Sequence | None = None,
    ) -> list[float]:
        """Batched inductive prediction: one packed forward, bit-exact per request.

        ``features[i]`` holds one row per ``subgraphs[i].nodes`` entry.  The
        per-request node blocks are stacked row-wise, the per-type adjacencies
        become block-diagonal aggregators, and the whole batch runs through the
        same ``forward`` as :meth:`predict_subgraph` exactly once.  Aggregation,
        nonlinearities, softmax and the CFO's stacked 3-D matmuls are row-local,
        so they run genuinely packed; dense 2-D matmuls are evaluated per
        request block under :class:`repro.nn.row_blocks`, making each returned
        probability bit-for-bit the value :meth:`predict_subgraph` would
        compute for that subgraph alone.

        ``edge_type_order`` is required when the model uses CFO: the scalar
        path's per-subgraph default (``sorted(subgraph.adjacency)``) is not
        well defined for a shared packed pass.
        """
        if len(subgraphs) != len(features):
            raise ValueError("one feature matrix per subgraph is required")
        if not subgraphs:
            return []
        for subgraph, rows in zip(subgraphs, features):
            if rows.shape[0] != subgraph.num_nodes:
                raise ValueError("feature rows must align with subgraph nodes")
        sizes = [subgraph.num_nodes for subgraph in subgraphs]
        boundaries = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        packed = np.vstack(features)
        if self.use_cfo:
            if edge_type_order is None:
                raise ValueError(
                    "edge_type_order is required for batched CFO inference"
                )
            adjacencies = [
                _block_diag_csr(
                    [subgraph.adjacency.get(btype) for subgraph in subgraphs],
                    sizes,
                )
                for btype in edge_type_order
            ]
        else:
            adjacencies = [
                _block_diag_csr(
                    [subgraph.merged() for subgraph in subgraphs], sizes
                )
            ]
        aggregators = prepare_aggregators(adjacencies)
        with nn.row_blocks(boundaries):
            probabilities = self.predict_proba(packed, aggregators)
        return [float(p) for p in probabilities[boundaries[:-1]]]
