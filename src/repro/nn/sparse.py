"""Differentiable sparse-dense products over ``scipy.sparse`` matrices.

GNN layers aggregate neighbourhoods as ``A @ H`` where ``A`` is a (typically
row-normalized) sparse adjacency matrix that is *constant* with respect to the
loss.  Only the dense operand therefore needs a gradient, which keeps the op
simple: ``d(A @ H)/dH = A^T @ grad``.

Two hot-path properties are guaranteed here (and pinned by tests via
:func:`transpose_conversion_count`):

* the CSR transpose is built *lazily*, inside the backward closure — a
  forward-only (``no_grad``) pass performs zero transpose conversions;
* a :class:`PreparedAggregator` memoizes its transpose, so a training run
  converts each aggregator at most once no matter how many layers, batches,
  or epochs reuse it.

The module is also the CSR toolbox of the BN→GNN path.  A pack of
requests' ``|R|`` typed adjacencies is one *type-stacked* CSR
(:class:`StackedCSR`) from the forward's first line to the last SAO layer:
the sampler hands over each request's typed entries, the forward shifts
them down the diagonal of their towers and builds the pack with one sort
(:meth:`StackedCSR.from_entries`), normalises it
(:meth:`StackedCSR.row_mean`) and multiplies it as one matrix
(:meth:`StackedCSR.matmul`).  :func:`stacked_symmetric_csr` is
``from_entries`` of both directions of undirected entries;
:func:`typed_symmetric_csr` and :func:`row_mean_csr` are ``split()`` of the
same builders, bit-identical to the per-matrix scipy pipelines frozen in
``tests/oracles/sparse.py`` — see "The request's adjacency pipeline" in
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np
import scipy.sparse as sp

# The kernel ``csr_matrix @ dense`` ends in.  Private to scipy: a release that
# moves it must fail this import, not take another summation order silently.
from scipy.sparse._sparsetools import csr_matvecs

from .tensor import Tensor, _blocked_matmul, _unbroadcast

__all__ = [
    "spmm",
    "spmm_affine",
    "PreparedAggregator",
    "as_csr",
    "csr_gather_rows",
    "csr_interleave",
    "csr_topk_rows",
    "StackedCSR",
    "stacked_symmetric_csr",
    "typed_symmetric_csr",
    "row_mean_csr",
    "sum_csr",
]


_INT32_MAX = np.iinfo(np.int32).max


def _indptr(counts: np.ndarray) -> np.ndarray:
    """CSR row pointers of rows holding ``counts[r]`` entries each."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.add.accumulate(counts, out=indptr[1:])
    return indptr


def _ragged_gather(
    starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(out_indptr, gidx)`` gathering ``lengths[k]`` entries from ``starts[k]``."""
    out_indptr = _indptr(lengths)
    total = int(out_indptr[-1])
    if not total:
        return out_indptr, np.empty(0, dtype=np.int64)
    gidx = (
        np.arange(total, dtype=np.int64)
        - np.repeat(out_indptr[:-1], lengths)
        + np.repeat(starts, lengths)
    )
    return out_indptr, gidx


def csr_gather_rows(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ragged row gather over a CSR ``indptr``: one vectorized slice-concat.

    Returns ``(out_indptr, gidx)`` where ``gidx`` indexes the CSR's value
    arrays so that ``values[gidx]`` is the concatenation of
    ``values[indptr[r]:indptr[r+1]]`` for every ``r`` in ``rows`` (row
    order preserved), and ``out_indptr`` is the matching per-row offset
    array.  This is the frontier-expansion primitive of the full-graph
    materialization path: it replaces a per-row Python loop with O(total
    gathered entries) numpy work.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    return _ragged_gather(starts, indptr[rows + 1] - starts)


@dataclass(slots=True)
class StackedCSR:
    """Several CSR matrices held as one: their rows stacked, their arrays shared.

    Block ``k`` is a ``shapes[k]`` matrix whose rows are the stacked rows
    ``bounds[k]:bounds[k + 1]``; ``data`` / ``indices`` / ``indptr`` are one
    CSR over all stacked rows, column numbers local to each block.  A
    pack's ``|R|`` typed adjacencies are built (:meth:`from_entries`),
    normalised (:meth:`row_mean`) and multiplied (:meth:`matmul`) in this
    form; :meth:`split` yields the per-block scipy matrices.
    ``canonical`` records that every row's columns are sorted and unique
    (what :meth:`from_entries` checked): :meth:`split` passes it on to
    scipy, and :meth:`row_mean` need not check it again.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shapes: list[tuple[int, int]]
    canonical: bool = False

    @property
    def bounds(self) -> np.ndarray:
        return np.cumsum([0] + [rows for rows, _ in self.shapes])

    @classmethod
    def from_matrices(cls, matrices: Sequence[sp.spmatrix]) -> "StackedCSR":
        """Stack scipy matrices by concatenation, stored order kept."""
        matrices = [as_csr(matrix) for matrix in matrices]
        if not matrices:
            return cls(np.empty(0), np.empty(0, np.int64), np.zeros(1, np.int64), [])
        return cls(
            np.concatenate([m.data[: m.indptr[-1]] for m in matrices]),
            np.concatenate([m.indices[: m.indptr[-1]] for m in matrices]),
            _indptr(np.concatenate([np.diff(m.indptr) for m in matrices])),
            [m.shape for m in matrices],
        )

    @classmethod
    def from_entries(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        type_code: np.ndarray,
        n_types: int,
        n: int,
    ) -> "StackedCSR":
        """``n_types`` ``(n, n)`` blocks, block ``type_code[k]`` holding
        ``data[k]`` at ``(rows[k], cols[k])``: canonical, built by one sort.

        The key ``(type * n + row) * n + col`` is sorted once and rows are
        counted by one ``bincount``, so every row's columns come out sorted.
        An ``(i, j)`` repeated within a block is rejected: scipy would sum
        it in an order it does not define.  Keys are therefore unique, so
        the order does not depend on the sort algorithm.  A request's typed
        adjacency (:func:`stacked_symmetric_csr`) and a pack's towers
        (``HAG``'s Eq. 6 aggregator, every request shifted down the
        diagonal) are both built here.
        """
        data = np.asarray(data)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        type_code = np.asarray(type_code, dtype=np.int64)
        if rows.ndim != 1 or not rows.shape == cols.shape == data.shape == type_code.shape:
            raise ValueError("rows, cols, data and type_code must be 1-D and of equal length")
        if len(rows) and not (
            0 <= min(rows.min(), cols.min()) and max(rows.max(), cols.max()) < n
        ):
            raise ValueError(f"node indices must lie in [0, {n})")
        if len(rows) and not 0 <= type_code.min() <= type_code.max() < n_types:
            raise ValueError(f"type_code must lie in [0, {n_types})")
        stacked_row = type_code * n + rows
        key = stacked_row * n + cols
        order = np.argsort(key)
        key = key[order]
        if (key[1:] == key[:-1]).any():
            raise ValueError("an (i, j) entry repeats within one edge type")
        return cls(
            data[order],
            cols[order],
            _indptr(np.bincount(stacked_row, minlength=n_types * n)),
            [(n, n)] * n_types,
            canonical=True,
        )

    def split(self) -> list[sp.csr_matrix]:
        """One scipy CSR per block, index dtype as scipy picks it."""
        sizes = [len(self.data), *(max(shape) for shape in self.shapes)]
        idx_dtype = sp.get_index_dtype(maxval=max(sizes))
        indices = self.indices.astype(idx_dtype, copy=False)
        indptr = self.indptr.astype(idx_dtype, copy=False)
        matrices, bounds = [], self.bounds
        for lo, hi, shape in zip(bounds[:-1], bounds[1:], self.shapes):
            start, stop = indptr[lo], indptr[hi]
            block = (self.data[start:stop], indices[start:stop], indptr[lo : hi + 1] - start)
            matrices.append(sp.csr_matrix(block, shape=shape))
            if self.canonical:
                matrices[-1].has_canonical_format = True
        return matrices

    def _columns(self, block_diagonal: bool) -> tuple[np.ndarray, int]:
        """Column numbers and width of all stacked rows taken as one matrix:
        the blocks one above the other (they must share a width), or down
        the diagonal."""
        widths = [cols for _, cols in self.shapes]
        if block_diagonal:
            first_col = np.cumsum(widths) - widths
            shift = np.repeat(first_col, np.diff(self.indptr[self.bounds]))
            return self.indices + shift, sum(widths)
        if len(set(widths)) > 1:
            raise ValueError(f"blocks of widths {widths} cannot share columns")
        return self.indices, max(widths, default=0)

    def matrix(self, block_diagonal: bool = False) -> sp.csr_matrix:
        """All stacked rows as one scipy CSR (see :meth:`_columns`), for a
        caller that wants the scipy object; a product is :meth:`matmul`."""
        indices, width = self._columns(block_diagonal)
        # handed over in the index dtype scipy would pick, it is not re-checked
        idx_dtype = np.int32 if max(len(self.data), width) <= _INT32_MAX else np.int64
        arrays = (self.data, indices.astype(idx_dtype), self.indptr.astype(idx_dtype))
        return sp.csr_matrix(arrays, shape=(len(self.indptr) - 1, width))

    def matmul(self, dense: np.ndarray, block_diagonal: bool = False) -> np.ndarray:
        """``matrix(block_diagonal) @ dense`` without the scipy object.

        ``csr_matvecs`` sums each row's stored entries in stored order
        whatever the other rows hold, so row ``bounds[k] + v`` of the product
        carries the bits of row ``v`` of block ``k``'s own product.
        """
        indices, width = self._columns(block_diagonal)
        if dense.ndim != 2 or dense.shape[0] != width:
            raise ValueError(f"dimension mismatch: {width} columns @ {dense.shape}")
        idx_dtype = np.result_type(indices, self.indptr)  # one index width for both
        indptr = self.indptr.astype(idx_dtype, copy=False)
        indices = indices.astype(idx_dtype, copy=False)
        data = self.data.astype(np.float64, copy=False)
        dense = np.ascontiguousarray(dense, dtype=np.float64)
        rows, n_vecs = len(indptr) - 1, dense.shape[1]
        out = np.zeros((rows, n_vecs))
        csr_matvecs(rows, width, n_vecs, indptr, indices, data, dense.ravel(), out.ravel())
        return out

    def row_mean(self) -> "StackedCSR":
        """``D^-1 A`` of every block in one pass (Eq. 6): the one row-normaliser.

        Row ``v`` holds ``a_vu / sum_u a_vu``; a row whose sum is not
        positive comes out empty.  Bit-identical — structure, values, hence
        the float summation order of every later ``A @ H`` — to the
        per-matrix scipy product ``diags(inv) @ csr`` it replaced, which
        written down is: row sums by ``np.add.reduceat`` at the non-empty
        rows' starts, each entry ``inv[row] * data``, zero products not
        stored, and every row's entries in **reversed** stored order
        (``csr_matmat`` emits its per-row list back to front).  Here each
        step runs once over the stacked arrays.  ``csr_matmat`` also summed
        a column repeated within a row; the stacked pass cannot, so that —
        and non-finite ``data`` — is a ``ValueError`` naming the block.
        """
        indptr, data, indices = self.indptr, self.data, self.indices
        starts, ends = indptr[:-1], indptr[1:]
        counts = ends - starts
        row = np.repeat(np.arange(len(counts)), counts)

        def reject(stacked_row: int, what: str) -> None:
            position = np.searchsorted(self.bounds, stacked_row, side="right") - 1
            raise ValueError(f"matrix {position}: {what}")

        finite = np.isfinite(data)
        if not finite.all():
            reject(row[~finite][0], "non-finite data")
        if not self.canonical:
            width = max(map(itemgetter(1), self.shapes), default=0)
            key = np.sort(row * width + indices)
            repeated = key[1:] == key[:-1]
            if repeated.any():
                reject(key[1:][repeated][0] // width, "a column repeats within a row")
        nonempty = counts > 0
        degree = np.zeros(len(counts), dtype=data.dtype)
        degree[nonempty] = np.add.reduceat(data, starts[nonempty])
        inv = np.divide(1.0, degree, out=np.zeros_like(degree), where=degree > 0)
        reverse = (starts + ends - 1)[row] - np.arange(len(row))
        data = (inv[row] * data)[reverse]
        stored = data != 0
        return StackedCSR(
            data[stored],
            indices[reverse][stored],
            _indptr(np.bincount(row[stored], minlength=len(counts))),
            self.shapes,
        )


def stacked_symmetric_csr(
    iu: np.ndarray,
    iv: np.ndarray,
    w: np.ndarray,
    type_code: np.ndarray,
    n_types: int,
    n: int,
) -> StackedCSR:
    """Every edge type's symmetric ``(n, n)`` CSR in one pass, kept stacked.

    Block ``t`` holds ``w[k]`` at ``(iu[k], iv[k])`` and ``(iv[k], iu[k])``
    for the entries with ``type_code == t``, duplicates summed:
    :meth:`StackedCSR.from_entries` of both directions of every entry, so
    a self-loop is a repeated entry.
    """
    w, iu, iv, type_code = map(np.asarray, (w, iu, iv, type_code))
    if iu.ndim != 1 or not iu.shape == iv.shape == w.shape == type_code.shape:
        raise ValueError("iu, iv, w and type_code must be 1-D and of equal length")
    return StackedCSR.from_entries(
        np.concatenate([iu, iv]),
        np.concatenate([iv, iu]),
        np.concatenate([w, w]),
        np.concatenate([type_code, type_code]),
        n_types,
        n,
    )


def typed_symmetric_csr(
    iu: np.ndarray,
    iv: np.ndarray,
    w: np.ndarray,
    type_code: np.ndarray,
    n_types: int,
    n: int,
) -> list[sp.csr_matrix]:
    """:func:`stacked_symmetric_csr` as one canonical scipy matrix per type."""
    return stacked_symmetric_csr(iu, iv, w, type_code, n_types, n).split()


def row_mean_csr(matrices: Sequence[sp.spmatrix]) -> list[sp.csr_matrix]:
    """:meth:`StackedCSR.row_mean` of scipy matrices, one result per matrix."""
    if not len(matrices):
        return []
    return StackedCSR.from_matrices(matrices).row_mean().split()


def sum_csr(matrices: Sequence[sp.spmatrix], n: int) -> sp.csr_matrix:
    """Entry-wise sum of ``(n, n)`` sparse matrices, added left to right.

    One COO construction over every matrix's entries.  The entries are
    handed to scipy already in ``(row, col)`` order through a *stable*
    sort, so a coordinate present in several matrices is summed in
    matrix order.  Left unsorted, scipy orders duplicates with an
    unstable per-row sort that it skips when the whole matrix happens to
    be in order — the float sum of three or more duplicates would then
    depend on which other rows share the matrix, and a block-diagonal
    pack of subgraphs would not reproduce each subgraph's own sum.
    """
    if not len(matrices):
        return sp.csr_matrix((n, n))
    coos = [matrix.tocoo() for matrix in matrices]
    row = np.concatenate([c.row for c in coos])
    col = np.concatenate([c.col for c in coos])
    data = np.concatenate([c.data for c in coos])
    order = np.lexsort((col, row))
    return sp.csr_matrix((data[order], (row[order], col[order])), shape=(n, n))


_TRANSPOSE_CONVERSIONS = 0


def csr_interleave(
    num_rows: int,
    indptrs: Sequence[np.ndarray],
    indices: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-type CSRs into one row-major, type-inner CSR.

    Row ``v`` of the output is type 0's row ``v``, then type 1's, etc.,
    each in its stored order — the candidate enumeration order of one
    frontier node in a typed BFS expansion, so one :func:`csr_gather_rows`
    per hop replays the whole frontier.  Built with a counting scatter:
    each entry's slot is ``row_base + type_offset + position``, no sort
    needed.
    """
    per_type_counts = [np.diff(p) for p in indptrs]
    total_counts = np.zeros(num_rows, dtype=np.int64)
    for counts in per_type_counts:
        total_counts += counts
    all_indptr = _indptr(total_counts)
    all_indices = np.empty(int(all_indptr[-1]), dtype=np.int64)
    type_offset = np.zeros(num_rows, dtype=np.int64)
    for counts, indptr, nbrs in zip(per_type_counts, indptrs, indices):
        if len(nbrs) == 0:
            continue
        row_base = np.repeat(all_indptr[:-1] + type_offset, counts)
        within = np.arange(len(nbrs), dtype=np.int64) - np.repeat(
            indptr[:-1], counts
        )
        all_indices[row_base + within] = nbrs
        type_offset += counts
    return all_indptr, all_indices


def csr_topk_rows(
    indptr: np.ndarray, weights: np.ndarray, fanout: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cap every CSR row at its ``fanout`` heaviest entries: the one
    deterministic fanout rank-select.

    Returns ``(out_indptr, order)`` where ``order`` indexes the CSR's value
    arrays: capped row ``v`` is ``values[order[out_indptr[v]:out_indptr[v+1]]]``.
    A row within the fanout keeps its stored order; an oversized row emits
    ``np.argsort(-w, kind="stable")[:fanout]`` — weight descending, ties by
    stored position — computed for all rows by one lexsort.  Each survivor's
    slot is ``out_indptr[row] + rank``, so the emission order is a counting
    scatter, not a second sort.
    """
    counts = np.diff(indptr)
    total = int(indptr[-1])
    rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    pos = np.arange(total, dtype=np.int64) - np.repeat(indptr[:-1], counts)
    # lexsort's primary key keeps each row's span in place, so the sorted
    # entry at span offset ``pos`` has within-row rank ``pos``.
    rank = np.empty(total, dtype=np.int64)
    rank[np.lexsort((pos, -weights, rows))] = pos
    key = np.where((counts > fanout)[rows], rank, pos)
    keep = np.flatnonzero(key < fanout)
    out_indptr = _indptr(np.minimum(counts, fanout))
    order = np.empty(len(keep), dtype=np.int64)
    order[out_indptr[rows[keep]] + key[keep]] = keep
    return out_indptr, order


def transpose_conversion_count() -> int:
    """How many CSR transpose conversions :func:`spmm` has performed."""
    return _TRANSPOSE_CONVERSIONS


def reset_transpose_conversion_count() -> None:
    """Reset the conversion counter (test isolation helper)."""
    global _TRANSPOSE_CONVERSIONS
    _TRANSPOSE_CONVERSIONS = 0


def _transpose_csr(csr: sp.csr_matrix) -> sp.csr_matrix:
    global _TRANSPOSE_CONVERSIONS
    _TRANSPOSE_CONVERSIONS += 1
    return csr.T.tocsr()


class PreparedAggregator:
    """A constant aggregation matrix with a memoized CSR transpose.

    Wraps the forward operand ``A`` (kept in CSR form) and builds ``A^T``
    once, on the first backward pass that needs it.  Pass instances of this
    class to :func:`spmm` (or any layer that calls it) wherever the same
    aggregator is reused across layers or steps.
    """

    __slots__ = ("matrix", "_transpose")

    def __init__(self, matrix: sp.spmatrix) -> None:
        if not sp.issparse(matrix):
            raise TypeError(f"expected a scipy sparse matrix, got {type(matrix)!r}")
        self.matrix = matrix.tocsr()
        self._transpose: sp.csr_matrix | None = None

    # -- matrix-like conveniences (tests and analysis code use these) ----
    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def tocsr(self) -> sp.csr_matrix:
        """The wrapped forward matrix, unchanged (no copy)."""
        return self.matrix

    def toarray(self) -> np.ndarray:
        """Densify the wrapped forward matrix."""
        return self.matrix.toarray()

    def __matmul__(self, other):
        return self.matrix @ other

    def __repr__(self) -> str:
        cached = "cached" if self._transpose is not None else "lazy"
        return f"PreparedAggregator(shape={self.shape}, nnz={self.nnz}, transpose={cached})"

    def transpose_csr(self) -> sp.csr_matrix:
        """``A^T`` in CSR form, built on first use and memoized."""
        if self._transpose is None:
            self._transpose = _transpose_csr(self.matrix)
        return self._transpose


def as_csr(matrix: sp.spmatrix | PreparedAggregator) -> sp.csr_matrix:
    """Unwrap a sparse matrix or :class:`PreparedAggregator` to plain CSR."""
    if isinstance(matrix, PreparedAggregator):
        return matrix.matrix
    if not sp.issparse(matrix):
        raise TypeError(f"expected a scipy sparse matrix, got {type(matrix)!r}")
    return matrix.tocsr()


def spmm(matrix: sp.spmatrix | PreparedAggregator, dense: Tensor) -> Tensor:
    """Multiply a constant sparse ``matrix`` by a differentiable ``dense`` tensor.

    Parameters
    ----------
    matrix:
        ``(m, n)`` scipy sparse matrix or :class:`PreparedAggregator`,
        treated as a constant.
    dense:
        ``(n, d)`` or ``(n,)`` tensor.

    Returns
    -------
    Tensor of shape ``(m, d)`` (or ``(m,)``).
    """
    if isinstance(matrix, PreparedAggregator):
        csr = matrix.matrix
        transpose = matrix.transpose_csr
    elif sp.issparse(matrix):
        csr = matrix.tocsr()

        def transpose() -> sp.csr_matrix:
            return _transpose_csr(csr)

    else:
        raise TypeError(f"expected a scipy sparse matrix, got {type(matrix)!r}")
    out_data = np.asarray(csr @ dense.data)

    def backward(g: np.ndarray) -> list[np.ndarray]:
        return [np.asarray(transpose() @ g)]

    return Tensor._make(out_data, (dense,), backward)


def spmm_affine(
    matrix: sp.spmatrix | PreparedAggregator,
    dense: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
) -> Tensor:
    """Fused ``(matrix @ dense) @ weight + bias`` as a single autograd node.

    The aggregate-then-affine pattern is every message-passing layer's hot
    path.  Fusing it collapses three graph nodes (spmm, matmul, add) into
    one: the aggregated activations ``A @ H`` exist only as a cached ndarray
    for the backward pass, never as an intermediate autograd tensor, and one
    backward closure emits all gradients directly.  Bit-exact with the
    unfused chain — the forward runs the identical op sequence (sparse
    product, ``_blocked_matmul``, broadcast add) and the chain's backward
    composes to exactly the formulas below.

    ``dense`` must be 2-D ``(n, d)``; ``weight`` is ``(d, k)``.
    """
    if isinstance(matrix, PreparedAggregator):
        csr = matrix.matrix
        transpose = matrix.transpose_csr
    elif sp.issparse(matrix):
        csr = matrix.tocsr()

        def transpose() -> sp.csr_matrix:
            return _transpose_csr(csr)

    else:
        raise TypeError(f"expected a scipy sparse matrix, got {type(matrix)!r}")
    if dense.ndim != 2 or weight.ndim != 2:
        raise ValueError("spmm_affine requires 2-D dense and weight tensors")
    agg = np.asarray(csr @ dense.data)
    out_data = _blocked_matmul(agg, weight.data)
    if bias is not None:
        out_data = out_data + bias.data
    w_shape, bias_shape = weight.shape, None if bias is None else bias.shape
    # Each factor is saved only for the other side's gradient.
    w = weight.data if dense.requires_grad else None
    agg = agg if weight.requires_grad else None

    def backward(g: np.ndarray) -> list[np.ndarray | None]:
        grads = [
            None if w is None else np.asarray(transpose() @ (g @ np.swapaxes(w, -1, -2))),
            None if agg is None else _unbroadcast(np.swapaxes(agg, -1, -2) @ g, w_shape),
        ]
        if bias_shape is not None:
            grads.append(_unbroadcast(g, bias_shape))
        return grads

    parents = (dense, weight) if bias is None else (dense, weight, bias)
    return Tensor._make(out_data, parents, backward)
