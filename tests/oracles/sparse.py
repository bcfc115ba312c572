"""The per-matrix scipy pipelines ``repro.nn.sparse``'s stacked kernels replaced.

The first two are copied unchanged from the commit before the kernels
landed (one scipy COO build per edge type,
``core.sao.neighbor_mean_matrix`` per tower).  They are the definition of
"right" for :func:`~repro.nn.sparse.typed_symmetric_csr` and
:func:`~repro.nn.sparse.row_mean_csr`: equal ``indptr`` / ``indices`` /
``data`` including dtypes, hence equal ``A @ X`` bits.

:func:`block_diagonal` is ``StackedCSR.block_diagonal`` as it was while the
sampler built every request's type-stacked CSR and the forward packed the
stacks by slicing: the oracle of the pack the forward now builds from the
requests' entries in one sort (``HAG._request_aggregators``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.nn.sparse import StackedCSR, _indptr


def typed_symmetric_csr_oracle(iu, iv, w, type_code, n_types, n):
    """One scipy COO→CSR construction per edge type."""
    matrices = []
    for t in range(n_types):
        sel = np.asarray(type_code) == t
        tu, tv, tw = iu[sel], iv[sel], w[sel]
        matrices.append(
            sp.csr_matrix(
                (
                    np.concatenate([tw, tw]),
                    (np.concatenate([tu, tv]), np.concatenate([tv, tu])),
                ),
                shape=(n, n),
            )
        )
    return matrices


def row_mean_csr_oracle(matrices):
    """``(sp.diags(inv) @ csr).tocsr()`` per matrix."""
    result = []
    for matrix in matrices:
        csr = matrix.tocsr()
        degree = np.asarray(csr.sum(axis=1)).ravel()
        inv = np.divide(1.0, degree, out=np.zeros_like(degree), where=degree > 0)
        result.append((sp.diags(inv) @ csr).tocsr())
    return result


def assert_same_csr(actual: sp.csr_matrix, expected: sp.csr_matrix) -> None:
    """Equal structure, values and dtypes over the stored entries.

    ``csr_matmat`` allocates for the upper bound and drops zero products,
    so the oracle's arrays can run past ``indptr[-1]``; only the stored
    prefix is compared.
    """
    assert actual.shape == expected.shape
    nnz = int(expected.indptr[-1])
    assert int(actual.indptr[-1]) == nnz
    for name in ("indptr", "indices", "data"):
        a, e = getattr(actual, name), getattr(expected, name)
        if name != "indptr":
            a, e = a[:nnz], e[:nnz]
        assert a.dtype == e.dtype, (name, a.dtype, e.dtype)
        assert np.array_equal(a, e), name


def block_diagonal(
    stacks: Sequence[StackedCSR],
    blocks: Sequence[Sequence[int]],
    sizes: Sequence[int],
) -> StackedCSR:
    """Pack requests block-diagonally, one output block per tower.

    ``stacks[i]`` holds request ``i``'s ``(sizes[i], sizes[i])`` blocks
    and ``blocks[i][t]`` names the one that tower ``t`` reads (``-1``:
    none, an empty block).  Output block ``t`` is the ``(N, N)``
    block-diagonal matrix of the requests' choices, ``N = sum(sizes)``.
    A block's entries are contiguous in its stack, so the pack is a
    concatenation of slices — every row's entries in their stored
    order — and for one request it is the re-ordering to tower order.
    """
    towers = len(blocks[0])
    total = sum(sizes)
    no_entries = np.zeros(max(sizes, default=0), dtype=np.int64)
    data, indices, counts, shifts, lengths = [], [], [], [], []
    sources = []
    offset = 0
    for stack, n in zip(stacks, sizes):
        if any(shape != (n, n) for shape in stack.shapes):
            raise ValueError(f"adjacency blocks {stack.shapes} are not all ({n}, {n})")
        first_entry = stack.indptr[::n].tolist() if n else [0] * (len(stack.shapes) + 1)
        sources.append((stack, n, offset, first_entry, np.diff(stack.indptr)))
        offset += n
    for t in range(towers):
        for chosen, (stack, n, offset, first_entry, row_counts) in zip(blocks, sources):
            block = chosen[t]
            if block < 0:
                counts.append(no_entries[:n])
                continue
            lo, hi = first_entry[block], first_entry[block + 1]
            data.append(stack.data[lo:hi])
            indices.append(stack.indices[lo:hi])
            counts.append(row_counts[block * n : (block + 1) * n])
            shifts.append(offset)
            lengths.append(hi - lo)
    return StackedCSR(
        np.concatenate([np.empty(0), *data]),
        np.concatenate([np.empty(0, np.int64), *indices]) + np.repeat(shifts, lengths),
        _indptr(np.concatenate([no_entries[:0], *counts])),
        [(total, total)] * towers,
        all(stack.canonical for stack in stacks),
    )
