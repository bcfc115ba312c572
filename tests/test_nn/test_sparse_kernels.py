"""The stacked CSR kernels against the scipy pipelines they replaced.

``typed_symmetric_csr`` and ``row_mean_csr`` promise the *bits* of the
per-matrix scipy constructions frozen in ``tests/oracles/sparse.py``:
``indptr`` / ``indices`` / ``data`` with their dtypes, and therefore
``A @ X``.  Inputs are drawn by hypothesis and cover a type with no
entries, rows with no entries, ``n = 1``, rows of degree zero, int32 and
int64 index inputs, unsorted indices, a block-diagonal pack, and one
matrix large enough for ``reduceat``'s blocked pairwise sum.
``StackedCSR.matmul`` promises the bits of ``matrix() @ dense``; it reaches
them through scipy's private ``csr_matvecs``, imported at module import
(here and in ``repro.nn.sparse``) so that a scipy that moved the kernel
fails loudly — there is no fallback branch.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse._sparsetools import csr_matvecs  # noqa: F401  (see the docstring)

from repro.nn.sparse import StackedCSR, row_mean_csr, typed_symmetric_csr
from tests.oracles.sparse import (
    assert_same_csr,
    block_diagonal,
    row_mean_csr_oracle,
    typed_symmetric_csr_oracle,
)


def typed_entries(seed, n, n_types, density, index_dtype=np.int64):
    """Duplicate-free typed edges: random orientation, types interleaved.

    Every third type is left empty, and a sparse draw leaves rows empty.
    """
    rng = np.random.default_rng(seed)
    parts = []
    for t in range(n_types):
        if t % 3 == 2:
            continue
        u, v = np.nonzero(np.triu(rng.random((n, n)) < density, 1))
        flip = rng.random(len(u)) < 0.5
        parts.append((np.where(flip, v, u), np.where(flip, u, v), np.full(len(u), t)))
    iu, iv, codes = (
        np.concatenate([p[k] for p in parts]) if parts else np.empty(0, np.int64)
        for k in range(3)
    )
    order = rng.permutation(len(iu))
    weights = rng.uniform(0.05, 3.0, size=len(iu))
    return (
        iu[order].astype(index_dtype), iv[order].astype(index_dtype),
        weights, codes[order], n_types, n,
    )


def assert_same_product(actual, expected, seed=0):
    x = np.random.default_rng(seed).standard_normal((expected.shape[1], 3))
    assert np.array_equal(actual @ x, expected @ x)


graphs = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 14),
    n_types=st.integers(1, 8),
    density=st.floats(0.0, 1.0),
)


class TestTypedSymmetricCsr:
    @settings(max_examples=60, deadline=None)
    @given(**graphs, index_dtype=st.sampled_from([np.int32, np.int64]))
    def test_bits_of_per_type_scipy_build(self, seed, n, n_types, density, index_dtype):
        args = typed_entries(seed, n, n_types, density, index_dtype)
        built = typed_symmetric_csr(*args)
        assert len(built) == n_types
        for actual, expected in zip(built, typed_symmetric_csr_oracle(*args)):
            assert_same_csr(actual, expected)
            assert_same_product(actual, expected, seed)
            assert actual.has_canonical_format

    def test_no_types_and_no_nodes(self):
        none = np.empty(0, np.int64)
        assert typed_symmetric_csr(none, none, np.empty(0), none, 0, 5) == []
        (only,) = typed_symmetric_csr(none, none, np.empty(0), none, 1, 0)
        assert only.shape == (0, 0)

    def test_rejects_type_code_out_of_range(self):
        with pytest.raises(ValueError, match=r"type_code must lie in \[0, 2\)"):
            typed_symmetric_csr([0], [1], [1.0], [2], 2, 3)
        with pytest.raises(ValueError, match="type_code"):
            typed_symmetric_csr([0], [1], [1.0], [-1], 2, 3)

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            typed_symmetric_csr([0, 1], [1], [1.0], [0], 1, 3)
        with pytest.raises(ValueError, match="equal length"):
            typed_symmetric_csr([0], [1], [1.0, 2.0], [0], 1, 3)

    def test_rejects_index_out_of_range(self):
        with pytest.raises(ValueError, match=r"node indices must lie in \[0, 3\)"):
            typed_symmetric_csr([0], [3], [1.0], [0], 1, 3)
        with pytest.raises(ValueError, match="node indices"):
            typed_symmetric_csr([-1], [1], [1.0], [0], 1, 3)

    def test_rejects_repeated_entry_and_self_loop(self):
        with pytest.raises(ValueError, match="repeats within one edge type"):
            typed_symmetric_csr([0, 1], [1, 0], [1.0, 1.0], [0, 0], 1, 3)
        with pytest.raises(ValueError, match="repeats"):
            typed_symmetric_csr([2], [2], [1.0], [0], 1, 3)
        # the same pair under two types is two edges, not a repeat
        typed_symmetric_csr([0, 0], [1, 1], [1.0, 1.0], [0, 1], 2, 3)


def with_int64_indices(matrix):
    out = matrix.copy()
    out.indices = out.indices.astype(np.int64)
    out.indptr = out.indptr.astype(np.int64)
    return out


def assert_normalised_like_oracle(matrices, seed=0):
    for actual, expected in zip(row_mean_csr(matrices), row_mean_csr_oracle(matrices)):
        assert_same_csr(actual, expected)
        assert_same_product(actual, expected, seed)


class TestRowMeanCsr:
    @settings(max_examples=60, deadline=None)
    @given(**graphs)
    def test_bits_of_per_matrix_scipy_product(self, seed, n, n_types, density):
        matrices = typed_symmetric_csr(*typed_entries(seed, n, n_types, density))
        assert_normalised_like_oracle(matrices, seed)
        assert_normalised_like_oracle([with_int64_indices(m) for m in matrices], seed)
        # the product's rows are stored back to front: unsorted input
        unsorted = row_mean_csr(matrices)
        assert_normalised_like_oracle(unsorted, seed)

    @settings(max_examples=40, deadline=None)
    @given(**graphs)
    def test_degree_zero_rows_and_zero_entries(self, seed, n, n_types, density):
        """Row sum <= 0 => ``inv`` 0 => the row is stored empty, and a zero
        product inside a live row is not stored either."""
        rng = np.random.default_rng(seed)
        matrices = typed_symmetric_csr(*typed_entries(seed, n, n_types, density))
        for matrix in matrices:
            dead = rng.random(n) < 0.3
            row = np.repeat(np.arange(n), np.diff(matrix.indptr))
            matrix.data[dead[row]] *= rng.choice([0.0, -1.0])
            matrix.data[rng.random(matrix.nnz) < 0.2] = 0.0
        assert_normalised_like_oracle(matrices, seed)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 1.0))
    def test_block_diagonal_pack_of_eight(self, seed, density):
        """The ``predict_subgraphs`` shape: 8 subgraphs packed per type."""
        rng = np.random.default_rng(seed)
        sizes = [int(s) for s in rng.integers(1, 9, size=8)]
        per_request = [
            typed_symmetric_csr(*typed_entries(seed + k, n, 3, density))
            for k, n in enumerate(sizes)
        ]
        stacks = [StackedCSR.from_matrices(matrices) for matrices in per_request]
        packed = block_diagonal(stacks, [range(3)] * 8, sizes).split()
        assert_normalised_like_oracle(packed, seed)
        # ... and each request's block of the pack is its own normalisation
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        for t, aggregator in enumerate(row_mean_csr(packed)):
            for k, alone in enumerate(row_mean_csr([r[t] for r in per_request])):
                lo, hi = offsets[k], offsets[k + 1]
                block = aggregator[lo:hi, lo:hi]
                assert np.array_equal(block.toarray(), alone.toarray())

    def test_rectangular_and_mixed_shapes(self):
        matrices = [
            sp.random(5, 9, density=0.5, random_state=1, format="csr"),
            sp.random(7, 2, density=0.5, random_state=2, format="csr"),
            sp.csr_matrix((3, 4)),
        ]
        assert_normalised_like_oracle(matrices)

    def test_no_matrices(self):
        assert row_mean_csr([]) == []

    def test_rejects_dense_input(self):
        with pytest.raises(TypeError):
            row_mean_csr([np.eye(3)])

    def test_rejects_non_finite_data_naming_the_matrix(self):
        good = sp.random(4, 4, density=0.6, random_state=0, format="csr")
        for poison in (np.nan, np.inf):
            bad = good.copy()
            bad.data[-1] = poison
            with pytest.raises(ValueError, match="matrix 2: non-finite data"):
                row_mean_csr([good, good, bad])

    def test_rejects_repeated_column_naming_the_matrix(self):
        good = sp.random(4, 4, density=0.6, random_state=0, format="csr")
        repeated = sp.csr_matrix(
            (np.ones(3), np.array([2, 0, 2]), np.array([0, 0, 3, 3])), shape=(3, 4)
        )
        with pytest.raises(ValueError, match="matrix 1: a column repeats within a row"):
            row_mean_csr([good, repeated, good])


def test_million_entry_matrix():
    """``typed_adjacency`` scale: 50k rows, 1M stored entries, hub rows far
    past ``reduceat``'s 128-element pairwise block."""
    rng = np.random.default_rng(11)
    n, pairs = 50_000, 520_000
    u = rng.integers(0, n, size=pairs)
    v = rng.integers(0, n, size=pairs)
    u[:40_000] = rng.integers(0, 4, size=40_000)  # four hubs
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    _, first = np.unique(lo * n + hi, return_index=True)
    first = first[lo[first] != hi[first]]
    iu, iv = u[first], v[first]
    args = (iu, iv, rng.uniform(0.05, 3.0, size=len(iu)), np.ones(len(iu), np.int64), 2, n)
    built = typed_symmetric_csr(*args)
    expected = typed_symmetric_csr_oracle(*args)
    assert built[1].nnz >= 1_000_000 and np.diff(built[1].indptr).max() > 1_000
    for actual, want in zip(built, expected):
        assert_same_csr(actual, want)
    for actual, want in zip(row_mean_csr(built), row_mean_csr_oracle(expected)):
        assert_same_csr(actual, want)
        assert_same_product(actual, want)


class TestStackedProduct:
    """``StackedCSR.matmul`` carries the bits of ``matrix() @ dense``: the
    request's two sparse products without a scipy object."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        n_blocks=st.integers(1, 6),
        density=st.floats(0.0, 1.0),
        index_dtype=st.sampled_from([np.int32, np.int64]),
        block_diagonal=st.booleans(),
        strided=st.booleans(),
    )
    def test_bits_of_the_scipy_product(
        self, seed, n, n_blocks, density, index_dtype, block_diagonal, strided
    ):
        """Empty blocks (every third type), empty rows, one block, both
        index widths — mixed with the int64 ``indptr`` too — and a
        non-contiguous right-hand side."""
        matrices = typed_symmetric_csr(*typed_entries(seed, n, n_blocks, density))
        stacked = StackedCSR.from_matrices(matrices).row_mean()
        stacked.indices = stacked.indices.astype(index_dtype)
        rows = n * n_blocks if block_diagonal else n
        dense = np.random.default_rng(seed).standard_normal((rows, 10))
        dense = dense[:, ::2] if strided else dense[:, :5]
        assert rows == 1 or not dense.flags.c_contiguous
        product = stacked.matmul(dense, block_diagonal=block_diagonal)
        expected = stacked.matrix(block_diagonal=block_diagonal) @ dense
        assert product.dtype == expected.dtype and product.shape == expected.shape
        assert np.array_equal(product, expected)
        assert np.array_equal(dense, np.array(dense))  # the operand is not written

    def test_no_blocks_and_no_columns(self):
        empty = StackedCSR.from_matrices([])
        assert empty.matmul(np.empty((0, 3))).shape == (0, 3)
        blank = StackedCSR.from_matrices([sp.csr_matrix((4, 4))] * 2)
        assert np.array_equal(blank.matmul(np.ones((4, 0))), np.empty((8, 0)))
        assert np.array_equal(blank.matmul(np.ones((8, 2)), block_diagonal=True), np.zeros((8, 2)))

    @pytest.mark.parametrize("block_diagonal", [False, True])
    def test_width_mismatch_raises_as_scipy_did(self, block_diagonal):
        stacked = StackedCSR.from_matrices(
            [sp.random(4, 4, density=0.5, random_state=k, format="csr") for k in range(3)]
        )
        wrong = np.ones((12 if not block_diagonal else 4, 2))
        with pytest.raises(ValueError, match="dimension mismatch"):
            stacked.matrix(block_diagonal=block_diagonal) @ wrong
        with pytest.raises(ValueError, match="dimension mismatch"):
            stacked.matmul(wrong, block_diagonal=block_diagonal)
        with pytest.raises(ValueError, match="dimension mismatch"):
            stacked.matmul(np.ones(4), block_diagonal=False)  # a vector is not a block

    def test_mixed_widths_cannot_share_columns(self):
        ragged = StackedCSR.from_matrices([sp.csr_matrix((2, 3)), sp.csr_matrix((2, 5))])
        with pytest.raises(ValueError, match="cannot share columns"):
            ragged.matmul(np.ones((5, 1)))
        assert ragged.matmul(np.ones((8, 1)), block_diagonal=True).shape == (4, 1)
