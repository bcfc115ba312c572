"""The per-matrix scipy pipelines ``repro.nn.sparse``'s stacked kernels replaced.

Both are copied unchanged from the commit before the kernels landed
(``nn.sparse.symmetric_csr`` per edge type, ``core.sao.neighbor_mean_matrix``
per tower).  They are the definition of "right" for
:func:`~repro.nn.sparse.typed_symmetric_csr` and
:func:`~repro.nn.sparse.row_mean_csr`: equal ``indptr`` / ``indices`` /
``data`` including dtypes, hence equal ``A @ X`` bits.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


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
