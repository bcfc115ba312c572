"""Adjacency export tests."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datagen import BehaviorType
from repro.network import (
    BehaviorNetwork,
    row_normalize,
    typed_adjacency,
)

DEV = BehaviorType.DEVICE_ID
IP = BehaviorType.IPV4


def bn_fixture() -> BehaviorNetwork:
    bn = BehaviorNetwork()
    bn.add_weight(10, 20, DEV, 1.0, 0.0)
    bn.add_weight(20, 30, DEV, 2.0, 0.0)
    bn.add_weight(10, 30, IP, 4.0, 0.0)
    return bn


class TestTypedAdjacency:
    def test_shapes_and_symmetry(self):
        nodes = [10, 20, 30]
        typed = typed_adjacency(bn_fixture(), nodes)
        assert set(typed) == {DEV, IP}
        for matrix in typed.values():
            assert matrix.shape == (3, 3)
            dense = matrix.toarray()
            np.testing.assert_allclose(dense, dense.T)

    def test_normalization_uses_full_graph_degrees(self):
        """Degrees come from the whole BN even when exporting a subset."""
        bn = bn_fixture()
        full = typed_adjacency(bn, [10, 20, 30])[DEV][0, 1]
        subset = typed_adjacency(bn, [10, 20])[DEV][0, 1]
        assert subset == pytest.approx(full)

    def test_nodes_outside_graph_are_isolated(self):
        typed = typed_adjacency(bn_fixture(), [10, 99])
        assert typed[DEV].nnz == 0

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            typed_adjacency(bn_fixture(), [10, 10])

    def test_normalized_formula(self):
        # DEV: deg(10)=1, deg(20)=3, deg(30)=2.
        typed = typed_adjacency(bn_fixture(), [10, 20, 30])
        assert typed[DEV][0, 1] == pytest.approx(1.0 / np.sqrt(1.0 * 3.0))
        assert typed[DEV][1, 2] == pytest.approx(2.0 / np.sqrt(3.0 * 2.0))


class TestNormalizers:
    def test_row_normalize_rows_sum_to_one(self):
        matrix = sp.csr_matrix(np.array([[0.0, 2.0], [4.0, 4.0]]))
        normalized = row_normalize(matrix).toarray()
        np.testing.assert_allclose(normalized.sum(axis=1), [1.0, 1.0])

    def test_row_normalize_empty_row_stays_zero(self):
        matrix = sp.csr_matrix((2, 2))
        np.testing.assert_allclose(row_normalize(matrix).toarray(), 0.0)
