"""BehaviorNetwork storage tests: mutation, queries, TTL."""

from __future__ import annotations

import pytest

from repro.datagen import DAY, BehaviorType
from repro.network import BehaviorNetwork

DEV = BehaviorType.DEVICE_ID
IP = BehaviorType.IPV4


def small_bn() -> BehaviorNetwork:
    bn = BehaviorNetwork(ttl=10 * DAY)
    bn.add_weight(1, 2, DEV, 0.5, 100.0)
    bn.add_weight(2, 1, DEV, 0.25, 200.0)  # symmetric accumulate
    bn.add_weight(1, 3, IP, 1.0, 150.0)
    bn.add_node(9)
    return bn


class TestMutation:
    def test_weights_accumulate_symmetrically(self):
        bn = small_bn()
        assert bn.weight(1, 2, DEV) == pytest.approx(0.75)
        assert bn.weight(2, 1, DEV) == pytest.approx(0.75)

    def test_last_update_is_max(self):
        bn = small_bn()
        assert bn.edge(1, 2)[DEV].last_update == 200.0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            small_bn().add_weight(1, 1, DEV, 1.0, 0.0)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            small_bn().add_weight(1, 2, DEV, 0.0, 0.0)

    def test_invalid_ttl_rejected(self):
        with pytest.raises(ValueError):
            BehaviorNetwork(ttl=0.0)


class TestQueries:
    def test_membership_and_nodes(self):
        bn = small_bn()
        assert 9 in bn and 1 in bn and 7 not in bn
        assert set(bn.nodes()) == {1, 2, 3, 9}

    def test_counts(self):
        bn = small_bn()
        assert bn.num_nodes() == 4
        assert bn.num_edges() == 2  # typed edges
        assert bn.num_pairs() == 2

    def test_neighbors_by_type(self):
        bn = small_bn()
        assert set(bn.neighbors(1)) == {2, 3}
        assert bn.neighbors(1, DEV) == [2]
        assert bn.neighbors(1, IP) == [3]
        assert bn.neighbors(42) == []

    def test_degrees(self):
        bn = small_bn()
        assert bn.degree(1) == 2
        assert bn.degree(1, DEV) == 1
        assert bn.weighted_degree(1) == pytest.approx(1.75)
        assert bn.weighted_degree(1, IP) == pytest.approx(1.0)

    def test_edge_types(self):
        assert small_bn().edge_types() == {DEV, IP}

    def test_iter_edges_filtered(self):
        bn = small_bn()
        edges = list(bn.iter_edges(DEV))
        assert len(edges) == 1
        u, v, btype, record = edges[0]
        assert (u, v, btype) == (1, 2, DEV)
        assert record.weight == pytest.approx(0.75)


class TestTTL:
    def test_expire_removes_stale_types(self):
        bn = small_bn()
        removed = bn.expire_edges(now=150.0 + 10 * DAY + 1)
        # DEV edge updated at t=200 survives; IP edge at t=150 expires.
        assert removed == 1
        assert bn.weight(1, 3, IP) == 0.0
        assert bn.weight(1, 2, DEV) > 0.0
        assert 3 not in bn.neighbors(1)

    def test_expire_keeps_fresh(self):
        bn = small_bn()
        assert bn.expire_edges(now=300.0) == 0
        assert bn.num_edges() == 2


class TestEdgeTypesMemo:
    """``edge_types()`` is memoized on ``version``; a scan is the contract."""

    @staticmethod
    def scan(bn) -> set:
        return {btype for _, _, btype, _ in bn.iter_edges()}

    def test_matches_scan_through_mutations(self):
        bn = BehaviorNetwork(ttl=10 * DAY)
        assert bn.edge_types() == set()
        bn.add_weights([1, 2], [2, 3], [DEV, DEV], [1.0, 1.0], [0.0, 0.0])
        assert bn.edge_types() == self.scan(bn) == {DEV}
        bn.add_weight(1, 3, IP, 1.0, 5 * DAY)
        assert bn.edge_types() == self.scan(bn) == {DEV, IP}
        assert bn.expire_edges(11 * DAY) == 2  # the last DEV edges go
        assert bn.edge_types() == self.scan(bn) == {IP}
        assert bn.expire_edges(16 * DAY) == 1
        assert bn.edge_types() == self.scan(bn) == set()

    def test_one_scan_per_version_and_callers_get_their_own_set(self):
        bn = small_bn()
        first = bn.edge_types()
        memo = bn._edge_types
        first.clear()
        assert bn.edge_types() == {DEV, IP}
        assert bn._edge_types is memo
        bn.add_weight(4, 5, DEV, 1.0, 0.0)
        bn.edge_types()
        assert bn._edge_types is not memo
