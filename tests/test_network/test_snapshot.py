"""CSR-native BN snapshot tests: layout, memoization, invalidation."""

from __future__ import annotations

import numpy as np

from repro.datagen import BehaviorType
from repro.network import BehaviorNetwork

DEV = BehaviorType.DEVICE_ID
WIFI = BehaviorType.WIFI_MAC


def small_bn() -> BehaviorNetwork:
    bn = BehaviorNetwork()
    bn.add_weight(5, 2, DEV, 1.0, 10.0)
    bn.add_weight(2, 5, DEV, 0.5, 20.0)  # accumulates onto the same edge
    bn.add_weight(2, 9, DEV, 2.0, 15.0)
    bn.add_weight(5, 9, WIFI, 3.0, 5.0)
    bn.add_node(7)  # isolated
    return bn


class TestLayout:
    def test_node_ids_sorted_and_complete(self):
        snapshot = small_bn().to_arrays()
        np.testing.assert_array_equal(snapshot.node_ids, [2, 5, 7, 9])

    def test_typed_edges_accumulate_weight_and_latest_timestamp(self):
        snapshot = small_bn().to_arrays()
        dev = snapshot.edges[DEV]
        assert dev.num_edges == 2
        pairs = {
            (int(snapshot.node_ids[r]), int(snapshot.node_ids[c])): (w, t)
            for r, c, w, t in zip(
                dev.rows, dev.cols, dev.weights, dev.last_update
            )
        }
        assert pairs[(2, 5)] == (1.5, 20.0)
        assert pairs[(2, 9)] == (2.0, 15.0)

    def test_num_edges_per_type_and_total(self):
        snapshot = small_bn().to_arrays()
        assert snapshot.num_edges(DEV) == 2
        assert snapshot.num_edges(WIFI) == 1
        assert snapshot.num_edges(BehaviorType.GPS) == 0
        assert snapshot.num_edges() == 3

    def test_positions_of_maps_ids_and_flags_unknown(self):
        snapshot = small_bn().to_arrays()
        np.testing.assert_array_equal(
            snapshot.positions_of(np.array([9, 2, 4])), [3, 0, -1]
        )

    def test_weighted_degrees_match_edge_sums(self):
        index = small_bn().index()
        degrees = index.degrees[index.types.index(DEV)]
        # node 2 touches (2,5) w=1.5 and (2,9) w=2.0; node 7 is isolated.
        np.testing.assert_allclose(degrees, [3.5, 1.5, 0.0, 2.0])

    def test_empty_network_snapshot(self):
        snapshot = BehaviorNetwork().to_arrays()
        assert snapshot.num_nodes == 0
        assert snapshot.num_edges() == 0
        np.testing.assert_array_equal(
            snapshot.positions_of(np.array([1, 2])), [-1, -1]
        )


class TestCaching:
    def test_repeated_export_returns_same_object(self):
        bn = small_bn()
        assert bn.to_arrays() is bn.to_arrays()

    def test_add_weight_invalidates(self):
        bn = small_bn()
        first = bn.to_arrays()
        bn.add_weight(2, 5, DEV, 1.0, 30.0)
        second = bn.to_arrays()
        assert second is not first
        pairs = dict(zip(zip(second.edges[DEV].rows, second.edges[DEV].cols),
                         second.edges[DEV].weights))
        assert pairs[(0, 1)] == 2.5  # positions of users 2 and 5

    def test_new_node_invalidates_but_known_node_does_not(self):
        bn = small_bn()
        first = bn.to_arrays()
        bn.add_node(5)  # already registered: no version bump
        assert bn.to_arrays() is first
        bn.add_node(11)
        second = bn.to_arrays()
        assert second is not first
        assert 11 in second.node_ids

    def test_expire_edges_invalidates_only_when_something_expires(self):
        bn = BehaviorNetwork(ttl=100.0)
        bn.add_weight(1, 2, DEV, 1.0, 0.0)
        bn.add_weight(1, 3, DEV, 1.0, 500.0)
        first = bn.to_arrays()
        assert bn.expire_edges(now=50.0) == 0  # nothing is older than TTL
        assert bn.to_arrays() is first
        assert bn.expire_edges(now=200.0) == 1  # edge (1, 2) drops out
        second = bn.to_arrays()
        assert second is not first
        assert second.num_edges(DEV) == 1

    def test_snapshot_is_immune_to_later_mutation(self):
        bn = small_bn()
        first = bn.to_arrays()
        weights_before = first.edges[DEV].weights.copy()
        bn.add_weight(2, 5, DEV, 10.0, 40.0)
        bn.add_weight(3, 4, DEV, 1.0, 41.0)
        np.testing.assert_array_equal(first.edges[DEV].weights, weights_before)
        assert 3 not in first.node_ids
