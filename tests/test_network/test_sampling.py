"""Computation-subgraph sampling tests (inductive inference input)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.datagen import BehaviorType
from repro.network import (
    BehaviorNetwork,
    ComputationSubgraph,
    computation_subgraphs_batch,
)

from tests.oracles.sampling import computation_subgraph

DEV = BehaviorType.DEVICE_ID
IP = BehaviorType.IPV4


def chain_bn() -> BehaviorNetwork:
    bn = BehaviorNetwork()
    bn.add_weight(0, 1, DEV, 1.0, 0.0)
    bn.add_weight(1, 2, DEV, 1.0, 0.0)
    bn.add_weight(2, 3, DEV, 1.0, 0.0)
    bn.add_weight(0, 4, IP, 2.0, 0.0)
    return bn


class TestSampling:
    def test_target_is_first_node(self):
        subgraph = computation_subgraph(chain_bn(), 1, hops=1)
        assert subgraph.nodes[0] == 1
        assert subgraph.target == 1

    def test_khop_closure(self):
        subgraph = computation_subgraph(chain_bn(), 0, hops=2)
        assert set(subgraph.nodes) == {0, 1, 2, 4}

    def test_zero_hops_is_singleton(self):
        subgraph = computation_subgraph(chain_bn(), 0, hops=0)
        assert subgraph.nodes == [0]

    def test_allowed_filter(self):
        subgraph = computation_subgraph(chain_bn(), 0, hops=2, allowed={1, 4})
        assert set(subgraph.nodes) == {0, 1, 4}

    def test_isolated_target_ok(self):
        bn = chain_bn()
        bn.add_node(99)
        subgraph = computation_subgraph(bn, 99, hops=2)
        assert subgraph.nodes == [99]
        assert subgraph.num_nodes == 1

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            computation_subgraph(chain_bn(), 0, hops=-1)

    def test_adjacency_indices_align_with_nodes(self):
        subgraph = computation_subgraph(chain_bn(), 0, hops=1)
        index = {uid: i for i, uid in enumerate(subgraph.nodes)}
        dev = subgraph.adjacency[DEV]
        assert dev[index[0], index[1]] > 0

    def test_fanout_caps_neighbors(self):
        bn = BehaviorNetwork()
        for v in range(1, 12):
            bn.add_weight(0, v, DEV, float(v), 0.0)
        subgraph = computation_subgraph(bn, 0, hops=1, fanout=3)
        # Top-3 by weight kept.
        assert set(subgraph.nodes) == {0, 11, 10, 9}

    def test_weighted_sampling_with_rng(self):
        bn = BehaviorNetwork()
        for v in range(1, 12):
            bn.add_weight(0, v, DEV, 1.0, 0.0)
        subgraph = computation_subgraph(
            bn, 0, hops=1, fanout=3, rng=np.random.default_rng(0)
        )
        assert subgraph.num_nodes == 4

    def test_merged_sums_types(self):
        subgraph = computation_subgraph(chain_bn(), 0, hops=1)
        merged = subgraph.merged().toarray()
        typed_sum = sum(m.toarray() for m in subgraph.adjacency.values())
        np.testing.assert_allclose(merged, typed_sum)


class TestComputationSubgraph:
    def test_num_nodes(self):
        sg = ComputationSubgraph(target=5, nodes=[5, 6, 7])
        assert sg.num_nodes == 3


class TestSamplingCostIsLocal:
    def test_a_request_allocates_for_its_subgraph_not_for_the_network(self):
        """Union rows are found through a position lookup every call reuses
        and resets: no array sized by the network is allocated per call (a
        200k-node ``np.full`` alone peaks at 1.6 MB)."""
        bn = BehaviorNetwork()
        for uid in range(3, 200_003):
            bn.add_node(uid)
        for u, v in ((0, 1), (0, 2), (1, 2)):
            bn.add_weight(u, v, DEV, 1.0, 0.0)
        index = bn.index()
        computation_subgraphs_batch(index, [0])  # the index's memos are built
        tracemalloc.start()
        try:
            (subgraph,), _ = computation_subgraphs_batch(index, [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(subgraph.nodes) == [0, 1, 2]
        assert subgraph.adjacency[DEV].nnz == 6
        assert peak < 64 * 1024, peak
