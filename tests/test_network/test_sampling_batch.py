"""Coalesced batch sampling parity: bit-for-bit the scalar subgraphs.

``scalar_subgraphs`` / ``assert_subgraph_equal`` are the oracle every
sampling tier is tested against (``test_system/test_sampler_tiers.py``,
the sharding and router suites): per-target scalar
:func:`computation_subgraph` of ``tests/oracles/sampling.py``, the
dict-walk sampler that shares no code with the index-reading batch
sampler.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import BehaviorType
from repro.network import BehaviorNetwork, computation_subgraphs_batch

from tests.oracles.sampling import computation_subgraph

DEV = BehaviorType.DEVICE_ID
IP = BehaviorType.IPV4


def ring_bn(rng: np.random.Generator, n_users: int = 60, n_hubs: int = 4):
    """Ring-heavy topology: many users share a few hub resources, so the
    per-request frontiers overlap — the case batching coalesces."""
    bn = BehaviorNetwork()
    for uid in range(n_users):
        for hub in rng.choice(n_hubs, size=2, replace=False):
            bn.add_weight(uid, 1000 + int(hub), DEV, float(rng.integers(1, 9)), 0.0)
        if rng.random() < 0.5:
            bn.add_weight(uid, 2000 + int(rng.integers(0, 10)), IP, 1.0, 0.0)
    return bn


def scalar_subgraphs(bn, targets, hops=2, fanout=25, allowed=None):
    """Per-target scalar oracle subgraphs."""
    return [
        computation_subgraph(bn, int(t), hops=hops, fanout=fanout, allowed=allowed)
        for t in targets
    ]


def assert_subgraph_equal(got, want):
    assert got.target == want.target
    assert got.nodes == want.nodes  # identical BFS order, not just same set
    assert set(got.adjacency) == set(want.adjacency)
    for btype, matrix in want.adjacency.items():
        other = got.adjacency[btype]
        assert other.shape == matrix.shape
        # CSR bits, not just values: same indptr/indices/data arrays.
        np.testing.assert_array_equal(other.indptr, matrix.indptr)
        np.testing.assert_array_equal(other.indices, matrix.indices)
        np.testing.assert_array_equal(other.data, matrix.data)


class TestBatchSamplingParity:
    @pytest.mark.parametrize("fanout", [3, 25, None])
    def test_bitexact_vs_scalar(self, rng, fanout):
        bn = ring_bn(rng)
        targets = [int(u) for u in rng.integers(0, 60, size=24)]
        batched, stats = computation_subgraphs_batch(
            bn.index(), targets, hops=2, fanout=fanout
        )
        assert len(batched) == len(targets)
        for target, subgraph in zip(targets, batched):
            assert_subgraph_equal(
                subgraph, computation_subgraph(bn, target, hops=2, fanout=fanout)
            )
        assert stats.requests == len(targets)

    def test_allowed_filter_parity(self, rng):
        bn = ring_bn(rng)
        allowed = set(range(0, 60, 2)) | set(range(1000, 1004))
        targets = [0, 2, 4, 0]  # duplicates included
        batched, _stats = computation_subgraphs_batch(
            bn.index(), targets, hops=2, fanout=5, allowed=allowed
        )
        for target, subgraph in zip(targets, batched):
            assert_subgraph_equal(
                subgraph,
                computation_subgraph(bn, target, hops=2, fanout=5, allowed=allowed),
            )

    def test_isolated_and_duplicate_targets(self, rng):
        bn = ring_bn(rng)
        bn.add_node(99999)
        batched, stats = computation_subgraphs_batch(
            bn.index(), [99999, 99999, 0], hops=2
        )
        assert batched[0].nodes == [99999]
        assert batched[1].nodes == [99999]
        assert batched[0] is not batched[1]
        assert stats.sampled_nodes == 2 + batched[2].num_nodes

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            computation_subgraphs_batch(BehaviorNetwork().index(), [0], hops=-1)

    def test_empty_batch(self):
        subgraphs, stats = computation_subgraphs_batch(BehaviorNetwork().index(), [])
        assert subgraphs == []
        assert stats.requests == 0
        assert stats.coalescing == 0.0


class TestCoalescingAccounting:
    def test_overlap_is_coalesced(self, rng):
        bn = ring_bn(rng)
        targets = list(range(20))  # dense hub overlap
        subgraphs, stats = computation_subgraphs_batch(
            bn.index(), targets, hops=2, fanout=25
        )
        assert stats.coalescing > 1.5  # shared hubs counted once
        assert stats.unique_nodes == len({u for sub in subgraphs for u in sub.nodes})
        assert stats.unique_nodes <= stats.sampled_nodes

    def test_disjoint_targets_do_not_coalesce(self):
        bn = BehaviorNetwork()
        bn.add_weight(0, 1, DEV, 1.0, 0.0)
        bn.add_weight(10, 11, DEV, 1.0, 0.0)
        _subgraphs, stats = computation_subgraphs_batch(bn.index(), [0, 10], hops=2)
        assert stats.coalescing == 1.0
