"""SampledGraph: the version-pinned global selection CSR (lambda full-graph).

Pinned contracts:

* per-``(node, type)`` selection rows equal the memoized scalar
  :func:`repro.network.sampling._select_neighbors` ranking — same
  neighbours, same order — at every fanout including ``None``;
* the graph built off a :class:`ShardedBehaviorNetwork`'s merged index is
  byte-identical across shard counts {1, 2, 4, 8} to the single-network
  build (the sweep's inputs cannot depend on the partitioning);
* per-target BFS over the CSR reproduces the scalar sampler's node
  discovery order and its typed adjacency bit for bit — pinned with every
  other sampling tier in ``test_system/test_sampler_tiers.py``;
* ``reverse_reachable`` is a sound cone: it contains every node whose
  forward selection BFS meets a seed within the hop budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import BehaviorType
from repro.network import (
    BehaviorNetwork,
    ShardedBehaviorNetwork,
    build_sampled_graph,
)
from repro.network.sampling import _select_neighbors

from .test_sharding import SHARD_COUNTS, build_pair, contribution_batches

pytestmark = pytest.mark.sharding

FANOUTS = (None, 3, 8)


@pytest.fixture(scope="module")
def graph_pairs():
    rng = np.random.default_rng(99)
    batches = contribution_batches(rng, n_users=150, n_batches=4, rows=300)
    return {n: build_pair(batches, n) for n in SHARD_COUNTS}


class TestSelectionParity:
    @pytest.mark.parametrize("fanout", FANOUTS)
    def test_rows_equal_scalar_selection(self, graph_pairs, fanout):
        bn, _ = graph_pairs[1]
        sampled = build_sampled_graph(bn, fanout)
        assert sampled.version == int(bn.version)
        assert tuple(sampled.types) == tuple(
            sorted(bn.edge_types(), key=lambda t: t.value)
        )
        for btype in sampled.types:
            for pos, uid in enumerate(sampled.node_ids):
                assert sampled.selected(pos, btype) == _select_neighbors(
                    bn, int(uid), btype, fanout, None
                )

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_bitexact_across_shard_counts(self, graph_pairs, n_shards):
        bn, sharded = graph_pairs[n_shards]
        want = build_sampled_graph(bn, 5)
        got = build_sampled_graph(sharded, 5)
        want_arrays, want_meta = want.to_payload()
        got_arrays, got_meta = got.to_payload()
        assert got_meta == want_meta
        assert got_arrays.keys() == want_arrays.keys()
        for name in want_arrays:
            assert got_arrays[name].tobytes() == want_arrays[name].tobytes(), name


class TestBFSAndInducedParity:
    def test_missing_target_position(self, graph_pairs):
        bn, _ = graph_pairs[1]
        sampled = build_sampled_graph(bn, 5)
        assert sampled.position_of(10**9) == -1
        np.testing.assert_array_equal(
            sampled.positions_of(np.array([10**9], dtype=np.int64)), [-1]
        )


class TestReverseReachable:
    def test_cone_is_sound(self, graph_pairs):
        """Every node whose forward BFS meets a seed lies in the cone."""
        bn, _ = graph_pairs[1]
        sampled = build_sampled_graph(bn, 4)
        rng = np.random.default_rng(11)
        seeds = rng.choice(sampled.num_nodes, size=5, replace=False)
        hops = 2
        cone = np.zeros(sampled.num_nodes, dtype=bool)
        cone[sampled.reverse_reachable(seeds.astype(np.int64), hops)] = True
        seed_set = set(int(s) for s in seeds)
        allowed = sampled.allowed_mask(None)
        for pos in range(sampled.num_nodes):
            positions, _ = sampled.subgraph_positions(pos, hops, allowed)
            if seed_set & set(int(p) for p in positions):
                assert cone[pos], pos
