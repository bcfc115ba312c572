"""SampledGraph: the version-pinned global selection CSR (lambda full-graph).

Pinned contracts:

* the read index's selection (``ShardIndex.selection``, which the graph
  carries) equals the dict walk's per-``(node, type)`` ranking
  (``tests/oracles/sampling.py``), types in order — same neighbours, same
  order — at every fanout including ``None``, on uids that are nothing
  like positions (negative, sparse, above 2**31), so reading a position
  as a uid, or a uid as a position, fails;
* the graph built off a :class:`ShardedBehaviorNetwork`'s merged index is
  byte-identical across shard counts {1, 2, 4, 8} to the single-network
  build (the sweep's inputs cannot depend on the partitioning);
* per-target BFS over the CSR reproduces the dict walk's node discovery
  order and its typed adjacency bit for bit — pinned with every other
  sampling tier in ``test_system/test_sampler_tiers.py``;
* ``reverse_reachable`` is a sound cone: it contains every node whose
  forward selection BFS meets a seed within the hop budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import BehaviorType
from repro.network import build_sampled_graph
from repro.network.sampling import _bfs_positions

from tests.oracles.sampling import _select_neighbors

from .test_sharding import SHARD_COUNTS, build_pair, contribution_batches

pytestmark = pytest.mark.sharding

FANOUTS = (None, 3, 8)


def far_uids(rng, n: int) -> np.ndarray:
    """``n`` distinct uids, shuffled: negative, sparse below 2**31, and above."""
    thirds = [n // 3, n // 3, n - 2 * (n // 3)]
    negative = -1 - rng.choice(10**6, thirds[0], replace=False)
    sparse = 7919 * rng.choice(2**31 // 7919, thirds[1], replace=False)
    large = 2**31 + rng.choice(2**40, thirds[2], replace=False)
    return rng.permutation(np.concatenate([negative, sparse, large]))


@pytest.fixture(scope="module")
def graph_pairs():
    rng = np.random.default_rng(99)
    uids = far_uids(rng, 150)
    batches = [
        (uids[u], uids[v], codes, weights, stamps)
        for u, v, codes, weights, stamps in contribution_batches(
            rng, n_users=150, n_batches=4, rows=300
        )
    ]
    return {n: build_pair(batches, n) for n in SHARD_COUNTS}


def selection_rows(index, fanout) -> list[list[int]]:
    """``index.selection(fanout)``, one uid list per node."""
    indptr, nbr = index.selection(fanout)
    return [row.tolist() for row in np.split(index.node_ids[nbr], indptr[1:-1])]


def oracle_rows(bn, index, fanout) -> list[list[int]]:
    """The dict walk's ranking of every node, types in the index's order."""
    return [
        [v for btype in index.types for v in _select_neighbors(bn, uid, btype, fanout, None)]
        for uid in index.node_ids.tolist()
    ]


class TestSelectionParity:
    @pytest.mark.parametrize("fanout", FANOUTS)
    def test_rows_equal_scalar_selection(self, graph_pairs, fanout):
        bn, sharded = graph_pairs[1]
        index = bn.index()
        assert index.node_ids.min() < 0 < 2**31 < index.node_ids.max()
        assert tuple(index.types) == tuple(sorted(bn.edge_types(), key=lambda t: t.value))
        want = oracle_rows(bn, index, fanout)
        assert selection_rows(index, fanout) == want
        assert selection_rows(sharded.index(), fanout) == want
        sampled = build_sampled_graph(bn, fanout)
        assert sampled.version == int(bn.version) and sampled.types == index.types
        assert sampled.all_indptr is index.selection(fanout)[0]
        assert sampled.all_nbr is index.selection(fanout)[1]

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
        selection = (sampled.all_indptr, sampled.all_nbr)
        for pos in range(sampled.num_nodes):
            positions, _ = _bfs_positions(selection, sampled.node_ids, pos, hops)
            if seed_set & set(int(p) for p in positions):
                assert cone[pos], pos
