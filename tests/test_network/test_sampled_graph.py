"""The sampled graph the full-graph sweep reads: the index's selection.

The lambda sweep (``repro.core.lambda_infer``) samples every target off
the read index of one BN version, as serving does.  Pinned contracts:

* the read index's selection (``ShardIndex.selection``) equals the dict
  walk's per-``(node, type)`` ranking (``tests/oracles/sampling.py``),
  types in order — same neighbours, same order — at every fanout
  including ``None``, on uids that are nothing like positions (negative,
  sparse, above 2**31), so reading a position as a uid, or a uid as a
  position, fails;
* the sweep and a sharded router read one index: serving it partitioned
  into {1, 2, 4, 8} shards, one of them down, changes none of the bytes
  the sweep reads (node ids, selection, pair table, normalized weights);
* per-target BFS over the selection reproduces the dict walk's node
  discovery order and its typed adjacency bit for bit — pinned with every
  other sampling tier in ``test_system/test_sampler_tiers.py``;
* the score cone is sound: it contains every node whose forward selection
  BFS meets a seed within the hop budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lambda_infer import _score_cone
from repro.network.sampling import _bfs_positions
from repro.network.snapshot import positions_of
from repro.system import FaultInjector, ShardRouter

from tests.oracles.sampling import _select_neighbors

from .test_sharding import SHARD_COUNTS, build_network, contribution_batches

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
def bn():
    rng = np.random.default_rng(99)
    uids = far_uids(rng, 150)
    batches = [
        (uids[u], uids[v], codes, weights, stamps)
        for u, v, codes, weights, stamps in contribution_batches(
            rng, n_users=150, n_batches=4, rows=300
        )
    ]
    return build_network(batches)


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
    def test_rows_equal_scalar_selection(self, bn, fanout):
        index = bn.index()
        assert index.node_ids.min() < 0 < 2**31 < index.node_ids.max()
        assert tuple(index.types) == tuple(sorted(bn.edge_types(), key=lambda t: t.value))
        want = oracle_rows(bn, index, fanout)
        assert selection_rows(index, fanout) == want
        # Ranked once per version: every pass over this index reads it.
        assert index.selection(fanout) is index.selection(fanout)


    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_bitexact_across_shard_counts(self, bn, n_shards):
        """The sweep and a sharded router read one index: serving it in
        ``n_shards`` partitions, one of them down, leaves every array the
        sweep reads byte for byte."""
        want = sweep_inputs(bn.index(), 5)
        faults = FaultInjector()
        faults.add_crash("bn_shard0", 0.0, 10.0)
        router = ShardRouter(bn, n_shards, faults=faults)
        router.sample_batch(bn.index().node_ids[:8].tolist(), fanout=5, now=1.0)
        got = sweep_inputs(bn.index(), 5)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name


def sweep_inputs(index, fanout) -> dict[str, np.ndarray]:
    """Every array the sweep reads off ``index``, by name."""
    indptr, nbr = index.selection(fanout)
    return {
        "node_ids": index.node_ids,
        "selection_indptr": indptr,
        "selection_nbr": nbr,
        "pair_lo_pos": index.pair_lo_pos,
        "pair_hi_pos": index.pair_hi_pos,
        "norm_weights": index.norm_weights,
    }


class TestBFSAndInducedParity:
    def test_missing_target_position(self, bn):
        """An unregistered target is one isolated row: position -1, a BFS
        that selects nothing, and no induced entry."""
        index = bn.index()
        (root,) = positions_of(index.node_ids, np.array([10**9], dtype=np.int64))
        assert root == -1
        positions, levels = _bfs_positions(index.selection(5), index.node_ids, np.array([root]), 2)
        assert positions.tolist() == [-1] and levels == [0, 1, 1, 1]
        assert all(len(part) == 0 for part in index.induced_entries(positions))


class TestReverseReachable:
    def test_cone_is_sound(self, bn):
        """Every node whose forward BFS meets a seed lies in the cone."""
        index = bn.index()
        rng = np.random.default_rng(11)
        seeds = rng.choice(index.num_nodes, size=5, replace=False)
        hops = 2
        selection = index.selection(4)
        cone = _score_cone(selection, seeds.astype(np.int64), hops)
        seed_set = set(int(s) for s in seeds)
        for pos in range(index.num_nodes):
            positions, _ = _bfs_positions(selection, index.node_ids, np.array([pos]), hops)
            if seed_set & set(int(p) for p in positions):
                assert cone[pos], pos
