"""The hash partition and the one read index it partitions.

:func:`shard_of` is the stable ``uid -> shard`` routing a sharded serving
tier derives its owner map from; :class:`ShardIndex` is the network's one
memoized flat view, read whole or partitioned.  The partitioned reads are
pinned in ``tests/test_system/test_sampler_fuzz.py`` (every tier against
the dict walk, shards down) and ``tests/test_network/test_index_patch.py``
(the patched index against the every-pair walk).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import BehaviorType
from repro.network import BehaviorNetwork, shard_of

pytestmark = pytest.mark.sharding

TYPES = (BehaviorType.DEVICE_ID, BehaviorType.IPV4, BehaviorType.WIFI_MAC)
SHARD_COUNTS = (1, 2, 4, 8)


def contribution_batches(rng, n_users=200, n_batches=6, rows=400):
    """A mixed-type mutation stream with plenty of duplicate pairs."""
    batches = []
    for b in range(n_batches):
        u = rng.integers(0, n_users, size=rows)
        off = rng.integers(0, n_users - 1, size=rows)
        v = (u + 1 + off) % n_users
        codes = rng.integers(0, len(TYPES), size=rows)
        weights = rng.random(rows) + 0.1
        stamps = float(b) * 3600.0
        batches.append((u, v, codes, weights, stamps))
    return batches


def build_network(batches, ttl=None) -> BehaviorNetwork:
    """A network fed ``batches``."""
    bn = BehaviorNetwork() if ttl is None else BehaviorNetwork(ttl=ttl)
    for u, v, codes, weights, stamps in batches:
        bn.add_weights(u, v, codes, weights, stamps, btype_table=TYPES)
    return bn


class TestShardOf:
    def test_stable_and_in_range(self):
        uids = np.arange(0, 5000, dtype=np.int64)
        for n in SHARD_COUNTS:
            owners = shard_of(uids, n)
            assert owners.min() >= 0 and owners.max() < n
            np.testing.assert_array_equal(owners, shard_of(uids, n))

    def test_roughly_balanced(self):
        owners = shard_of(np.arange(0, 40000, dtype=np.int64), 8)
        counts = np.bincount(owners, minlength=8)
        assert counts.max() / counts.mean() < 1.1

    def test_single_shard_owns_everything(self):
        assert np.all(shard_of(np.arange(100, dtype=np.int64), 1) == 0)


class TestReadIndex:
    """The one memoized flat view: what it holds and when it is rebuilt."""

    def test_snapshot_equals_a_straight_edge_walk(self, rng):
        """``to_arrays()`` against the dicts it was flattened from, per type."""
        bn = build_network(contribution_batches(rng), ttl=2.5 * 3600.0)
        assert bn.expire_edges(5.0 * 3600.0) > 0
        snapshot = bn.to_arrays()
        assert snapshot is bn.index().snapshot()
        assert snapshot.version == bn.version
        assert snapshot.node_ids.tolist() == sorted(bn.nodes())
        assert set(snapshot.edges) == bn.edge_types()
        for btype, arrays in snapshot.edges.items():
            walk = list(bn.iter_edges(btype))
            assert snapshot.node_ids[arrays.rows].tolist() == [e[0] for e in walk]
            assert snapshot.node_ids[arrays.cols].tolist() == [e[1] for e in walk]
            assert arrays.weights.tolist() == [e[3].weight for e in walk]
            assert arrays.last_update.tolist() == [e[3].last_update for e in walk]

    def test_index_memoized_until_the_next_effective_mutation(self, rng):
        bn = build_network(contribution_batches(rng, n_batches=2), ttl=3600.0)
        index = bn.index()
        assert index.version == bn.version
        bn.add_node(int(index.node_ids[0]))  # already registered
        assert bn.expire_edges(now=0.0) == 0  # nothing old enough
        assert bn.index() is index
        bn.add_weight(0, 1, TYPES[0], 1.0, 3600.0)
        rebuilt = bn.index()
        assert rebuilt is not index and rebuilt.version == bn.version
        assert bn.index() is rebuilt

    def test_index_bytes_equal_across_shard_counts(self, rng):
        """No byte of the index depends on a shard count: reading it through
        a router at {1, 2, 4, 8} shards, one of them down, leaves the payload
        and the selection it serves as they were."""
        from repro.system import FaultInjector, ShardRouter

        bn = build_network(contribution_batches(rng))
        index = bn.index()
        arrays, meta = index.to_payload()
        want = {name: array.tobytes() for name, array in arrays.items()}
        selection = [part.tobytes() for part in index.selection(5)]
        for n_shards in SHARD_COUNTS:
            faults = FaultInjector()
            faults.add_crash(f"bn_shard{n_shards - 1}", 0.0, 10.0)
            router = ShardRouter(bn, n_shards, faults=faults)
            _, stats, _ = router.sample_batch([0, 7, 31, 100, 150], fanout=5, now=1.0)
            assert stats.partial
            assert bn.index() is index and index.to_payload()[1] == meta
            got = {name: array.tobytes() for name, array in index.to_payload()[0].items()}
            assert got == want
            assert [part.tobytes() for part in index.selection(5)] == selection

    def test_one_uid_to_position_lookup(self, rng):
        """Snapshot, sampler and full-graph sweep share ``snapshot.positions_of``."""
        from repro.network.snapshot import positions_of

        ids = np.array([2, 5, 7, 9], dtype=np.int64)
        got = positions_of(ids, [9, 2, 4, 2, 100, -1])  # unknown and duplicate uids
        assert got.dtype == np.int64 and got.tolist() == [3, 0, -1, 0, -1, -1]
        assert positions_of(ids, 7).shape == () and int(positions_of(ids, 7)) == 2
        empty = positions_of(np.empty(0, dtype=np.int64), [1, 2])
        assert empty.dtype == np.int64 and empty.tolist() == [-1, -1]
        assert positions_of(ids, []).shape == (0,)

        bn = build_network(contribution_batches(rng, n_batches=1))
        uids = np.array([3, 10**9, 3, 0], dtype=np.int64)
        want = positions_of(bn.index().node_ids, uids)
        np.testing.assert_array_equal(bn.to_arrays().positions_of(uids), want)
