"""Hash-partitioned BN parity: the pinned sharding bit-exactness suite.

Every test here compares a :class:`ShardedBehaviorNetwork` against the
plain single-network :class:`BehaviorNetwork` fed the *same* mutation
stream, and requires bit-for-bit identity — same node order, same
per-type edge order, same weights and timestamps in the merged export,
and sampled subgraphs off the merged index (node lists and CSR bits)
identical to the scalar dict-walk sampler on the plain network at every
shard count.  The sweep covers shard counts {1, 2, 4, 8}, shuffled ingest
orderings, facade construction from an existing network, and TTL expiry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import BehaviorType
from repro.network import (
    BehaviorNetwork,
    ShardedBehaviorNetwork,
    computation_subgraphs_batch,
    shard_of,
)

from .test_sampling_batch import assert_subgraph_equal, scalar_subgraphs

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


def build_pair(batches, n_shards, ttl=None):
    """Feed the same batches to an unsharded BN and an ``n_shards`` facade."""
    kwargs = {} if ttl is None else {"ttl": ttl}
    bn = BehaviorNetwork(**kwargs)
    sharded = ShardedBehaviorNetwork(n_shards, **kwargs)
    for u, v, codes, weights, stamps in batches:
        bn.add_weights(u, v, codes, weights, stamps, btype_table=TYPES)
        sharded.add_weights(u, v, codes, weights, stamps, btype_table=TYPES)
    return bn, sharded


def assert_export_bitexact(bn: BehaviorNetwork, sharded: ShardedBehaviorNetwork):
    """Merged snapshot equality: node order, per-type edge order, bits."""
    want, got = bn.to_arrays(), sharded.to_arrays()
    np.testing.assert_array_equal(got.node_ids, want.node_ids)
    assert set(got.edges) == set(want.edges)
    for btype, arrays in want.edges.items():
        other = got.edges[btype]
        np.testing.assert_array_equal(other.rows, arrays.rows)
        np.testing.assert_array_equal(other.cols, arrays.cols)
        np.testing.assert_array_equal(other.weights, arrays.weights)
        np.testing.assert_array_equal(other.last_update, arrays.last_update)


def assert_sampling_bitexact(bn, sharded, targets, fanout=5):
    """Frontier sampling off the merged index equals the scalar oracle."""
    got, stats = computation_subgraphs_batch(
        sharded.index(), targets, hops=2, fanout=fanout
    )
    want = scalar_subgraphs(bn, targets, hops=2, fanout=fanout)
    for want_sub, got_sub in zip(want, got, strict=True):
        assert_subgraph_equal(got_sub, want_sub)
    assert stats.requests == len(targets)
    assert stats.sampled_nodes == sum(len(sub.nodes) for sub in want)
    assert stats.unique_nodes == len({uid for sub in want for uid in sub.nodes})
    assert stats.partial == ()


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


class TestShardedParity:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_export_and_sampling_bitexact(self, rng, n_shards):
        batches = contribution_batches(rng)
        bn, sharded = build_pair(batches, n_shards)
        assert bn.num_edges() == sharded.num_edges()
        assert sorted(bn.nodes()) == sorted(sharded.nodes())
        assert_export_bitexact(bn, sharded)
        targets = [int(t) for t in rng.integers(0, 200, size=24)]
        assert_sampling_bitexact(bn, sharded, targets)

    @pytest.mark.parametrize("n_shards", (2, 4))
    def test_shuffled_ingest_orderings(self, rng, n_shards):
        """Any row order fed identically to both sides stays bit-exact."""
        base = contribution_batches(rng, n_batches=3)
        for shuffle_seed in (0, 1):
            shuffler = np.random.default_rng(shuffle_seed)
            batches = []
            for u, v, codes, weights, stamps in base:
                order = shuffler.permutation(len(u))
                batches.append((u[order], v[order], codes[order], weights[order], stamps))
            bn, sharded = build_pair(batches, n_shards)
            assert_export_bitexact(bn, sharded)
            assert_sampling_bitexact(bn, sharded, [0, 7, 31, 100])

    def test_query_surface_matches(self, rng):
        bn, sharded = build_pair(contribution_batches(rng, n_batches=2), 4)
        some = sorted(bn.nodes())[:20]
        for uid in some:
            assert sharded.degree(uid) == bn.degree(uid)
            for btype in TYPES:
                assert sharded.degree(uid, btype) == bn.degree(uid, btype)
            assert (uid in sharded) == (uid in bn)
        assert sharded.edge_types() == bn.edge_types()

    def test_route_stats_drain(self, rng):
        _bn, sharded = build_pair(contribution_batches(rng, n_batches=2), 2)
        stats = sharded.drain_route_stats()
        assert stats["batches"] == 2
        assert stats["rows"] == 800
        assert sum(stats["shard_rows"]) == 800
        empty = sharded.drain_route_stats()
        assert empty["batches"] == empty["rows"] == 0


class TestRebalance:
    def test_from_network_bitexact(self, rng):
        batches = contribution_batches(rng)
        bn = BehaviorNetwork()
        for u, v, codes, weights, stamps in batches:
            bn.add_weights(u, v, codes, weights, stamps, btype_table=TYPES)
        sharded = ShardedBehaviorNetwork.from_network(bn, 4)
        assert_export_bitexact(bn, sharded)
        assert_sampling_bitexact(bn, sharded, [1, 5, 50, 150])


class TestShardedTTL:
    def test_expiry_parity(self, rng):
        ttl = 2.5 * 3600.0
        batches = contribution_batches(rng, n_batches=5)
        bn, sharded = build_pair(batches, 4, ttl=ttl)
        now = 5.0 * 3600.0
        removed = bn.expire_edges(now)
        removed_sharded = sharded.expire_edges(now)
        assert removed == removed_sharded
        assert removed > 0
        assert_export_bitexact(bn, sharded)
        assert_sampling_bitexact(bn, sharded, [2, 11, 42])

    def test_index_version_tracks_barriers(self, rng):
        sharded = ShardedBehaviorNetwork(4)
        v0 = sharded.version
        batches = contribution_batches(rng, n_batches=1)
        u, v, codes, weights, stamps = batches[0]
        sharded.add_weights(u, v, codes, weights, stamps, btype_table=TYPES)
        assert sharded.version == v0 + 1  # one barrier per batch
        index = sharded.index()
        assert index.version == sharded.version
        assert sharded.index() is index  # memoized until the next barrier


class TestReadIndex:
    """The one memoized flat view: what it holds and when it is rebuilt."""

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_snapshot_equals_a_straight_edge_walk(self, rng, n_shards):
        """``to_arrays()`` against the dicts it was flattened from, per type."""
        bn, sharded = build_pair(contribution_batches(rng), n_shards, ttl=2.5 * 3600.0)
        assert bn.expire_edges(5.0 * 3600.0) == sharded.expire_edges(5.0 * 3600.0) > 0
        for network in (bn, sharded):
            snapshot = network.to_arrays()
            assert snapshot is network.index().snapshot()
            assert snapshot.version == network.version
            assert snapshot.node_ids.tolist() == sorted(network.nodes())
            assert set(snapshot.edges) == network.edge_types()
            for btype, arrays in snapshot.edges.items():
                walk = list(network.iter_edges(btype))
                assert snapshot.node_ids[arrays.rows].tolist() == [e[0] for e in walk]
                assert snapshot.node_ids[arrays.cols].tolist() == [e[1] for e in walk]
                assert arrays.weights.tolist() == [e[3].weight for e in walk]
                assert arrays.last_update.tolist() == [e[3].last_update for e in walk]

    def test_index_memoized_until_the_next_effective_mutation(self, rng):
        bn, _ = build_pair(contribution_batches(rng, n_batches=2), 1, ttl=3600.0)
        index = bn.index()
        assert index.version == bn.version and index.n_shards == 1
        bn.add_node(int(index.node_ids[0]))  # already registered
        assert bn.expire_edges(now=0.0) == 0  # nothing old enough
        assert bn.index() is index
        bn.add_weight(0, 1, TYPES[0], 1.0, 3600.0)
        rebuilt = bn.index()
        assert rebuilt is not index and rebuilt.version == bn.version
        assert bn.index() is rebuilt

    def test_index_bytes_equal_across_shard_counts(self, rng):
        """Everything but the per-shard blocks is partition-independent, and
        the blocks together list every node's neighbours in creation order."""
        batches = contribution_batches(rng)
        bn, _ = build_pair(batches, 1)
        want, want_meta = bn.index().to_payload()
        for n_shards in SHARD_COUNTS:
            index = build_pair(batches, n_shards)[1].index()
            got, got_meta = index.to_payload()
            assert got_meta == {**want_meta, "n_shards": n_shards}
            for name, array in want.items():
                if name.startswith("blk") or name == "owner_of_pos":
                    continue
                assert got[name].tobytes() == array.tobytes(), name
            indptr, nbr = index.selection(None)  # every neighbour, type by type
            rows = np.split(index.node_ids[nbr], indptr[1:-1])
            assert [row.tolist() for row in rows] == [
                [v for btype in index.types for v in bn.neighbors(uid, btype)]
                for uid in index.node_ids.tolist()
            ]

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

        bn, _ = build_pair(contribution_batches(rng, n_batches=1), 1)
        uids = np.array([3, 10**9, 3, 0], dtype=np.int64)
        want = positions_of(bn.index().node_ids, uids)
        np.testing.assert_array_equal(bn.to_arrays().positions_of(uids), want)
