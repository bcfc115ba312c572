"""The patched read index against the every-pair walk it replaced.

``index()`` builds a version's index from the previous one: rows of pairs
no write touched are copied, and only the pairs in the network's change
log are re-read from the dicts.  Whatever the mix of writes between two
reads, the result must be the walk's, byte for byte, and so must what a
partitioned read induces with a shard down; and an index, once handed
out, never changes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import HOUR, BehaviorType
from repro.network import BehaviorNetwork, shard_of
from tests.oracles.read_index import full_walk

TYPES = (BehaviorType.DEVICE_ID, BehaviorType.IPV4, BehaviorType.WIFI_MAC)
#: carried only by the pairs the ``rare`` step writes, with old stamps, so it
#: appears and then vanishes with them.
RARE = BehaviorType.IMEI
TTL = 6 * HOUR
USERS = 40
#: users only the ``doom`` step connects: their pairs expire and come back.
DOOMED = range(100, 106)


def payload_bytes(index) -> dict:
    arrays, meta = index.to_payload()
    columns = {k: (a.dtype.str, a.shape, a.tobytes()) for k, a in arrays.items()}
    return {"meta": meta, **columns}


#: Read partitions: ``None`` reads the index whole; a shard count also
#: reads it with each one shard down.
SHARDINGS = (None, 1, 2, 4, 8)
STEPS = {"batch": 0.35, "scalar": 0.2, "node": 0.1, "expire": 0.15, "doom": 0.1, "rare": 0.1}


def network() -> BehaviorNetwork:
    return BehaviorNetwork(ttl=TTL)


def assert_read_matches_walk(net: BehaviorNetwork, n_shards: int | None = None) -> None:
    """The index is the walk's, its selection the dicts' neighbour lists,
    and with each one of ``n_shards`` shards down, the whole node set
    induces the walk's entries of the pairs whose ``lo`` a live shard owns."""
    index, walk = net.index(), full_walk(net)
    assert payload_bytes(index) == payload_bytes(walk)
    indptr, nbr = index.selection(None)  # every neighbour, type by type
    rows = np.split(index.node_ids[nbr], indptr[1:-1])
    assert [row.tolist() for row in rows] == [
        [v for btype in index.types for v in net.neighbors(uid, btype)]
        for uid in index.node_ids.tolist()
    ]
    owner = shard_of(index.node_ids, n_shards or 1)
    for dead in range(n_shards or 0):
        got = index.induced_entries(np.arange(index.num_nodes), owner != dead)
        kept = np.flatnonzero(owner[walk.pair_lo_pos] != dead)
        weights = walk.norm_weights[:, kept]
        code, column = (weights > 0.0).nonzero()
        pairs = kept[column]
        want = (walk.pair_lo_pos[pairs], walk.pair_hi_pos[pairs], weights[code, column], code)
        for got_part, want_part in zip(got, want, strict=True):
            assert got_part.tobytes() == want_part.tobytes()


def random_step(rng, net, now: float, fresh: list[int]) -> None:
    """One write."""
    op = rng.choice(list(STEPS), p=list(STEPS.values()))
    if op == "batch":
        rows = int(rng.integers(1, 30))
        u = rng.integers(0, USERS, rows)
        v = (u + 1 + rng.integers(0, USERS - 1, rows)) % USERS
        codes = rng.integers(0, len(TYPES), rows)
        weights = rng.random(rows) + 0.1
        stamps = now if rng.random() < 0.5 else now - rng.random(rows) * HOUR
        net.add_weights(u, v, codes, weights, stamps, btype_table=TYPES)
    elif op == "scalar":
        u, v = (int(x) for x in rng.choice(USERS, 2, replace=False))
        btype, weight = TYPES[int(rng.integers(len(TYPES)))], float(rng.random() + 0.1)
        net.add_weight(u, v, btype, weight, now)
    elif op == "node":
        fresh.append(1000 + len(fresh))
        net.add_node(fresh[-1])
    elif op == "expire":
        net.expire_edges(now)
    else:
        # Old stamps: these pairs (and RARE with them) expire at the next
        # sweep, and a later ``doom`` re-creates a doomed pair under a new tag.
        lo, hi = (DOOMED, 200) if op == "doom" else (range(USERS), 300)
        u = rng.choice(list(lo), 3)
        btype = RARE if op == "rare" else TYPES[0]
        net.add_weights(u, [hi] * 3, btype, [0.5] * 3, now - TTL + 0.25 * HOUR)


@pytest.mark.parametrize("seed", range(6))
def test_random_writes_and_reads_equal_the_walk(seed):
    rng = np.random.default_rng(seed)
    net, fresh, now = network(), [], 10 * HOUR
    reads = 0
    for _ in range(120):
        now += float(rng.uniform(0.0, 0.5)) * HOUR
        random_step(rng, net, now, fresh)
        for n_shards in SHARDINGS:
            if rng.random() < 0.3:
                assert_read_matches_walk(net, n_shards)
                reads += 1
    assert_read_matches_walk(net, 8)
    assert reads > 100


@pytest.mark.parametrize("n_shards", SHARDINGS)
def test_pair_expired_and_recreated_between_two_reads(n_shards):
    """The pair keeps its endpoints but moves to its new creation place."""
    net = network()
    net.add_weights([1, 2, 3], [2, 3, 4], TYPES[0], [1.0, 1.0, 1.0], 0.0)
    net.add_weights([5, 1], [6, 4], TYPES[1], [1.0, 1.0], 4 * HOUR)
    before = net.index()
    assert before.pair_seq.tolist() == [0, 0, 0, 1, 1]
    assert net.expire_edges(7 * HOUR) == 3
    net.add_weight(2, 3, TYPES[1], 2.0, 7 * HOUR)  # re-created, new tag
    after = net.index()
    assert_read_matches_walk(net, n_shards)
    lo = after.node_ids[after.pair_lo_pos].tolist()
    hi = after.node_ids[after.pair_hi_pos].tolist()
    assert list(zip(lo, hi)) == [(1, 4), (5, 6), (2, 3)]
    assert after.pair_seq.tolist() == [1, 1, 2]


@pytest.mark.parametrize("n_shards", SHARDINGS)
def test_type_appears_then_vanishes(n_shards):
    net = network()
    net.add_weights([1, 2], [2, 3], TYPES[0], [1.0, 1.0], 4 * HOUR)
    net.index()
    net.add_weights([1, 3], [3, 4], RARE, [1.0, 1.0], 0.0)
    assert RARE in net.index().types
    assert net.expire_edges(7 * HOUR) == 2
    index = net.index()
    assert index.types == (TYPES[0],)
    assert_read_matches_walk(net, n_shards)


def test_node_only_write_keeps_every_row():
    bn = BehaviorNetwork(ttl=TTL)
    bn.add_weights([1, 2], [5, 7], TYPES[0], [1.0, 1.0], 0.0)
    first = bn.index()
    bn.add_node(3)  # shifts the positions of 5 and 7
    index = bn.index()
    assert index is not first and index.node_ids.tolist() == [1, 2, 3, 5, 7]
    assert payload_bytes(index) == payload_bytes(full_walk(bn))


class TestTheLogIsBounded:
    def test_a_network_nobody_reads_logs_at_most_num_pairs(self):
        rng = np.random.default_rng(3)
        bn = BehaviorNetwork(ttl=TTL)
        for k in range(10):
            u = rng.integers(0, USERS, 50)
            bn.add_weights(u, (u + 1) % USERS, TYPES[0], np.ones(50), k * HOUR)
            assert len(bn._changed or ()) <= bn.num_pairs()
        assert bn._changed is None  # every pair was written: the log was dropped
        bn.add_weight(1, 2, TYPES[1], 1.0, 10 * HOUR)
        assert bn._changed is None  # and stays dropped until a read
        assert payload_bytes(bn.index()) == payload_bytes(full_walk(bn))
        assert bn._changed == set()


class TestIndexIsImmutable:
    def test_writing_into_handed_out_arrays_raises(self):
        bn = BehaviorNetwork(ttl=TTL)
        bn.add_weights([1, 2], [2, 3], TYPES[0], [1.0, 2.0], 0.0)
        index = bn.index()
        with pytest.raises(ValueError, match="read-only"):
            index.type_weights[TYPES[0]][0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            bn.to_arrays().edges[TYPES[0]].weights[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            index.nbr[:] = 0
        assert all(not a.flags.writeable for a in index.to_payload()[0].values())

    def test_an_index_handed_out_before_a_write_is_unchanged_after_the_next_build(self):
        net = network()
        net.add_weights([1, 2, 3], [2, 3, 4], TYPES[0], [1.0, 2.0, 3.0], 0.0)
        old = net.index()
        old_bytes, old_snapshot = payload_bytes(old), old.snapshot()
        snapshot_bytes = old_snapshot.edges[TYPES[0]].weights.tobytes()
        net.add_weights([1, 4], [2, 5], TYPES[0], [1.0, 1.0], HOUR)
        net.expire_edges(TTL + HOUR / 2)
        new = net.index()
        assert new is not old and payload_bytes(old) == old_bytes
        assert old.snapshot() is old_snapshot
        assert old_snapshot.edges[TYPES[0]].weights.tobytes() == snapshot_bytes
