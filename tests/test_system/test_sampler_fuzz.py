"""Random BNs x fanouts x ``allowed`` x dead shards: every tier against the oracle.

The array BFS over the read index's selection (what every serving tier
runs) must give what the dict walk of ``tests/oracles/sampling.py`` gives:
the same node order and the same entry bits, for every target of a batch.
Hypothesis draws the network (uids far from any position: negative, sparse
and above 2**31; few distinct weights, so rankings tie), the batch
(duplicates and an unregistered uid included), ``hops``, ``fanout``, an
``allowed`` set and the shards that are down; the partition of the one
network into {1, 2, 4, 8} shards is the input the router reads it with.

Shards down are the contract of partial serving, spelled out here on top
of the dict walk: a dead shard's nodes select nothing; a dead shard that
some walk of the batch tried to expand loses, for the whole batch, the
adjacency entries whose ``lo`` endpoint it owns; and a request is partial
when it expanded a dead shard's node or holds a node of a shard that lost
its entries.

The full-graph sweep hands the same inducer one target's BFS-ordered
positions at a time, ``-1`` standing for an unregistered uid; that input
is drawn here too, against the dense inducer of the oracle.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import computation_subgraphs_batch, sharding
from repro.network.sampling import ComputationSubgraph, _bfs_positions
from repro.network.sharding import shard_of
from repro.network.snapshot import positions_of
from repro.system import FaultInjector, ShardRouter

from tests.oracles.sampling import _induced_entries, computation_subgraph
from tests.test_network.test_sampling_batch import assert_subgraph_equal
from tests.test_network.test_sharding import SHARD_COUNTS, build_network, contribution_batches

pytestmark = pytest.mark.sharding

#: where drawn uids come from: negative, sparse below 2**31, and above it.
UID_POOL = (-(2**35), -7, -1, 0, 2, 7919 * 9973, 2**31 - 1, 2**31, 2**31 + 5, 2**40 + 3)


@st.composite
def batches(draw):
    """A network's uids and its contribution batches."""
    uids = draw(
        st.lists(
            st.one_of(st.sampled_from(UID_POOL), st.integers(-(2**45), 2**45)),
            min_size=2,
            max_size=24,
            unique=True,
        )
    )
    index = st.integers(0, len(uids) - 1)
    out = []
    for stamp in range(draw(st.integers(1, 3))):
        rows = draw(st.lists(st.tuples(index, index), min_size=1, max_size=40))
        rows = [(u, v) for u, v in rows if u != v]
        if not rows:
            continue
        u, v = (np.array([uids[i] for i in side], dtype=np.int64) for side in zip(*rows))
        codes = np.array(draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows))))
        weights = np.array(
            draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=len(rows), max_size=len(rows)))
        )
        out.append((u, v, codes, weights, float(stamp)))
    return uids, out


def oracle_batch(bn, targets, hops, fanout, allowed, dead, n_shards):
    """``(subgraphs, partial)`` of the dict walk with ``dead`` shards down."""

    class Down:
        """``bn`` with the dead shards' nodes selecting nothing."""

        def neighbors(self, uid, btype):
            return [] if int(shard_of([uid], n_shards)[0]) in dead else bn.neighbors(uid, btype)

        def __getattr__(self, name):
            return getattr(bn, name)

    walks = [
        computation_subgraph(Down(), t, hops=hops, fanout=fanout, allowed=allowed)
        for t in targets
    ]
    inner = [
        computation_subgraph(Down(), t, hops=hops - 1, fanout=fanout, allowed=allowed)
        if hops and bn.edge_types()
        else ComputationSubgraph(target=t, nodes=[])
        for t in targets
    ]
    expanded = [set(shard_of(sub.nodes, n_shards).tolist()) & dead for sub in inner]
    hit = set().union(*expanded)
    subgraphs, partial = [], []
    for i, sub in enumerate(walks):
        owners = shard_of(sub.nodes, n_shards)
        registered = np.array([uid in bn for uid in sub.nodes], dtype=bool)
        partial.append(bool(expanded[i]) or bool(np.isin(owners[registered], list(hit)).any()))
        iu, iv, w, code = sub._entries
        lo = np.minimum(np.asarray(sub.nodes)[iu], np.asarray(sub.nodes)[iv])
        keep = ~np.isin(shard_of(lo, n_shards), list(hit))
        entries = (iu[keep], iv[keep], w[keep], code[keep])
        subgraphs.append(
            ComputationSubgraph(
                target=sub.target, nodes=sub.nodes, types=sub._types, entries=entries
            )
        )
    return subgraphs, tuple(i for i, flagged in enumerate(partial) if flagged)


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@settings(max_examples=25, deadline=None)
@given(
    network=batches(),
    data=st.data(),
    hops=st.integers(0, 3),
    fanout=st.sampled_from([None, 0, 1, 2, 5]),
)
def test_every_subgraph_is_the_dict_walks(n_shards, network, data, hops, fanout):
    uids, contributions = network
    bn = build_network(contributions)
    unseen = max(uids) + 1
    targets = data.draw(
        st.lists(st.sampled_from([*uids, unseen]), min_size=1, max_size=6), label="targets"
    )
    allowed = data.draw(
        st.none() | st.sets(st.sampled_from(uids)).map(set), label="allowed"
    )
    dead = data.draw(st.sets(st.integers(0, n_shards - 1)), label="dead")

    faults = FaultInjector()
    for s in dead:
        faults.add_crash(f"bn_shard{s}", 0.0, 10.0)
    got, stats, _ = ShardRouter(bn, n_shards, faults=faults).sample_batch(
        targets, hops=hops, fanout=fanout, allowed=allowed, now=1.0
    )
    want, partial = oracle_batch(bn, targets, hops, fanout, allowed, dead, n_shards)
    for got_sub, want_sub in zip(got, want, strict=True):
        assert_subgraph_equal(got_sub, want_sub)
    assert stats.partial == partial
    assert stats.sampled_nodes == sum(len(sub.nodes) for sub in want)
    if not dead:
        plain, _ = computation_subgraphs_batch(
            bn.index(), targets, hops=hops, fanout=fanout, allowed=allowed
        )
        for got_sub, want_sub in zip(plain, want, strict=True):
            assert_subgraph_equal(got_sub, want_sub)


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@settings(max_examples=25, deadline=None)
@given(
    network=batches(),
    data=st.data(),
    hops=st.integers(0, 3),
    fanout=st.sampled_from([None, 0, 1, 2, 5]),
)
def test_sweep_positions_induce_the_dense_entries(n_shards, network, data, hops, fanout):
    """One target's BFS-ordered positions with a ``-1`` among them, the
    sweep's input to the inducer, give the dense inducer's entries bit for
    bit; a dead shard's rows drop the entries whose ``lo`` endpoint it owns."""
    uids, contributions = network
    bn = build_network(contributions)
    index = bn.index()
    target = data.draw(st.sampled_from(uids), label="target")
    root = int(positions_of(index.node_ids, target))
    positions, _ = _bfs_positions(index.selection(fanout), index.node_ids, np.array([root]), hops)
    nodes = [target] if root < 0 else index.node_ids[positions].tolist()
    if root >= 0:  # an unregistered uid, somewhere after the target
        at = data.draw(st.integers(1, len(positions)), label="at")
        positions = np.insert(positions, at, -1)
        nodes.insert(at, max(uids) + 1)
    dead = data.draw(st.sets(st.integers(0, n_shards - 1)), label="dead")
    live = ~np.isin(shard_of(nodes, n_shards), list(dead)) if dead else None

    got = index.induced_entries(positions, live)
    iu, iv, w, code = _induced_entries(bn, nodes, index.types)
    lo = np.minimum(np.asarray(nodes)[iu], np.asarray(nodes)[iv])
    keep = ~np.isin(shard_of(lo, n_shards), list(dead))
    for got_part, want_part in zip(got, (iu[keep], iv[keep], w[keep], code[keep]), strict=True):
        assert got_part.dtype == want_part.dtype
        assert got_part.tobytes() == want_part.tobytes()


def test_a_call_that_raises_leaves_the_lookup_clean(monkeypatch):
    """The inducer's position lookup is reset even when a call raises after
    marking its members: the next call equals one on a fresh lookup."""
    bn = build_network(contribution_batches(np.random.default_rng(3), n_batches=2))
    index = bn.index()
    evens = np.arange(0, index.num_nodes, 2)
    odds = np.arange(1, index.num_nodes, 2)
    broken = dataclasses.replace(index, indptr=None)  # raises once marked
    with pytest.raises(TypeError):
        broken.induced_entries(evens)
    got = index.induced_entries(odds)
    monkeypatch.setattr(sharding, "_ROWS", [np.empty(0, dtype=np.int64)])
    want = index.induced_entries(odds)
    assert len(want[0]) and len(index.induced_entries(np.arange(index.num_nodes))[0]) > len(want[0])
    for got_part, want_part in zip(got, want, strict=True):
        assert got_part.tobytes() == want_part.tobytes()
