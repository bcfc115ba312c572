"""Neighbour rankings carried across version bumps, against a full rank.

The read index carries its neighbour selection (``ShardIndex.selection``,
one per fanout) to the next version: a patched index re-ranks only the
rows of its touched nodes and splices every other row in from the index it
was patched from, because a node's ranking reads only the pairs incident
to it.  Whatever the writes between two reads, the carried selection must
then be byte-equal to a full rank of the current version (the selection of
``tests/oracles/read_index.py``'s every-pair walk), and rank what the dict
walk of ``tests/oracles/sampling.py`` ranks.

Random write/read mixes (``test_index_patch.py``'s steps: batches, scalar
writes, lone nodes, TTL sweeps, pairs that expire and come back, a type
that appears and vanishes) run through a BN server, unsharded and reading
in {1, 2, 4, 8} shards, with shards down for some reads and
samples for uids the network has not seen, whose ``add_node`` bumps the
version.  Every uid is moved far from its position (negative, sparse, above
2**31), so a position read as a uid cannot pass.  A deployed ``Turbo``
answers a request for a uid its BN has not seen the same way.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.network.sharding as sharding
from repro.datagen import DAY, HOUR, BehaviorType
from repro.network import FAST_WINDOWS, BehaviorNetwork, BNBuilder
from repro.system import (
    BNServer,
    FaultInjector,
    LatencyModel,
    PredictRequest,
    TurboConfig,
    deploy_turbo,
)
from tests.oracles.read_index import full_walk
from tests.oracles.sampling import _select_neighbors
from tests.test_network.test_index_patch import SHARDINGS, USERS, network, random_step

FANOUT = 3
DEV = BehaviorType.DEVICE_ID


def far(uid):
    """A bijection of the 40-bit integers that moves small uids far apart
    (and below zero, and past 2**31)."""
    return (np.asarray(uid, dtype=np.int64) * 2654435761) % 2**40 - 2**39


class Far:
    """Writes to ``net`` with every uid moved by :func:`far`."""

    def __init__(self, net) -> None:
        self.net = net

    def add_weights(self, u, v, *args, **kwargs):
        return self.net.add_weights(far(u), far(v), *args, **kwargs)

    def add_weight(self, u, v, *args, **kwargs):
        return self.net.add_weight(int(far(u)), int(far(v)), *args, **kwargs)

    def add_node(self, uid):
        return self.net.add_node(int(far(uid)))

    def expire_edges(self, now):
        return self.net.expire_edges(now)


def assert_selection_is_current(net, plain: BehaviorNetwork, fanout: int | None) -> None:
    """The index's selection is a full rank's, byte for byte, and the dict walk's."""
    index = net.index()
    indptr, nbr = index.selection(fanout)
    want_indptr, want_nbr = full_walk(net).selection(fanout)
    assert indptr.tobytes() == want_indptr.tobytes()
    assert nbr.tobytes() == want_nbr.tobytes()
    rows = np.split(index.node_ids[nbr], indptr[1:-1])
    assert [row.tolist() for row in rows] == [
        [v for btype in index.types for v in _select_neighbors(plain, uid, btype, fanout, None)]
        for uid in index.node_ids.tolist()
    ]


@pytest.mark.parametrize("n_shards", SHARDINGS)
@pytest.mark.parametrize("seed", range(3))
def test_carried_rankings_equal_the_current_index(n_shards, seed):
    rng = np.random.default_rng(seed)
    server = BNServer(
        BNBuilder(windows=(HOUR, DAY)),
        LatencyModel(jitter_sigma=0.0, seed=0),
        faults=FaultInjector(),
        shards=n_shards or 1,
    )
    server.bn = network()
    fresh: list[int] = []
    now, unseen = 10 * HOUR, 5000
    carried = reads = 0
    previous = None
    for _ in range(150):
        now += float(rng.uniform(0.01, 0.5)) * HOUR
        random_step(rng, Far(server.bn), now, fresh)
        if rng.random() < 0.6:
            continue
        if n_shards is not None and rng.random() < 0.3:
            for s in rng.choice(n_shards, int(rng.integers(1, n_shards + 1)), replace=False):
                server.faults.add_crash(f"bn_shard{s}", now, now + 1.0)
        targets = far(rng.choice(USERS, int(rng.integers(1, 5)), replace=False)).tolist()
        if rng.random() < 0.25:
            unseen += 1
            targets.append(int(far(unseen)))  # registered by the read: a new node
        if rng.random() < 0.5:
            server.sample(targets[-1], now=now, fanout=FANOUT)
        else:
            server.sample_batch(targets, [now] * len(targets), fanout=FANOUT)
        index = server.bn.index()
        if previous is not None and previous is not index and index.base is previous:
            carried += 1
        previous = index
        reads += 1
        assert_selection_is_current(server.bn, server.bn, FANOUT)
    assert reads > 40 and carried > reads // 2


def test_a_touched_node_is_ranked_again_and_the_others_are_not(monkeypatch):
    server = BNServer(BNBuilder(windows=(HOUR, DAY)), LatencyModel(jitter_sigma=0.0, seed=0))
    bn = server.bn
    bn.add_weights([1, 1, 1, 4], [2, 3, 4, 5], DEV, [3.0, 2.0, 1.0, 1.0], 0.0)
    server.sample(1, fanout=2)
    server.sample(5, fanout=2)
    before = bn.index()
    ranked: list[np.ndarray] = []  # the rows each rank re-ranked
    ranked_rows = sharding._ranked

    def counted(base, at, rows, halves, weights, fanout):
        ranked.append(rows)
        return ranked_rows(base, at, rows, halves, weights, fanout)

    monkeypatch.setattr(sharding, "_ranked", counted)
    bn.add_weight(1, 4, DEV, 5.0, HOUR)  # touches 1 and 4
    index = bn.index()
    assert index.base is before and len(ranked) == 1  # one fanout carried
    assert index.node_ids[ranked[0]].tolist() == [1, 4]
    old_indptr, old_nbr = before.selection(2)
    indptr, nbr = index.selection(2)
    for pos in np.flatnonzero(~ranked[0]).tolist():  # every other row, as it was
        assert nbr[indptr[pos] : indptr[pos + 1]].tolist() == (
            old_nbr[old_indptr[pos] : old_indptr[pos + 1]].tolist()
        )
    assert server.sample(1, fanout=2)[0].nodes[:3] == [1, 4, 2]
    assert len(ranked) == 1  # the request ranked nothing
    index.selection(3)  # another fanout: a full rank
    assert len(ranked) == 2 and ranked[1].all()
    assert_selection_is_current(bn, bn, 2)


@pytest.fixture(scope="module")
def deployed(tiny_dataset):
    turbo, data = deploy_turbo(
        tiny_dataset,
        TurboConfig(windows=FAST_WINDOWS, train_epochs=1, hidden=(8, 4), seed=0),
    )
    return turbo, data


def test_a_request_for_a_uid_the_bn_has_not_seen(tiny_dataset, deployed):
    """Writes, then a request whose ``add_node`` bumps the version: the
    selection is carried, stays current, and scores what a full rank scores."""
    turbo, data = deployed
    server, end = turbo.bn_server, tiny_dataset.end_time
    txns = data.dataset.transactions
    new = txns[20]  # a user whose logs the BN never saw
    logs = [log for log in tiny_dataset.logs if log.uid != new.uid]
    server.bn = BNBuilder(windows=FAST_WINDOWS).build(logs)
    server.run_due_jobs(end)
    requests = [PredictRequest(txn=txn, now=txn.audit_at) for txn in txns[:20]]
    for request in requests:
        turbo.predict(request)
    start = end - 2 * DAY
    server.ingest(
        [
            replace(log, timestamp=log.timestamp + 2 * DAY)
            for log in logs
            if start < log.timestamp <= start + HOUR
        ]
    )
    server.run_due_jobs(end + HOUR)
    assert new.uid not in server.bn
    written = server.bn.index()
    served = [turbo.predict(PredictRequest(txn=new, now=new.audit_at))]
    index = server.bn.index()
    assert index.base is written and new.uid in index.touched
    assert list(index._selections) == [turbo.fanout]  # carried, not ranked afresh
    served += [turbo.predict(request) for request in requests]
    assert_selection_is_current(server.bn, server.bn, turbo.fanout)

    index._selections.clear()  # rank every row afresh
    reranked = [
        turbo.predict(request)
        for request in [PredictRequest(txn=new, now=new.audit_at), *requests]
    ]
    assert [r.probability for r in served] == [r.probability for r in reranked]
    assert [r.blocked for r in served] == [r.blocked for r in reranked]
