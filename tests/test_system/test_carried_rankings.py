"""Neighbour rankings carried across version bumps, against the current index.

The BN server keeps its per-(node, type) top-k rankings across requests.  A
version bump used to drop all of them; now, when the new read index was
patched from the one the rankings were made under, the server drops only
the keys of the index's touched nodes (``ShardIndex.touched``), because a
node's ranking reads only the pairs incident to it.  Whatever the writes
between two reads, every key the server still holds must then rank exactly
what the current index ranks.

Random write/read mixes (``test_index_patch.py``'s steps: batches, scalar
writes, lone nodes, TTL sweeps, pairs that expire and come back, a type
that appears and vanishes) run on a plain network and on the facade at
{1, 2, 4, 8} shards, with shards down for some reads and samples for uids
the network has not seen, whose ``add_node`` bumps the version.  A deployed
``Turbo`` answers a request for a uid its BN has not seen the same way.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.datagen import DAY, HOUR, BehaviorType
from repro.network import FAST_WINDOWS, BNBuilder
from repro.system import (
    BNServer,
    FaultInjector,
    LatencyModel,
    PredictRequest,
    TurboConfig,
    deploy_turbo,
)
from tests.test_network.test_index_patch import SHARDINGS, USERS, network, random_step

FANOUT = 3
DEV = BehaviorType.DEVICE_ID


def assert_carried_rankings_are_current(server: BNServer, fanout: int | None) -> None:
    """Every cached ranking is the current index's ranking of its key."""
    index = server.bn.index()
    cache = server._selection_cache
    keys = list(cache)
    assert [cache[key] for key in keys] == index.select_neighbors(keys, fanout)


@pytest.mark.parametrize("n_shards", SHARDINGS)
@pytest.mark.parametrize("seed", range(3))
def test_carried_rankings_equal_the_current_index(n_shards, seed):
    rng = np.random.default_rng(seed)
    server = BNServer(
        BNBuilder(windows=(HOUR, DAY)),
        LatencyModel(jitter_sigma=0.0, seed=0),
        faults=FaultInjector(),
    )
    server.bn = network(n_shards)
    fresh: list[int] = []
    now, unseen = 10 * HOUR, 5000
    carried = reads = 0
    for _ in range(150):
        now += float(rng.uniform(0.01, 0.5)) * HOUR
        random_step(rng, [server.bn], now, fresh)
        if rng.random() < 0.6:
            continue
        if n_shards is not None and rng.random() < 0.3:
            for s in rng.choice(n_shards, int(rng.integers(1, n_shards + 1)), replace=False):
                server.faults.add_crash(f"bn_shard{s}", now, now + 1.0)
        targets = [int(t) for t in rng.choice(USERS, int(rng.integers(1, 5)), replace=False)]
        if rng.random() < 0.25:
            unseen += 1
            targets.append(unseen)  # registered by the read: a new node
        before = server._selection_state
        if rng.random() < 0.5:
            server.sample(targets[-1], now=now, fanout=FANOUT)
        else:
            server.sample_batch(targets, [now] * len(targets), fanout=FANOUT)
        index = server._selection_state[0]
        if before is not None and before[0] is not index and index.base is before[0]:
            carried += 1
        reads += 1
        assert_carried_rankings_are_current(server, FANOUT)
    assert reads > 40 and carried > reads // 2


def test_a_touched_node_is_ranked_again_and_the_others_are_not():
    server = BNServer(BNBuilder(windows=(HOUR, DAY)), LatencyModel(jitter_sigma=0.0, seed=0))
    bn = server.bn
    bn.add_weights([1, 1, 1, 4], [2, 3, 4, 5], DEV, [3.0, 2.0, 1.0, 1.0], 0.0)
    cache = server._batch_selection_cache(2)
    server.sample(1, fanout=2)
    server.sample(5, fanout=2)
    ranked = dict(cache)
    bn.add_weight(1, 4, DEV, 5.0, HOUR)  # touches 1 and 4
    assert server._batch_selection_cache(2) is cache
    assert {uid for uid, _ in ranked} - {uid for uid, _ in cache} == {1, 4}
    assert all(cache[key] == ranked[key] for key in cache)
    assert server.sample(1, fanout=2)[0].nodes[:3] == [1, 4, 2]
    assert_carried_rankings_are_current(server, 2)
    assert server._batch_selection_cache(3) is not cache  # another fanout


@pytest.fixture(scope="module")
def deployed(tiny_dataset):
    turbo, data = deploy_turbo(
        tiny_dataset,
        TurboConfig(windows=FAST_WINDOWS, train_epochs=1, hidden=(8, 4), seed=0),
    )
    return turbo, data


def test_a_request_for_a_uid_the_bn_has_not_seen(tiny_dataset, deployed):
    """Writes, then a request whose ``add_node`` bumps the version: the
    rankings are carried, stay current, and score what re-ranking scores."""
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
    cache = server._selection_cache
    served = [turbo.predict(PredictRequest(txn=new, now=new.audit_at))]
    assert server._selection_cache is cache  # carried, not dropped
    assert new.uid in server._selection_state[0].touched
    served += [turbo.predict(request) for request in requests]
    assert_carried_rankings_are_current(server, turbo.fanout)

    reranked = []
    for request in [PredictRequest(txn=new, now=new.audit_at), *requests]:
        server._selection_state = None  # rank every key afresh
        reranked.append(turbo.predict(request))
    assert [r.probability for r in served] == [r.probability for r in reranked]
    assert [r.blocked for r in served] == [r.blocked for r in reranked]
