"""Exact work counts of a warm request: decided without a clock.

A warm ``Turbo.predict`` used to make 407 ``Tensor`` objects (8 edge types
x 2 SAO layers x ~20 autograd ops, then 8 CFO heads) and 16
``scipy.sparse.csr_matrix`` objects (the sampler's and the normaliser's
splits) on the bench deployment.  With the tape-free forward it makes two
``Tensor`` objects — the input and the logits — and no ``csr_matrix`` at
all (the stacked aggregator multiplies itself), whatever the number of edge
types, layers or nodes.  It also made ~200 latency-rng calls, one per
modeled storage op; a charge walk now plans its ops and draws their jitter
at once, so a request makes three (the sampling walk, the feature walk, the
forward).  Host-independent integers: the ceilings are asserted, the
figures printed.

Beside them, the request's Python-level calls (``sys.setprofile`` ``call``
events: every Python function, method, property and generator entered) per
warm ``Turbo.predict`` and per request of a warm ``predict_batch`` of 8 —
the figure a serve PR quotes as "calls per request N → M" when the wall
clock reads unresolved — and the C-level calls (``c_call`` events: every
numpy function and builtin called from Python) per warm ``Turbo.predict``.
The counting pass is never timed.  The request's adjacency is built once,
as the forward's pack: the sampler hands over entries, not a CSR.

And the node rows whose CFO attention is evaluated: a request reads one
probability, so the forward runs the node-wise attention on the target
alone — one row per ``predict``, eight per ``predict_batch`` of 8 — while
the towers still run on every node of the subgraph.

And what a write costs the next read: the edge records ``index()`` reads
from the network's dicts after a one-hour write are those of the pairs the
write touched — the rest of the index is copied from the last one — where
a build used to read every record.  The same build re-normalises only the
pairs incident to the touched nodes (the endpoints of those pairs),
rebuilds only their half-edge rows and re-ranks only their neighbour
selections (the index carries its selection to the next version), and the
warm requests after it rank nothing.

And what a shard count costs the inducer: with one shard down, one node
list's ``ShardIndex.induced_entries`` makes the same C-level calls at 2, 4
and 8 shards — the partition is one row mask over one half-edge CSR.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import repro.core.cfo as cfo
import repro.core.hag as hag
import repro.network.sharding as sharding
from repro.datagen import DAY, HOUR
from repro.network import FAST_WINDOWS, shard_of
from repro.network.sampling import _bfs_positions
from repro.nn import Tensor
from repro.nn.sparse import StackedCSR
from repro.system import PredictRequest, TurboConfig, deploy_turbo
from tests.test_network.test_sharding import build_network, contribution_batches


def counted(cls, counts, key):
    """Wrap ``cls.__init__`` to count constructions; returns the undo."""
    inherited = "__init__" not in vars(cls)
    original = cls.__init__

    def init(self, *args, **kwargs):
        counts[key] += 1
        original(self, *args, **kwargs)

    cls.__init__ = init

    def undo():
        if inherited:
            del cls.__init__
        else:
            cls.__init__ = original

    return undo


def profiled_calls(fn) -> tuple[int, int]:
    """Python- and C-level calls ``fn()`` makes (the previous profiler is
    restored)."""
    calls = {"call": 0, "c_call": 0}

    def count(_frame, event, _arg):
        if event in calls:
            calls[event] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls["call"], calls["c_call"]


#: measured 697.7 and 452.3 Python-level calls on this deployment and 773.5
#: C-level calls per warm ``Turbo.predict`` since the BFS takes its roots as
#: a slice of the batch's positions (774.5 before, 781.5 while the sampler
#: counted expansions; it walks the read index's selection
#: CSR: 750.8, 458.1 and 935.1 while it walked a dict of
#: per-(node, type) rankings; 838.8, 500.6 and 1,067.1 while the sampler
#: built every request's stacked CSR, the forward re-packed it and CFO looped
#: over the types; 962.7 and 516.1 while the stacked-weight staleness check
#: entered a generator per parameter; 1,503.3 and 771.8 while every storage
#: op drew its own jitter and the product went through two scipy objects);
#: about 3 % of headroom.
SCALAR_CALLS_CEILING = 719
BATCHED_CALLS_CEILING = 466
SCALAR_C_CALLS_CEILING = 798


class CountedRng:
    """``LatencyModel._rng`` with its ``lognormal`` calls counted."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def lognormal(self, *args, **kwargs):
        self.calls += 1
        return self.rng.lognormal(*args, **kwargs)


@pytest.fixture(scope="module")
def deployed(tiny_dataset):
    """The tiny deployment and 20 requests, each served once (warm)."""
    turbo, data = deploy_turbo(
        tiny_dataset,
        TurboConfig(windows=FAST_WINDOWS, train_epochs=1, hidden=(8, 4), seed=0),
    )
    requests = [
        PredictRequest(txn=txn, now=txn.audit_at) for txn in data.dataset.transactions[:20]
    ]
    return turbo, requests, [turbo.predict(request).probability for request in requests]


def test_warm_request_constructs_two_tensors_and_no_csr_matrix(deployed):
    turbo, requests, expected = deployed

    counts = {"tensor": 0, "csr": 0, "batched csr": 0}
    undo = [counted(Tensor, counts, "tensor"), counted(sp.csr_matrix, counts, "csr")]
    latency = turbo.prediction_server.latency
    assert turbo.bn_server.latency is latency and turbo.feature_server.latency is latency
    latency._rng = draws = CountedRng(latency._rng)
    try:
        served = [turbo.predict(request) for request in requests]
    finally:
        latency._rng = draws.rng
        for restore in undo:
            restore()
    assert "__init__" not in vars(sp.csr_matrix) and Tensor.__init__.__name__ == "__init__"

    assert [response.probability for response in served] == expected
    assert all(r.degradation == "full" and r.tier == "sampled" for r in served)
    per_request = {key: value / len(requests) for key, value in counts.items()}
    print(
        f"\nwarm Turbo.predict: {per_request['tensor']:g} Tensor and "
        f"{per_request['csr']:g} csr_matrix constructions, "
        f"{draws.calls / len(requests):g} latency-rng calls per request "
        f"({len(turbo.prediction_server.edge_type_order)} edge types)"
    )
    assert per_request["tensor"] <= 2
    assert per_request["csr"] == 0
    assert 0 < draws.calls <= 4 * len(requests)

    batches = [requests[k : k + 8] for k in range(0, 16, 8)]
    for batch in batches:  # warm the batched path's own ledger
        turbo.predict_batch(batch)
    restore = counted(sp.csr_matrix, counts, "batched csr")
    try:
        assert all(r.degradation == "full" for b in batches for r in turbo.predict_batch(b))
    finally:
        restore()
    assert counts["batched csr"] == 0
    scalar_calls, scalar_c_calls = (
        calls / len(requests)
        for calls in profiled_calls(lambda: [turbo.predict(r) for r in requests])
    )
    batched_calls = profiled_calls(lambda: [turbo.predict_batch(b) for b in batches])[0] / 16
    assert sys.getprofile() is None or sys.getprofile().__name__ != "count"
    print(
        f"warm request, Python-level calls: Turbo.predict {scalar_calls:.1f}, "
        f"predict_batch of 8 {batched_calls:.1f} per request; C-level calls: "
        f"Turbo.predict {scalar_c_calls:.1f}"
    )
    assert scalar_calls <= SCALAR_CALLS_CEILING
    assert batched_calls <= BATCHED_CALLS_CEILING
    assert scalar_c_calls <= SCALAR_C_CALLS_CEILING


def test_a_warm_request_builds_its_adjacency_once(deployed, monkeypatch):
    """The sampler hands the forward entries, so the pack's one
    ``StackedCSR.from_entries`` is the only CSR a request builds: no
    per-request ``stacked_symmetric_csr`` (which builds through it too)."""
    turbo, requests, expected = deployed
    built: list[int] = []  # the blocks of every CSR built
    from_entries = StackedCSR.from_entries.__func__

    def counted(cls, rows, cols, data, type_code, n_types, n):
        built.append(n_types)
        return from_entries(cls, rows, cols, data, type_code, n_types, n)

    monkeypatch.setattr(StackedCSR, "from_entries", classmethod(counted))
    towers = len(turbo.prediction_server.edge_type_order)
    for request, probability in zip(requests, expected):
        built.clear()
        assert turbo.predict(request).probability == probability
        assert built == [towers]
    built.clear()
    batch = turbo.predict_batch(requests[:8])
    assert [response.probability for response in batch] == expected[:8]
    assert built == [towers]


def test_cfo_attention_runs_on_the_request_targets_only(deployed, monkeypatch):
    turbo, requests, expected = deployed
    towers = len(turbo.prediction_server.edge_type_order)
    attention_rows, tower_rows = [], []
    softmax, forward = cfo.softmax, hag.cfo_forward_stacked

    def counted_softmax(scores, axis=-1):  # the (|R|, b, |R|) scores of every type
        assert scores.shape[0] == scores.shape[2] == towers
        attention_rows.append(scores.shape[1])
        return softmax(scores, axis)

    def counted_forward(type_embeddings, *args):
        tower_rows.append(type_embeddings.shape[1])
        return forward(type_embeddings, *args)

    monkeypatch.setattr(cfo, "softmax", counted_softmax)
    monkeypatch.setattr(hag, "cfo_forward_stacked", counted_forward)

    def per_call(serve, calls):
        attention_rows.clear()
        tower_rows.clear()
        served = [response.probability for call in calls for response in serve(call)]
        assert len(tower_rows) == len(calls)  # one forward per call
        return served, sum(attention_rows) / len(calls), sum(tower_rows) / len(calls)

    scalar, scalar_rows, nodes = per_call(lambda r: [turbo.predict(r)], requests)
    batches = [requests[k : k + 8] for k in range(0, 16, 8)]
    batched, batched_rows, packed = per_call(turbo.predict_batch, batches)
    print(
        f"\nCFO attention rows: {scalar_rows:g} per Turbo.predict ({nodes:.1f} nodes), "
        f"{batched_rows:g} per predict_batch of 8 ({packed:.1f} nodes)"
    )
    assert scalar == expected and batched == expected[:16]
    assert scalar_rows == 1
    assert batched_rows == 8


def edge_records(bn) -> dict:
    """``(lo, hi) -> {type: (weight, last_update)}`` of every live pair."""
    pairs: dict = {}
    for u, v, btype, record in bn.iter_edges():
        pairs.setdefault((u, v), {})[btype] = (record.weight, record.last_update)
    return pairs


def test_the_next_index_reads_only_the_records_a_write_touched(tiny_dataset, monkeypatch):
    turbo, data = deploy_turbo(
        tiny_dataset, TurboConfig(windows=FAST_WINDOWS, train_epochs=1, hidden=(8, 4), seed=0)
    )
    server, end = turbo.bn_server, tiny_dataset.end_time
    server.run_due_jobs(end)
    bn = server.bn
    bn.index()
    requests = [
        PredictRequest(txn=txn, now=txn.audit_at) for txn in data.dataset.transactions[:20]
    ]
    for request in requests:  # the index ranks its selection
        turbo.predict(request)
    before = edge_records(bn)
    start = end - 2 * DAY  # an hour of the dataset's logs, replayed two days later
    hour = [
        replace(log, timestamp=log.timestamp + 2 * DAY)
        for log in tiny_dataset.logs
        if start < log.timestamp <= start + HOUR
    ]
    server.ingest(hour)
    server.run_due_jobs(end + HOUR)
    after = edge_records(bn)
    touched = {p for p in before.keys() | after.keys() if before.get(p) != after.get(p)}
    touched_nodes = {uid for pair in bn._changed for uid in pair}

    read: list[int] = []
    renormalised: list[int] = []
    rebuilt: list[tuple[int, int]] = []  # (rows, half-edges) of the half-edge CSR
    ranked: list[int] = []  # selection rows ranked per call
    export, normalised, spliced, rank = (
        sharding._export_pair_table,
        sharding._normalised,
        sharding._spliced,
        sharding._ranked,
    )

    def counted(shard, pairs):
        read.append(sum(len(shard._edges[pair]) for pair in pairs))
        return export(shard, pairs)

    def counted_normalised(w, lo, hi, degrees):
        renormalised.append(w.shape[1])
        return normalised(w, lo, hi, degrees)

    def counted_splice(old_indptr, at, rows, first, counts, columns):
        if len(columns) == 2:  # the half-edge CSR; a selection splices one column
            rebuilt.append((int(rows.sum()), int(counts.sum())))
        return spliced(old_indptr, at, rows, first, counts, columns)

    def counted_rank(base, at, rows, halves, weights, fanout):
        ranked.append(int(rows.sum()))
        return rank(base, at, rows, halves, weights, fanout)

    monkeypatch.setattr(sharding, "_export_pair_table", counted)
    monkeypatch.setattr(sharding, "_normalised", counted_normalised)
    monkeypatch.setattr(sharding, "_spliced", counted_splice)
    monkeypatch.setattr(sharding, "_ranked", counted_rank)
    index = bn.index()
    patched = sum(ranked)
    ranked.clear()
    expected = sum(len(after[pair]) for pair in touched if pair in after)
    incident = [p for p in after if touched_nodes.intersection(p)]
    print(
        f"\nafter a one-hour write ({len(hour)} logs, {len(touched)} of "
        f"{bn.num_pairs()} pairs touched): index() read {sum(read)} edge records "
        f"from the dicts; a full walk reads every one, {bn.num_edges()}"
    )
    assert touched and sum(read) == expected < bn.num_edges()
    print(
        f"the same index() re-normalised {sum(renormalised)} of {index.num_pairs} pairs "
        f"and rebuilt {sum(r for r, _ in rebuilt)} of {index.num_nodes} half-edge rows "
        f"({sum(h for _, h in rebuilt)} of {2 * index.num_pairs} half-edges): those "
        f"of the {len(touched_nodes)} touched nodes; every one before"
    )
    assert set(index.touched.tolist()) == touched_nodes
    assert sum(renormalised) == len(incident) < index.num_pairs
    assert sum(r for r, _ in rebuilt) == len(touched_nodes) < index.num_nodes
    assert sum(h for _, h in rebuilt) == sum(bn.degree(uid) for uid in touched_nodes)

    served = [turbo.predict(request).probability for request in requests]
    assert ranked == []  # warm requests rank nothing
    index._selections.clear()  # what a full rank ranks
    assert [turbo.predict(request).probability for request in requests] == served
    print(
        f"and re-ranked {patched} of {index.num_nodes} neighbour selection rows, "
        f"those of the touched nodes; the next {len(requests)} warm requests rank "
        f"none, and a full rank ranks {sum(ranked)}"
    )
    assert patched == len(touched_nodes) < sum(ranked) == index.num_nodes

    # Written ten times over without a read, the log stops at num_pairs.
    rows = list(bn.iter_edges())
    for k in range(10):
        bn.add_weights(
            [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows],
            [1.0] * len(rows), end + (2 + k) * HOUR,
        )
        assert len(bn._changed or ()) <= bn.num_pairs()
    assert bn._changed is None


def test_the_inducer_makes_the_same_calls_at_every_shard_count():
    """One BFS node list, shard 1 down: the C-level calls of the inducer do
    not depend on how many shards partition the index."""
    bn = build_network(contribution_batches(np.random.default_rng(5)))
    index = bn.index()
    positions, _ = _bfs_positions(index.selection(5), index.node_ids, np.array([0]), 2)
    calls = {}
    for n_shards in (2, 4, 8):
        live = shard_of(index.node_ids[positions], n_shards) != 1
        assert live.any() and not live.all()
        calls[n_shards] = profiled_calls(lambda: index.induced_entries(positions, live))[1]
    print(f"\ninducer C-level calls by shard count: {calls}")
    assert len(set(calls.values())) == 1
