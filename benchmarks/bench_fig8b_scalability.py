"""E11 — Fig. 8b: scalability of the graph computing operations.

The paper scales BN up and reports: full-graph training time grows linearly
with BN size, while per-request subgraph sampling and prediction latencies
grow slowly — the property that makes the inductive design deployable.

Per-request sampling is what every serving tier runs:
``computation_subgraphs_batch`` with one target, a BFS over the read
index's neighbour selection, which is ranked once per BN version (before
the timed requests, as a server ranks it at its first request).  The
batched-mode columns sample the same request set in one call (one
union-frontier adjacency gather) and score it through one packed
``predict_subgraphs`` forward, amortized per request.  The batched results
are asserted bit-for-bit equal to the scalar ones at every scale.

The table also carries a shard-count column: the same requests served
data-parallel in ``SHARDS`` partitions by owner shard (``shard_of``) over
the network's one read index, reported on the deployment clock (slowest
partition — partitions run on separate cores in production).  Sharded
results are asserted bit-for-bit equal to the batched ones at every scale.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import HAG, TrainConfig, prepare_aggregators, train_node_classifier
from repro.datagen import make_d1
from repro.eval.runner import prepare_experiment
from repro.network import BNBuilder, computation_subgraphs_batch, shard_of

from _shared import SCALE, WINDOWS, emit, emit_header, once

SCALES = (0.15, 0.3, 0.6)
SHARDS = 2


def measure_at_scale(scale: float) -> dict[str, float]:
    dataset = make_d1(scale=scale, seed=7)

    # BN ingestion throughput: full Algorithm 1 (vectorized columnar write
    # path) over the dataset's log history — the paper's "BN update" cost,
    # which must also scale gracefully for the online system to keep up.
    start = time.perf_counter()
    BNBuilder(windows=WINDOWS).build(dataset.logs)
    ingest_seconds = time.perf_counter() - start

    data = prepare_experiment(dataset, windows=WINDOWS, seed=0)
    aggregators = prepare_aggregators([data.adjacencies[t] for t in data.edge_types])
    model = HAG(
        data.features.shape[1],
        n_types=len(data.edge_types),
        rng=np.random.default_rng(0),
        hidden=(32, 16),
        att_dim=16,
        cfo_att_dim=16,
        cfo_out_dim=4,
        mlp_hidden=(8,),
    )
    start = time.perf_counter()
    train_node_classifier(
        model,
        lambda x: model.forward(x, aggregators),
        data.features,
        data.labels,
        data.train_idx,
        None,
        TrainConfig(epochs=5, lr=5e-3, patience=5, min_epochs=5),
    )
    train_seconds = (time.perf_counter() - start) / 5  # per epoch

    rng = np.random.default_rng(1)
    allowed = set(data.nodes)
    index = {uid: i for i, uid in enumerate(data.nodes)}
    uids = [int(uid) for uid in rng.choice(data.nodes, size=20, replace=False)]
    sample_times, predict_times, sizes = [], [], []
    scalar_probs = []
    data.bn.index().selection(10)  # ranked once per BN version
    for uid in uids:
        start = time.perf_counter()
        # Frontiers expand in the index's sorted type order in all three
        # serving modes (prediction still packs per ``data.edge_types``).
        (subgraph,), _stats = computation_subgraphs_batch(
            data.bn.index(), [uid], hops=2, fanout=10, allowed=allowed
        )
        sample_times.append(time.perf_counter() - start)
        features = data.features[[index[v] for v in subgraph.nodes]]
        start = time.perf_counter()
        scalar_probs.append(
            model.predict_subgraph(subgraph, features, edge_type_order=data.edge_types)
        )
        predict_times.append(time.perf_counter() - start)
        sizes.append(subgraph.num_nodes)

    # Batched mode: the same request set through the union-frontier sampler
    # and one packed forward, amortized per request — bit-exact by contract.
    start = time.perf_counter()
    batch_subgraphs, _stats = computation_subgraphs_batch(
        data.bn.index(), uids, hops=2, fanout=10, allowed=allowed
    )
    batch_sample_s = time.perf_counter() - start
    batch_features = [
        data.features[[index[v] for v in sg.nodes]] for sg in batch_subgraphs
    ]
    start = time.perf_counter()
    batch_probs = model.predict_subgraphs(
        batch_subgraphs, batch_features, edge_type_order=data.edge_types
    )
    batch_predict_s = time.perf_counter() - start
    assert batch_probs == scalar_probs, "batched predictions diverged from scalar"

    # Sharded mode: the same requests partitioned by owner shard over the
    # one read index, each partition sampled + scored independently.
    # Deployment clock = slowest partition; bit-exact vs the batched path.
    shard_index = data.bn.index()
    owners = shard_of(np.asarray(uids, dtype=np.int64), SHARDS)
    partition_s = []
    sharded_probs: dict[int, float] = {}
    for shard_id in range(SHARDS):
        member = np.flatnonzero(owners == shard_id)
        if not len(member):
            partition_s.append(0.0)
            continue
        part_uids = [uids[i] for i in member]
        start = time.perf_counter()
        part_subgraphs, _pstats = computation_subgraphs_batch(
            shard_index, part_uids, hops=2, fanout=10, allowed=allowed
        )
        part_features = [
            data.features[[index[v] for v in sg.nodes]] for sg in part_subgraphs
        ]
        part_probs = model.predict_subgraphs(
            part_subgraphs, part_features, edge_type_order=data.edge_types
        )
        partition_s.append(time.perf_counter() - start)
        for j, i in enumerate(member):
            assert_sub = part_subgraphs[j]
            assert assert_sub.nodes == batch_subgraphs[i].nodes
            sharded_probs[int(i)] = part_probs[j]
    assert [sharded_probs[i] for i in range(len(uids))] == batch_probs, (
        "sharded predictions diverged from batched"
    )
    shard_serve_s = max(partition_s)
    return {
        "nodes": float(len(data.nodes)),
        "edges": float(data.bn.num_edges()),
        "logs": float(len(dataset.logs)),
        "ingest_s": ingest_seconds,
        "ingest_logs_per_s": len(dataset.logs) / ingest_seconds,
        "train_s_per_epoch": train_seconds,
        "sample_ms": 1000 * float(np.mean(sample_times)),
        "predict_ms": 1000 * float(np.mean(predict_times)),
        "batch_sample_ms": 1000 * batch_sample_s / len(uids),
        "batch_predict_ms": 1000 * batch_predict_s / len(uids),
        "shards": float(SHARDS),
        "shard_serve_ms": 1000 * shard_serve_s / len(uids),
        "subgraph_nodes": float(np.mean(sizes)),
    }


def run_sweep():
    return {scale: measure_at_scale(scale) for scale in SCALES}


def test_fig8b_scalability(benchmark):
    sweep = once(benchmark, run_sweep)
    emit_header("Fig. 8b — scalability of graph computing operations (wall clock)")
    emit(
        f"{'scale':>6}{'nodes':>8}{'edges':>9}{'ingest s':>10}{'logs/s':>9}"
        f"{'train s/ep':>12}{'sample ms':>11}{'predict ms':>12}"
        f"{'b.sample':>10}{'b.predict':>11}{'shards':>8}{'sh.serve':>10}"
        f"{'|G_v|':>8}"
    )
    for scale, row in sweep.items():
        emit(
            f"{scale:>6}{row['nodes']:>8.0f}{row['edges']:>9.0f}"
            f"{row['ingest_s']:>10.2f}{row['ingest_logs_per_s']:>9.0f}"
            f"{row['train_s_per_epoch']:>12.2f}{row['sample_ms']:>11.1f}"
            f"{row['predict_ms']:>12.1f}{row['batch_sample_ms']:>10.1f}"
            f"{row['batch_predict_ms']:>11.1f}{row['shards']:>8.0f}"
            f"{row['shard_serve_ms']:>10.1f}{row['subgraph_nodes']:>8.0f}"
        )
    emit()
    emit("Paper shape: training cost grows with BN size; per-request sampling")
    emit("and prediction latencies grow slowly (inductive, subgraph-bounded).")
    emit("b.sample / b.predict: the same 20 requests through the batched path")
    emit("(union-frontier sampling, one packed forward), amortized per request.")
    emit("sh.serve: the same requests partitioned by owner shard and served")
    emit("data-parallel off the one read index, deployment clock (slowest")
    emit("partition), amortized per request — bit-exact vs the batched path.")

    small, large = sweep[SCALES[0]], sweep[SCALES[-1]]
    population_growth = large["nodes"] / small["nodes"]
    # Shape 1: training cost grows with the graph.
    assert large["train_s_per_epoch"] > small["train_s_per_epoch"]
    # Shape 2: per-request prediction grows sublinearly vs the population
    # (it is bounded by the sampled subgraph, not the whole BN).
    predict_growth = large["predict_ms"] / max(small["predict_ms"], 1e-9)
    assert predict_growth < population_growth, (predict_growth, population_growth)
