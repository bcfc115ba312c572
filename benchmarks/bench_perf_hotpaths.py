"""Hot-path perf harness: BN export, k-hop sampling, induction, epoch time.

Times the vectorized BN→GNN fast path against the retained reference
implementations at a 50k-node synthetic scale and writes the results to
``BENCH_perf_hotpaths.json`` in the repository root, establishing the perf
trajectory for future PRs.

Two synthetic graphs are used, matching the two regimes the paper's BN
exhibits (Section III):

* a sparse random graph with public-resource-style hubs (WiFi/locations
  shared by hundreds of users) — stresses fanout capping and drives the
  sampling + induction workloads;
* a clique-community graph (implicit relations connect every pair of users
  sharing a resource, Theorem 1) — drives the training-epoch workload,
  where k-hop expansion keeps re-visiting mostly-seen clique members.

Run it either way::

    pytest -m slow benchmarks/bench_perf_hotpaths.py      # as a slow test
    PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py   # as a script

Acceptance gates run through the uniform ``_shared.check_gates`` contract:
each gated ratio prints its delta
against the previously committed JSON and both modes exit nonzero when any
gate regresses — the ≥5× aggregate pipeline and ≥2× epoch targets plus
not-slower floors on every other vectorized path.  Scale knobs:

* ``REPRO_BENCH_HOTPATH_NODES`` — node count (default 50 000);
* ``REPRO_BENCH_HOTPATH_REPEATS`` — timing repeats (default 3, best-of).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro import nn
from repro.core import (
    HAG,
    induced_adjacencies,
    induced_adjacencies_reference,
    neighbor_mean_matrix,
    prepare_aggregators,
    sample_khop_nodes,
    sample_khop_nodes_reference,
)
from repro.datagen import BehaviorType
from repro.network import (
    BehaviorNetwork,
    typed_adjacency,
    typed_adjacency_reference,
)

from _shared import Gate, check_gates, emit, emit_header

N_NODES = int(os.environ.get("REPRO_BENCH_HOTPATH_NODES", "50000"))
REPEATS = int(os.environ.get("REPRO_BENCH_HOTPATH_REPEATS", "3"))
EDGE_TYPES = tuple(BehaviorType)[:3]
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf_hotpaths.json"

# Serving-style minibatch workloads (paper protocol: 2-hop computation
# subgraphs; the 3-hop variants document how the gap widens with depth).
MB_BATCH = 256
MB_BATCHES = 4
MB_FANOUT = 10
COHORT_SIZE = 4096

# Training-epoch workload on the clique-community graph.
EPOCH_CLIQUE = 8
EPOCH_CROSS_FRAC = 0.02
EPOCH_BATCH = 512
EPOCH_TRAIN = 2048
EPOCH_HOPS = 2
EPOCH_FANOUT = 5


def best_of(fn, repeats: int = REPEATS) -> float:
    """Best wall-clock of ``repeats`` runs (reduces scheduler noise)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


# ----------------------------------------------------------------------
# Synthetic 50k-node workloads
# ----------------------------------------------------------------------
def synthetic_bn(n: int, seed: int = 0) -> BehaviorNetwork:
    """A BN with ``~3n`` typed pairs plus public-resource-style hubs."""
    rng = np.random.default_rng(seed)
    bn = BehaviorNetwork()
    for uid in range(n):
        bn.add_node(uid)
    for t_index, btype in enumerate(EDGE_TYPES):
        u = rng.integers(0, n, size=3 * n)
        v = rng.integers(0, n, size=3 * n)
        keep = u != v
        w = rng.random(keep.sum()) + 0.05
        ts = rng.random(keep.sum()) * 100.0
        for uu, vv, ww, tt in zip(u[keep], v[keep], w, ts):
            bn.add_weight(int(uu), int(vv), btype, float(ww), float(tt))
    return bn


def synthetic_adjacencies(
    n: int, seed: int = 0, hubs: int = 50, hub_degree: int = 400
) -> list[sp.csr_matrix]:
    """Per-type sparse CSR graphs with heavy hubs to stress the fanout.

    ``2n`` random explicit-relation pairs per type (the BN's person-to-person
    edges are sparse) plus ``hubs`` public-resource nodes of degree
    ``hub_degree`` whose rows exercise the wide-segment top-k path.
    """
    rng = np.random.default_rng(seed)
    matrices = []
    for t in range(len(EDGE_TYPES)):
        u = rng.integers(0, n, size=2 * n)
        v = rng.integers(0, n, size=2 * n)
        w = rng.random(len(u)) + 0.05
        hub_u = np.repeat(rng.choice(n, size=hubs, replace=False), hub_degree)
        hub_v = rng.integers(0, n, size=hubs * hub_degree)
        hub_w = rng.random(len(hub_u)) + 0.05
        rows = np.concatenate([u, hub_u])
        cols = np.concatenate([v, hub_v])
        data = np.concatenate([w, hub_w])
        a = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        a.sum_duplicates()
        matrices.append(a)
    return matrices


def clique_adjacencies(
    n: int, g: int = EPOCH_CLIQUE, cross_frac: float = EPOCH_CROSS_FRAC, seed: int = 7
) -> list[sp.csr_matrix]:
    """Implicit-relation clique communities shared across edge types.

    Section III's implicit relations connect every pair of users who
    touched the same resource, so one shared resource yields the same
    clique under each relation type (with type-specific weights); a small
    fraction of cross-community pairs keeps the graph connected.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    rows, cols = [], []
    for start in range(0, n - g + 1, g):
        members = perm[start : start + g]
        r = np.repeat(members, g)
        c = np.tile(members, g)
        keep = r != c
        rows.append(r[keep])
        cols.append(c[keep])
    m = int(cross_frac * n)
    base_r = np.concatenate(rows)
    base_c = np.concatenate(cols)
    matrices = []
    for t in range(len(EDGE_TYPES)):
        cross_r = rng.integers(0, n, size=m)
        cross_c = rng.integers(0, n, size=m)
        r = np.concatenate([base_r, cross_r])
        c = np.concatenate([base_c, cross_c])
        w = rng.random(len(r)) + 0.05
        a = sp.coo_matrix((w, (r, c)), shape=(n, n)).tocsr()
        a.sum_duplicates()
        matrices.append(a)
    return matrices


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def bench_adjacency_export(bn: BehaviorNetwork) -> dict:
    nodes = bn.nodes()

    def vector_cold():
        bn._index = None  # force a rebuild: cold = read index + snapshot + export
        typed_adjacency(bn, nodes, EDGE_TYPES)

    reference_s = best_of(lambda: typed_adjacency_reference(bn, nodes, EDGE_TYPES))
    cold_s = best_of(vector_cold)
    warm_s = best_of(lambda: typed_adjacency(bn, nodes, EDGE_TYPES))
    return {
        "reference_s": reference_s,
        "vectorized_cold_s": cold_s,
        "vectorized_warm_s": warm_s,
        "speedup_cold": reference_s / cold_s,
        "speedup_warm": reference_s / warm_s,
    }


def bench_sampling_induction(adjacencies: list[sp.csr_matrix], rng) -> dict:
    """Sampling + induction pipeline across serving-style workloads.

    Each workload times the two hot-path stages separately and as a
    pipeline.  The ``aggregate`` entry pools all workloads (total reference
    pipeline time over total vectorized pipeline time) — that pooled ratio
    is the ISSUE's ≥5× acceptance gate.  Induction is near-parity by
    construction (the reference ``np.ix_`` path is already C-level scipy),
    so the pipeline ratios are sampling-driven.
    """
    seed_batches = [
        rng.choice(N_NODES, size=MB_BATCH, replace=False) for _ in range(MB_BATCHES)
    ]
    cohort = rng.choice(N_NODES, size=COHORT_SIZE, replace=False)
    workloads = {
        "minibatch_hop2": (seed_batches, 2, MB_FANOUT),
        "minibatch_hop3": (seed_batches, 3, MB_FANOUT),
        "cohort_hop2": ([cohort], 2, None),
        "cohort_hop3": ([cohort], 3, None),
    }

    results = {}
    totals = {"ref_sample": 0.0, "vec_sample": 0.0, "ref_induce": 0.0, "vec_induce": 0.0}
    for name, (batches, hops, fanout) in workloads.items():
        node_sets = [sample_khop_nodes(adjacencies, b, hops, fanout) for b in batches]

        def run_sample(fn):
            for b in batches:
                fn(adjacencies, b, hops, fanout)

        def run_induce(fn):
            for nodes in node_sets:
                fn(adjacencies, nodes)

        ref_sample = best_of(lambda: run_sample(sample_khop_nodes_reference))
        vec_sample = best_of(lambda: run_sample(sample_khop_nodes))
        ref_induce = best_of(lambda: run_induce(induced_adjacencies_reference))
        vec_induce = best_of(lambda: run_induce(induced_adjacencies))
        totals["ref_sample"] += ref_sample
        totals["vec_sample"] += vec_sample
        totals["ref_induce"] += ref_induce
        totals["vec_induce"] += vec_induce
        results[name] = {
            "hops": hops,
            "fanout": fanout,
            "subgraph_nodes": int(sum(len(nodes) for nodes in node_sets)),
            "sample_reference_s": ref_sample,
            "sample_vectorized_s": vec_sample,
            "sample_speedup": ref_sample / vec_sample,
            "induce_reference_s": ref_induce,
            "induce_vectorized_s": vec_induce,
            "pipeline_reference_s": ref_sample + ref_induce,
            "pipeline_vectorized_s": vec_sample + vec_induce,
            "pipeline_speedup": (ref_sample + ref_induce) / (vec_sample + vec_induce),
        }

    ref_pipeline = totals["ref_sample"] + totals["ref_induce"]
    vec_pipeline = totals["vec_sample"] + totals["vec_induce"]
    results["aggregate"] = {
        "sample_speedup": totals["ref_sample"] / totals["vec_sample"],
        "pipeline_reference_s": ref_pipeline,
        "pipeline_vectorized_s": vec_pipeline,
        "pipeline_speedup": ref_pipeline / vec_pipeline,
    }
    return results


def _make_model(in_dim: int) -> HAG:
    return HAG(
        in_dim,
        n_types=len(EDGE_TYPES),
        rng=np.random.default_rng(0),
        hidden=(8,),
        att_dim=4,
        cfo_att_dim=4,
        cfo_out_dim=4,
        mlp_hidden=(4,),
    )


def _run_epoch(
    model: HAG,
    adjacencies,
    features: np.ndarray,
    labels: np.ndarray,
    train_idx: np.ndarray,
    sampler,
    inducer,
    aggregator_factory,
) -> None:
    # Deterministic top-k fanout: the regime the vectorization targets.
    # (Weighted draws must consume the rng stream per oversized segment for
    # reference parity, so they stay loop-shaped on both paths; the
    # equivalence tests cover them.)
    optimizer = nn.Adam(model.parameters(), lr=1e-3)
    for start in range(0, len(train_idx), EPOCH_BATCH):
        batch = train_idx[start : start + EPOCH_BATCH]
        nodes = sampler(adjacencies, batch, EPOCH_HOPS, EPOCH_FANOUT, None)
        aggregators = aggregator_factory(inducer(adjacencies, nodes))
        x = nn.Tensor(features[nodes])
        optimizer.zero_grad()
        logits = model.forward(x, aggregators)
        loss = nn.bce_with_logits(
            logits.index_select(np.arange(len(batch))), labels[batch]
        )
        loss.backward()
        optimizer.step()


def bench_epoch(adjacencies: list[sp.csr_matrix], n: int) -> dict:
    rng = np.random.default_rng(3)
    features = rng.normal(size=(n, 8))
    labels = (rng.random(n) < 0.1).astype(np.float64)
    train_idx = rng.choice(n, size=EPOCH_TRAIN, replace=False)

    def reference_epoch():
        _run_epoch(
            _make_model(features.shape[1]),
            adjacencies,
            features,
            labels,
            train_idx,
            sample_khop_nodes_reference,
            induced_adjacencies_reference,
            lambda adjs: [neighbor_mean_matrix(a) for a in adjs],  # raw CSR path
        )

    def fast_epoch():
        _run_epoch(
            _make_model(features.shape[1]),
            adjacencies,
            features,
            labels,
            train_idx,
            sample_khop_nodes,
            induced_adjacencies,
            prepare_aggregators,
        )

    reference_s = best_of(reference_epoch)
    vectorized_s = best_of(fast_epoch)
    return {
        "clique_size": EPOCH_CLIQUE,
        "batch": EPOCH_BATCH,
        "train_nodes": EPOCH_TRAIN,
        "hops": EPOCH_HOPS,
        "fanout": EPOCH_FANOUT,
        "reference_s": reference_s,
        "vectorized_s": vectorized_s,
        "speedup": reference_s / vectorized_s,
    }


def bench_transpose_counter(adjacencies: list[sp.csr_matrix]) -> dict:
    """Pin the spmm transpose contract at benchmark scale."""
    n = adjacencies[0].shape[0]
    sub = induced_adjacencies(adjacencies, np.arange(min(n, 2000)))
    aggregators = prepare_aggregators(sub)
    model = _make_model(16)
    x = np.random.default_rng(0).normal(size=(sub[0].shape[0], 16))

    nn.reset_transpose_conversion_count()
    model.predict_proba(x, aggregators)
    no_grad_count = nn.transpose_conversion_count()

    nn.reset_transpose_conversion_count()
    for _ in range(3):  # three training steps reuse the same aggregators
        logits = model.forward(nn.Tensor(x), aggregators)
        logits.sum().backward()
    training_count = nn.transpose_conversion_count()
    nn.reset_transpose_conversion_count()
    return {
        "no_grad_conversions": no_grad_count,
        "training_conversions": training_count,
        "aggregators": len(aggregators),
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_harness() -> dict:
    emit_header(f"Hot-path perf harness — {N_NODES} nodes, {len(EDGE_TYPES)} types")
    rng = np.random.default_rng(0)

    emit("building synthetic BN + adjacencies ...")
    bn = synthetic_bn(min(N_NODES, 20000))  # BN build is Python-loop bound
    adjacencies = synthetic_adjacencies(N_NODES)

    sections = {}
    sections["adjacency_export"] = bench_adjacency_export(bn)
    emit(
        "adjacency export   ref {reference_s:.3f}s  cold {vectorized_cold_s:.3f}s "
        "({speedup_cold:.1f}x)  warm {vectorized_warm_s:.3f}s ({speedup_warm:.1f}x)".format(
            **sections["adjacency_export"]
        )
    )
    sections["sampling_induction"] = bench_sampling_induction(adjacencies, rng)
    for name, row in sections["sampling_induction"].items():
        if name == "aggregate":
            continue
        emit(
            f"{name:18s} sample {row['sample_reference_s'] * 1e3:7.1f}ms → "
            f"{row['sample_vectorized_s'] * 1e3:6.1f}ms ({row['sample_speedup']:.1f}x)  "
            f"pipeline {row['pipeline_speedup']:.1f}x"
        )
    agg = sections["sampling_induction"]["aggregate"]
    emit(
        "aggregate          sample {sample_speedup:.1f}x  pipeline "
        "{pipeline_reference_s:.3f}s → {pipeline_vectorized_s:.3f}s "
        "({pipeline_speedup:.1f}x)".format(**agg)
    )

    clique = clique_adjacencies(N_NODES)
    sections["epoch"] = bench_epoch(clique, N_NODES)
    emit(
        "sampled epoch      ref {reference_s:.3f}s  vec {vectorized_s:.3f}s "
        "({speedup:.1f}x)  [clique graph, g={clique_size}]".format(**sections["epoch"])
    )
    sections["spmm_transpose"] = bench_transpose_counter(adjacencies)
    emit(
        "spmm transposes    no_grad {no_grad_conversions}  "
        "training(3 steps) {training_conversions} (aggregators {aggregators})".format(
            **sections["spmm_transpose"]
        )
    )

    workload_rows = [
        row
        for name, row in sections["sampling_induction"].items()
        if name != "aggregate"
    ]
    result = {
        "n_nodes": N_NODES,
        "n_edge_types": len(EDGE_TYPES),
        "sections": sections,
    }
    gates = [
        Gate("aggregate_pipeline_speedup", agg["pipeline_speedup"], 5.0),
        Gate("epoch_speedup", sections["epoch"]["speedup"], 2.0),
        Gate(
            "adjacency_export_warm_not_slower",
            sections["adjacency_export"]["speedup_warm"],
            1.0,
        ),
        Gate(
            "workload_pipelines_not_slower",
            min(row["pipeline_speedup"] for row in workload_rows),
            1.0,
        ),
    ]
    gates_ok = check_gates(gates, result, RESULT_PATH)
    # Legacy summary flags (kept for downstream readers of the JSON).
    result["vectorized_not_slower"] = all(
        result["gates"][name]["passed"]
        for name in (
            "adjacency_export_warm_not_slower",
            "workload_pipelines_not_slower",
        )
    ) and result["gates"]["epoch_speedup"]["value"] >= 1.0
    result["issue1_targets_met"] = (
        result["gates"]["aggregate_pipeline_speedup"]["passed"]
        and result["gates"]["epoch_speedup"]["passed"]
    )
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    return result


@pytest.mark.slow
def test_perf_hotpaths():
    result = run_harness()
    assert result["gates_met"], (
        "hot-path perf gates failed — see gate lines above: "
        f"{json.dumps(result['gates'], indent=2)}"
    )
    assert result["sections"]["spmm_transpose"]["no_grad_conversions"] == 0
    assert (
        result["sections"]["spmm_transpose"]["training_conversions"]
        <= result["sections"]["spmm_transpose"]["aggregators"]
    )


if __name__ == "__main__":
    outcome = run_harness()
    if not outcome["gates_met"]:
        emit("FAIL: hot-path perf gates not met")
        sys.exit(1)
    emit("OK")
