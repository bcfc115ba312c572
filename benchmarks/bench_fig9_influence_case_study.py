"""E12 — Fig. 9: influence distributions on a fraud-ring subgraph.

The paper visualizes the influence distribution (Definition 1) of the nodes
in a detected ring's subgraph as a heat map: the block of fraud nodes shows
larger mutual influence than their influence exchange with normal nodes —
HAG captures how fraudsters drive each other's embeddings.
"""

from __future__ import annotations

import numpy as np

from repro.core import HAG, TrainConfig, prepare_aggregators, train_node_classifier
from repro.core.influence import influence_distribution
from repro.network import computation_subgraphs_batch

from _shared import SCALE, d1_experiment, emit, emit_header, once


def run_case_study():
    data = d1_experiment()
    labels_map = data.dataset.labels
    model = HAG(
        data.features.shape[1],
        n_types=len(data.edge_types),
        rng=np.random.default_rng(0),
        hidden=(16, 8),
        att_dim=8,
        cfo_att_dim=8,
        cfo_out_dim=4,
        mlp_hidden=(8,),
    )
    aggregators = prepare_aggregators([data.adjacencies[t] for t in data.edge_types])
    train_node_classifier(
        model,
        lambda x: model.forward(x, aggregators),
        data.features,
        data.labels,
        data.train_idx,
        data.val_idx,
        TrainConfig(epochs=30, lr=5e-3, patience=10, pos_weight=data.pos_weight() ** 2),
    )

    # Pick a ring member and sample a modest case-study subgraph around it.
    rings: dict[int, list[int]] = {}
    for user in data.dataset.users:
        if user.ring_id is not None and user.is_fraud:
            rings.setdefault(user.ring_id, []).append(user.uid)
    ring_id, members = max(rings.items(), key=lambda kv: len(kv[1]))
    (subgraph,), _stats = computation_subgraphs_batch(
        data.bn.index(), [members[0]], hops=2, fanout=6, allowed=set(data.nodes)
    )
    index = {uid: i for i, uid in enumerate(data.nodes)}
    features = data.features[[index[v] for v in subgraph.nodes]]
    sub_aggs = prepare_aggregators([subgraph.adjacency[t] for t in data.edge_types])
    forward = lambda x: model.embeddings(x, sub_aggs)

    node_labels = np.array([labels_map[v] for v in subgraph.nodes])
    fraud_positions = np.flatnonzero(node_labels == 1)[:8]
    normal_positions = np.flatnonzero(node_labels == 0)[:8]
    # Columns of the Fig. 9b heat map: one influence distribution per node.
    columns = {}
    for position in list(fraud_positions) + list(normal_positions):
        columns[int(position)] = influence_distribution(
            forward, features, node=int(position)
        )
    return subgraph, node_labels, fraud_positions, normal_positions, columns


def test_fig9_influence_case_study(benchmark):
    subgraph, node_labels, fraud_pos, normal_pos, columns = once(
        benchmark, run_case_study
    )
    n_fraud = int(node_labels.sum())
    emit_header(
        f"Fig. 9 — influence case study: subgraph of {subgraph.num_nodes} nodes,"
        f" {n_fraud} fraudulent (scale={SCALE})"
    )
    fraud_set = set(int(i) for i in fraud_pos)
    fraud_block, cross_block = [], []
    for position, dist in columns.items():
        for j, share in enumerate(dist):
            if j == position:
                continue
            if position in fraud_set and j in fraud_set:
                fraud_block.append(share)
            elif position in fraud_set:
                cross_block.append(share)
    emit(
        f"mean pairwise influence: fraud->fraud {np.mean(fraud_block):.4f}"
        f"  vs fraud->normal {np.mean(cross_block):.4f}"
    )
    self_share = np.mean([columns[int(i)][int(i)] for i in fraud_pos])
    emit(f"mean self-influence of fraud nodes: {self_share:.3f}")
    emit()
    emit("Paper shape: values inside the fraud block of the heat map exceed")
    emit("those outside — fraud nodes influence each other more.")

    # Shape: the fraud block is hotter than the fraud-normal block.
    assert len(fraud_block) > 0 and len(cross_block) > 0
    assert np.mean(fraud_block) > np.mean(cross_block)
