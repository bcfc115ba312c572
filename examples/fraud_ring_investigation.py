#!/usr/bin/env python3
"""Investigate a fraud ring: empirical patterns + influence analysis.

Walks through the analyses of Section III-B and the Fig. 9 case study on a
synthetic dataset: find the ring with the most members, examine its temporal
and topological footprint in BN, train a small HAG, and compute the
influence distribution across the ring's computation subgraph.
"""

from __future__ import annotations

import numpy as np

from repro import HAG, make_d1, prepare_aggregators, prepare_experiment
from repro.core import TrainConfig, train_node_classifier
from repro.core.influence import influence_distribution
from repro.datagen import DAY
from repro.eval.empirical import hop_fraud_ratios, time_burst_summary
from repro.network import FAST_WINDOWS, computation_subgraphs_batch


def main() -> None:
    dataset = make_d1(scale=0.25, seed=21)
    data = prepare_experiment(dataset, windows=FAST_WINDOWS, seed=0)
    labels = dataset.labels

    # ------------------------------------------------------------------
    # 1. Empirical patterns (Section III-B)
    # ------------------------------------------------------------------
    fraud_burst = time_burst_summary(dataset, fraud=True)
    normal_burst = time_burst_summary(dataset, fraud=False)
    print("Time-burst pattern (Fig. 4a-b):")
    print(
        f"  fraudsters: {100 * fraud_burst.near_application_fraction:.0f}% of logs"
        f" within 3 days of application (std {fraud_burst.mean_std_days:.1f} d)"
    )
    print(
        f"  normal:     {100 * normal_burst.near_application_fraction:.0f}%"
        f" (std {normal_burst.mean_std_days:.1f} d)"
    )

    fraud_hops = hop_fraud_ratios(data.bn, labels, fraud=True, max_hops=3)
    normal_hops = hop_fraud_ratios(data.bn, labels, fraud=False, max_hops=3)
    print("Homophily (Fig. 4d): fraud ratio around fraud vs normal seeds")
    for hop, (f, n) in enumerate(zip(fraud_hops, normal_hops), start=1):
        print(f"  hop {hop}:  fraud-seeded {f:.3f}   normal-seeded {n:.3f}")

    # ------------------------------------------------------------------
    # 2. Pick the biggest ring and inspect its footprint
    # ------------------------------------------------------------------
    rings: dict[int, list[int]] = {}
    for user in dataset.users:
        if user.ring_id is not None:
            rings.setdefault(user.ring_id, []).append(user.uid)
    ring_id, members = max(rings.items(), key=lambda kv: len(kv[1]))
    apps = [
        t.created_at
        for t in dataset.transactions
        if t.uid in set(members)
    ]
    print(
        f"\nLargest ring #{ring_id}: {len(members)} members, applications span"
        f" {(max(apps) - min(apps)) / DAY:.1f} days"
    )
    member = members[0]
    (subgraph,), _stats = computation_subgraphs_batch(
        data.bn.index(), [member], hops=2, fanout=None, allowed=set(data.nodes)
    )
    in_ring = sum(1 for v in subgraph.nodes if v in set(members))
    print(
        f"  computation subgraph of member {member}: {subgraph.num_nodes} nodes,"
        f" {in_ring} of them co-ring"
    )

    # ------------------------------------------------------------------
    # 3. Train a small HAG and compute influence (Fig. 9)
    # ------------------------------------------------------------------
    print("\nTraining HAG for the influence case study ...")
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
        TrainConfig(epochs=40, lr=5e-3, patience=15, pos_weight=data.pos_weight() ** 2),
    )

    index = {uid: i for i, uid in enumerate(data.nodes)}
    sub_features = data.features[[index[v] for v in subgraph.nodes]]
    sub_aggs = prepare_aggregators([subgraph.adjacency[t] for t in data.edge_types])
    node_pos = {uid: i for i, uid in enumerate(subgraph.nodes)}
    ring_positions = [node_pos[v] for v in subgraph.nodes if v in set(members)]

    from repro.nn import Tensor

    forward = lambda x: model.embeddings(x, sub_aggs)
    dist = influence_distribution(forward, sub_features, node=node_pos[member])
    ring_influence = dist[ring_positions].sum()
    print(
        f"Influence on member {member}'s embedding: {100 * ring_influence:.0f}% comes"
        f" from co-ring nodes ({len(ring_positions)}/{subgraph.num_nodes} of the subgraph)"
    )
    top = np.argsort(-dist)[:5]
    print("  top influencers (node, share, is_ring):")
    for position in top:
        uid = subgraph.nodes[position]
        print(
            f"    {uid:>6}  {dist[position]:.3f}  {uid in set(members)}"
        )


if __name__ == "__main__":
    main()
