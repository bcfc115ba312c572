#!/usr/bin/env python3
"""Quickstart: generate data, build BN, train HAG, evaluate, predict online.

Runs in about a minute on a laptop::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    get_method,
    make_d1,
    prepare_experiment,
    run_method,
)
from repro.network import FAST_WINDOWS, computation_subgraphs_batch


def main() -> None:
    # 1. A synthetic deposit-free leasing platform (Jimi-data substitute):
    #    normal users, households, fraud rings, public resources.
    print("Generating synthetic leasing platform data ...")
    dataset = make_d1(scale=0.25, seed=7)
    labels = dataset.labels
    print(
        f"  users={len(dataset.users)}  transactions={len(dataset.transactions)}"
        f"  behavior logs={len(dataset.logs)}  fraudsters={sum(labels.values())}"
    )

    # 2. Build the Behavior Network (Algorithm 1) + features + UID split.
    print("Building BN and features ...")
    data = prepare_experiment(dataset, windows=FAST_WINDOWS, seed=0)
    print(
        f"  BN: {data.bn.num_nodes()} nodes, {data.bn.num_edges()} typed edges,"
        f" {len(data.bn.edge_types())} edge types"
    )

    # 3. Train HAG and a couple of baselines; evaluate on held-out users.
    for name in ("LR", "GBDT", "HAG"):
        report, _scores = run_method(get_method(name), data, seed=0)
        row = report.as_percentages()
        print(
            f"  {name:<6} precision={row['Precision']:5.1f}  recall={row['Recall']:5.1f}"
            f"  F1={row['F1']:5.1f}  AUC={row['AUC']:5.1f}"
        )

    # 4. Inductive prediction: score one user from their sampled
    #    computation subgraph, exactly like the online BN server does.
    target = data.nodes[int(data.test_idx[0])]
    (subgraph,), _stats = computation_subgraphs_batch(
        data.bn.index(), [target], hops=2, fanout=25, allowed=set(data.nodes)
    )
    print(
        f"Sampled computation subgraph for user {target}: "
        f"{subgraph.num_nodes} nodes"
    )


if __name__ == "__main__":
    main()
