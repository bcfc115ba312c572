"""Empirical analyses of Section III-B (Fig. 4).

Four analyses over a dataset + its BN:

* **time burst** (Fig. 4a-b): dispersion of each user's log timestamps and
  their concentration around the application time;
* **temporal aggregation** (Fig. 4c): pairwise time intervals between logs of
  *different users* sharing the same ``(type, value)``;
* **homophily** (Fig. 4d-g): fraud ratio of the n-hop neighbourhood, overall
  and per edge type;
* **structural difference** (Fig. 4h-i): mean (weighted) degree of the n-th
  hop neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..datagen.behavior_types import BehaviorType
from ..datagen.entities import DAY, Dataset
from ..network.bn import BehaviorNetwork

__all__ = [
    "time_burst_summary",
    "temporal_aggregation_intervals",
    "hop_fraud_ratios",
    "hop_degrees",
]


@dataclass(slots=True)
class TimeBurstSummary:
    """Per-class activity dispersion (the Fig. 4a-b contrast)."""

    mean_span_days: float
    mean_std_days: float
    near_application_fraction: float
    n_users: int


def time_burst_summary(
    dataset: Dataset, fraud: bool, window_days: float = 3.0
) -> TimeBurstSummary:
    """Summarize log-time dispersion for one class of users.

    ``near_application_fraction`` is the share of a user's logs falling
    within ``window_days`` of their (first) application.
    """
    logs_by_user = dataset.logs_by_user()
    txns_by_user = dataset.transactions_by_user()
    labels = dataset.labels
    spans: list[float] = []
    stds: list[float] = []
    near: list[float] = []
    for uid, label in labels.items():
        if bool(label) != fraud:
            continue
        logs = logs_by_user.get(uid)
        txns = txns_by_user.get(uid)
        if not logs or not txns:
            continue
        times = np.asarray([log.timestamp for log in logs])
        spans.append(float(times.max() - times.min()) / DAY)
        stds.append(float(times.std()) / DAY)
        app_time = min(t.created_at for t in txns)
        near.append(float(np.mean(np.abs(times - app_time) <= window_days * DAY)))
    if not spans:
        raise ValueError("no users of the requested class")
    return TimeBurstSummary(
        mean_span_days=float(np.mean(spans)),
        mean_std_days=float(np.mean(stds)),
        near_application_fraction=float(np.mean(near)),
        n_users=len(spans),
    )


def temporal_aggregation_intervals(
    dataset: Dataset,
    btype: BehaviorType,
    fraud_pairs: bool,
    max_pairs_per_value: int = 200,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Pairwise |Δt| (days) between different users' logs sharing a value.

    ``fraud_pairs`` selects pairs where both users are fraudsters (versus
    both normal); mixed pairs are skipped, matching Fig. 4c's two series.
    """
    rng = rng or np.random.default_rng(0)
    labels = dataset.labels
    by_value: dict[str, list[tuple[int, float]]] = {}
    for log in dataset.logs:
        if log.btype != btype:
            continue
        if log.uid not in labels:
            continue
        by_value.setdefault(log.value, []).append((log.uid, log.timestamp))

    intervals: list[float] = []
    for entries in by_value.values():
        users = {uid for uid, _ in entries}
        if len(users) < 2:
            continue
        if len(entries) > 60:
            chosen = rng.choice(len(entries), size=60, replace=False)
            entries = [entries[i] for i in chosen]
        count = 0
        for i, (u, tu) in enumerate(entries):
            for v, tv in entries[i + 1 :]:
                if u == v:
                    continue
                both_fraud = labels[u] == 1 and labels[v] == 1
                both_normal = labels[u] == 0 and labels[v] == 0
                if (fraud_pairs and both_fraud) or (not fraud_pairs and both_normal):
                    intervals.append(abs(tu - tv) / DAY)
                    count += 1
                    if count >= max_pairs_per_value:
                        break
            if count >= max_pairs_per_value:
                break
    return np.asarray(intervals)


def hop_fraud_ratios(
    bn: BehaviorNetwork,
    labels: dict[int, int],
    fraud: bool,
    max_hops: int = 3,
    btype: BehaviorType | None = None,
    max_seeds: int = 500,
    rng: np.random.Generator | None = None,
) -> list[float]:
    """Mean fraud ratio among exactly-n-hop neighbours, n = 1..max_hops.

    Restricting to ``btype`` gives the per-type homophily of Fig. 4e-g.
    """
    rng = rng or np.random.default_rng(0)
    seeds = [u for u, l in labels.items() if bool(l) == fraud and u in bn]
    if len(seeds) > max_seeds:
        chosen = rng.choice(len(seeds), size=max_seeds, replace=False)
        seeds = [seeds[i] for i in chosen]
    allowed = set(labels)
    ratios: list[list[float]] = [[] for _ in range(max_hops)]
    for seed in seeds:
        distances = _khop(bn, seed, max_hops, allowed, btype)
        for hop in range(1, max_hops + 1):
            at_hop = [v for v, d in distances.items() if d == hop]
            if at_hop:
                ratios[hop - 1].append(
                    float(np.mean([labels[v] for v in at_hop]))
                )
    return [float(np.mean(r)) if r else float("nan") for r in ratios]


def hop_degrees(
    bn: BehaviorNetwork,
    labels: dict[int, int],
    fraud: bool,
    max_hops: int = 3,
    weighted: bool = False,
    max_seeds: int = 400,
    rng: np.random.Generator | None = None,
) -> list[float]:
    """Mean (weighted) degree of exactly-n-hop neighbours (Fig. 4h-i).

    Hop 0 would be the seeds themselves; the returned list starts at hop 1.
    """
    rng = rng or np.random.default_rng(0)
    seeds = [u for u, l in labels.items() if bool(l) == fraud and u in bn]
    if len(seeds) > max_seeds:
        chosen = rng.choice(len(seeds), size=max_seeds, replace=False)
        seeds = [seeds[i] for i in chosen]
    allowed = set(labels)
    values: list[list[float]] = [[] for _ in range(max_hops + 1)]
    for seed in seeds:
        distances = _khop(bn, seed, max_hops, allowed, None)
        for node, hop in distances.items():
            metric = (
                bn.weighted_degree(node) if weighted else float(bn.degree(node))
            )
            values[hop].append(metric)
    return [float(np.mean(v)) if v else float("nan") for v in values]


def _khop(
    bn: BehaviorNetwork,
    seed: int,
    max_hops: int,
    allowed: set[int],
    btype: BehaviorType | None,
) -> dict[int, int]:
    distances = {seed: 0}
    frontier = [seed]
    for depth in range(1, max_hops + 1):
        next_frontier: list[int] = []
        for node in frontier:
            for neighbor in bn.neighbors(node, btype):
                if neighbor in distances or neighbor not in allowed:
                    continue
                distances[neighbor] = depth
                next_frontier.append(neighbor)
        frontier = next_frontier
    return distances
