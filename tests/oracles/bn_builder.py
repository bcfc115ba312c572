"""The per-pair Python loops ``repro.network.builder``'s vectorized paths replaced.

Moved unchanged out of ``BNBuilder`` (``self`` became the ``builder``
argument) once no benchmark timed them: the original dict accumulation of
the batch build, the scalar ``add_weight`` window job and the per-log
replay with full-scan expiry.  They are the definition of "right" for
:meth:`~repro.network.builder.BNBuilder.build`,
:meth:`~repro.network.builder.BNBuilder.run_window_job` and
:meth:`~repro.network.builder.BNBuilder.replay`: identical edge sets,
weights and timestamps, down to the last ulp.  The full-scan expiry,
once ``BehaviorNetwork._expire_edges_scan``, is the twin of
:meth:`~repro.network.bn.BehaviorNetwork.expire_edges`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

import numpy as np

from repro.datagen.behavior_types import BehaviorType
from repro.datagen.entities import BehaviorLog
from repro.network.bn import BehaviorNetwork
from repro.network.builder import BNBuilder


def _share(builder: BNBuilder, group_size: int) -> float:
    return 1.0 / group_size if builder.weighting == "inverse" else 1.0


def build_reference(
    builder: BNBuilder, logs: Iterable[BehaviorLog], bn: BehaviorNetwork | None = None
) -> BehaviorNetwork:
    """Pinned loop twin of :meth:`BNBuilder.build` (original per-pair Python)."""
    if bn is None:
        bn = BehaviorNetwork(ttl=builder.ttl)
    for btype, (uids, values, times) in builder._bucket_by_type(logs, bn).items():
        if not uids:
            continue
        _build_type_reference(builder, bn, btype, uids, values, times)
    return bn


def _build_type_reference(
    builder: BNBuilder,
    bn: BehaviorNetwork,
    btype: BehaviorType,
    uids: list[int],
    values: list[str],
    times: list[float],
) -> None:
    """Original dict accumulation: scalar ``add_weight`` per pair."""
    uid_arr = np.asarray(uids, dtype=np.int64)
    time_arr = np.asarray(times, dtype=np.float64)
    value_codes = builder._encode_values(values)

    # pair -> [accumulated weight, latest contribution time]
    accum: dict[tuple[int, int], list[float]] = defaultdict(lambda: [0.0, 0.0])
    for window in builder.windows:
        _accumulate_window_reference(
            builder, accum, window, uid_arr, value_codes, time_arr
        )
    for (u, v), (weight, ts) in accum.items():
        bn.add_weight(u, v, btype, weight, ts)


def _accumulate_window_reference(
    builder: BNBuilder,
    accum: dict[tuple[int, int], list[float]],
    window: float,
    uid_arr: np.ndarray,
    value_codes: np.ndarray,
    time_arr: np.ndarray,
) -> None:
    """Original nested ``for i / for j`` pair loops over one window."""
    members, starts, counts, epochs = builder._window_groups(
        window, uid_arr, value_codes, time_arr
    )
    eligible = (counts >= 2) & (counts <= builder.max_clique_size)
    for start, count, epoch in zip(
        starts[eligible], counts[eligible], epochs[eligible]
    ):
        users = members[start : start + count]
        epoch_end = builder.origin + (int(epoch) + 1) * window
        share = _share(builder, int(count))
        for i in range(count):
            u = int(users[i])
            for j in range(i + 1, count):
                entry = accum[(u, int(users[j]))]
                entry[0] += share
                entry[1] = max(entry[1], epoch_end)


def run_window_job_reference(
    builder: BNBuilder,
    bn: BehaviorNetwork,
    logs: Iterable[BehaviorLog],
    window: float,
    job_end: float,
) -> int:
    """Pinned loop twin of :meth:`BNBuilder.run_window_job` (scalar mutations)."""
    if window not in builder.windows:
        raise ValueError(f"window {window} is not one of the builder's windows")
    lo = job_end - window
    groups: dict[tuple[BehaviorType, str], set[int]] = defaultdict(set)
    for log in logs:
        if log.btype not in builder.edge_types:
            continue
        if not lo < log.timestamp <= job_end:
            continue
        bn.add_node(log.uid)
        groups[(log.btype, log.value)].add(log.uid)

    contributions = 0
    for (btype, _value), users in groups.items():
        n = len(users)
        if n < 2 or n > builder.max_clique_size:
            continue
        share = _share(builder, n)
        members = sorted(users)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                bn.add_weight(u, v, btype, share, job_end)
                contributions += 1
    return contributions


def replay_reference(
    builder: BNBuilder,
    logs: Sequence[BehaviorLog],
    until: float,
    bn: BehaviorNetwork | None = None,
    expire: bool = True,
) -> BehaviorNetwork:
    """Pinned twin of :meth:`BNBuilder.replay`: per-log bucketing, scalar jobs,
    full-scan expiry."""
    if bn is None:
        bn = BehaviorNetwork(ttl=builder.ttl)
    for window in builder.windows:
        first = (
            int(np.floor((min(l.timestamp for l in logs) - builder.origin) / window))
            if logs
            else 0
        )
        last = int(np.floor((until - builder.origin) / window))
        buckets: dict[int, list[BehaviorLog]] = defaultdict(list)
        for log in logs:
            epoch = int(np.floor((log.timestamp - builder.origin) / window))
            if first <= epoch < last:
                buckets[epoch].append(log)
        for epoch, epoch_logs in sorted(buckets.items()):
            job_end = builder.origin + (epoch + 1) * window
            run_window_job_reference(builder, bn, epoch_logs, window, job_end)
    if expire:
        expire_edges_scan(bn, until)
    return bn


def expire_edges_scan(bn: BehaviorNetwork, now: float) -> int:
    """Pinned twin of :meth:`BehaviorNetwork.expire_edges`: a full scan over
    every typed edge instead of the expiry buckets.

    Leaves the network as the indexed sweep does — removals, edge counter,
    delta counts, change log and version bump.
    """
    cutoff = now - bn.ttl
    touched: list[tuple[int, int]] = []
    dead_pairs: list[tuple[int, int]] = []
    for pair, records in bn._edges.items():
        stale = [t for t, rec in records.items() if rec.last_update < cutoff]
        for t in stale:
            del records[t]
            touched.append(pair)
            if bn._delta is not None:
                bn._delta_touch_pair(pair[0], pair[1])
        if not records:
            dead_pairs.append(pair)
    for u, v in dead_pairs:
        del bn._edges[(u, v)]
        bn._pair_seq.pop((u, v), None)
        bn._adjacency[u].pop(v, None)
        bn._adjacency[v].pop(u, None)
    bn._num_edges -= len(touched)
    if touched:
        bn._log_changes(touched)
        bn._version += 1
    return len(touched)
