"""Behavior statistical features ``X_s`` (Section V).

Computed from a user's behavior logs up to the audit time: log counts and
distinct-entity counts over trailing windows ("the frequency of logins, the
number of associated devices in 1 hour, 6 hours, 1 day, etc.") plus
burstiness summaries that capture the time-burst pattern of Fig. 4a-b.

In production these would be maintained by a streaming framework; Turbo's
deployment computed them on-demand, which dominates its prediction latency
(the system benchmark models exactly that).
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np

from ..datagen.behavior_types import BehaviorType
from ..datagen.entities import DAY, HOUR, BehaviorLog

__all__ = [
    "statistical_feature_names",
    "statistical_features",
    "statistical_features_batch",
    "UserLogIndex",
]

#: Trailing windows over which activity is summarized.
STAT_WINDOWS: tuple[tuple[str, float], ...] = (
    ("1h", HOUR),
    ("6h", 6 * HOUR),
    ("1d", DAY),
    ("7d", 7 * DAY),
    ("30d", 30 * DAY),
)

_DISTINCT_TYPES: tuple[BehaviorType, ...] = (
    BehaviorType.DEVICE_ID,
    BehaviorType.IPV4,
    BehaviorType.GPS_100,
    BehaviorType.WIFI_MAC,
)


def statistical_feature_names() -> tuple[str, ...]:
    """Column names of the behavior-statistics feature block."""
    names: list[str] = []
    for label, _ in STAT_WINDOWS:
        names.append(f"logs_{label}")
        names.extend(f"distinct_{t.value}_{label}" for t in _DISTINCT_TYPES)
    names.extend(
        [
            "total_logs",
            "gap_mean_hours",
            "gap_burstiness",
            "night_fraction",
            "span_days",
        ]
    )
    return tuple(names)


_DISTINCT_IDX: dict[BehaviorType, int] = {
    btype: i for i, btype in enumerate(_DISTINCT_TYPES)
}


class UserLogIndex:
    """Per-user time-sorted log index for fast trailing-window queries.

    Construction is columnar: one stable :func:`numpy.lexsort` over the
    ``(uid, timestamp)`` columns orders every log, and per-user slices are
    carved out of the sorted arrays — no per-user Python sorts.  The
    resulting dict-of-lists tables are byte-for-byte what the pinned
    reference construction (:meth:`reference_tables`) produces: lexsort is
    stable, so logs with equal timestamps keep their input order exactly
    like the reference's stable per-user ``list.sort``.
    """

    def __init__(self, logs: Sequence[BehaviorLog]) -> None:
        logs = list(logs)
        n = len(logs)
        self._logs: dict[int, list[BehaviorLog]] = {}
        self._times: dict[int, list[float]] = {}
        self._packed_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        if not n:
            return
        uids = np.fromiter((log.uid for log in logs), count=n, dtype=np.int64)
        times = np.fromiter((log.timestamp for log in logs), count=n, dtype=np.float64)
        order = np.lexsort((times, uids))
        uids_sorted = uids[order]
        times_sorted = times[order]
        cuts = np.flatnonzero(uids_sorted[1:] != uids_sorted[:-1]) + 1
        starts = np.concatenate(([0], cuts))
        ends = np.concatenate((cuts, [n]))
        # Insert users in first-appearance order so the observable dict
        # ordering matches the reference construction.
        _, first_pos = np.unique(uids, return_index=True)
        group_of_uid = {int(uids_sorted[s]): (int(s), int(e)) for s, e in zip(starts, ends)}
        appearance = uids[np.sort(first_pos)]
        for uid in appearance:
            uid = int(uid)
            s, e = group_of_uid[uid]
            idx = order[s:e]
            self._logs[uid] = [logs[i] for i in idx]
            self._times[uid] = times_sorted[s:e].tolist()
            # Build the packed columnar view now, while we already hold the
            # sorted slice: serving-time batch assembly then never pays the
            # per-log grouping pass (it was the warm-up cost of every first
            # batch touching a user).
            self._packed_cache[uid] = self._build_packed(
                self._logs[uid], times_sorted[s:e]
            )

    @staticmethod
    def reference_tables(
        logs: Sequence[BehaviorLog],
    ) -> tuple[dict[int, list[BehaviorLog]], dict[int, list[float]]]:
        """Pinned reference construction: per-user stable Python sorts.

        Returns the ``(logs, times)`` dict-of-lists tables the pre-vectorized
        constructor built; the parity suite asserts the lexsort constructor
        reproduces them exactly (keys, order and element identity).
        """
        per_user: dict[int, list[BehaviorLog]] = {}
        for log in logs:
            per_user.setdefault(log.uid, []).append(log)
        by_user: dict[int, list[BehaviorLog]] = {}
        by_time: dict[int, list[float]] = {}
        for uid, items in per_user.items():
            items.sort(key=lambda l: l.timestamp)
            by_user[uid] = items
            by_time[uid] = [l.timestamp for l in items]
        return by_user, by_time

    def users(self) -> list[int]:
        """All user ids present in the index."""
        return list(self._logs)

    def logs_before(self, uid: int, as_of: float) -> list[BehaviorLog]:
        """All logs of ``uid`` with timestamp <= ``as_of``."""
        times = self._times.get(uid)
        if not times:
            return []
        end = bisect.bisect_right(times, as_of)
        return self._logs[uid][:end]

    def count_before(self, uid: int, as_of: float) -> int:
        """``len(logs_before(uid, as_of))`` without materializing the slice."""
        times = self._times.get(uid)
        if not times:
            return 0
        return bisect.bisect_right(times, as_of)

    def packed(self, uid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columnar view of a user's history for batched feature assembly.

        Returns ``(times, group_ids, group_btypes)``: the time-sorted
        timestamp array, a per-log id of the ``(btype, value)`` entity group
        (``-1`` for behavior types outside the distinct-count set) and, per
        group, the index of its type in the distinct-count type tuple.
        Built once at construction — the index is immutable — so serving
        never pays the grouping pass.
        """
        cached = self._packed_cache.get(uid)
        if cached is not None:
            return cached
        # Only unknown users miss the eagerly-built cache: empty history.
        packed = self._build_packed(
            self._logs.get(uid, []), np.asarray(self._times.get(uid, []))
        )
        self._packed_cache[uid] = packed
        return packed

    @staticmethod
    def _build_packed(
        items: Sequence[BehaviorLog], times: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        times = np.ascontiguousarray(times, dtype=np.float64)
        group_ids = np.empty(len(items), dtype=np.int64)
        group_btypes: list[int] = []
        gid_of: dict[tuple[int, object], int] = {}
        for i, log in enumerate(items):
            btype_idx = _DISTINCT_IDX.get(log.btype, -1)
            if btype_idx < 0:
                group_ids[i] = -1
                continue
            key = (btype_idx, log.value)
            gid = gid_of.get(key)
            if gid is None:
                gid = len(group_btypes)
                gid_of[key] = gid
                group_btypes.append(btype_idx)
            group_ids[i] = gid
        return (times, group_ids, np.asarray(group_btypes, dtype=np.int64))

    def logs_in_window(self, uid: int, as_of: float, window: float) -> list[BehaviorLog]:
        """Logs of ``uid`` within ``(as_of - window, as_of]``."""
        times = self._times.get(uid)
        if not times:
            return []
        end = bisect.bisect_right(times, as_of)
        start = bisect.bisect_left(times, as_of - window, 0, end)
        return self._logs[uid][start:end]


def statistical_features(index: UserLogIndex, uid: int, as_of: float) -> np.ndarray:
    """Compute ``X_s`` for ``uid`` as observed at ``as_of``."""
    values: list[float] = []
    for _label, window in STAT_WINDOWS:
        window_logs = index.logs_in_window(uid, as_of, window)
        values.append(float(len(window_logs)))
        for btype in _DISTINCT_TYPES:
            distinct = {l.value for l in window_logs if l.btype == btype}
            values.append(float(len(distinct)))

    history = index.logs_before(uid, as_of)
    values.append(float(len(history)))
    times = np.asarray([l.timestamp for l in history])
    if len(times) >= 3:
        gaps = np.diff(times)
        gaps = gaps[gaps > 0]
        if len(gaps) >= 2:
            mean_gap = float(gaps.mean())
            values.append(mean_gap / HOUR)
            # Goh-Barabasi burstiness in [-1, 1]: 1 for extreme bursts,
            # 0 for Poisson, -1 for perfectly regular activity.
            std_gap = float(gaps.std())
            values.append((std_gap - mean_gap) / (std_gap + mean_gap))
        else:
            values.extend([0.0, 0.0])
    else:
        values.extend([0.0, 0.0])

    if len(times) > 0:
        hour_of_day = (times % DAY) / HOUR
        night = np.mean((hour_of_day < 6.0) | (hour_of_day >= 23.0))
        values.append(float(night))
        values.append(float((times[-1] - times[0]) / DAY))
    else:
        values.extend([0.0, 0.0])
    return np.asarray(values)


def statistical_features_batch(
    index: UserLogIndex, pairs: Sequence[tuple[int, float]]
) -> np.ndarray:
    """Columnar ``X_s`` for many ``(uid, as_of)`` pairs in one pass.

    Bit-for-bit equal to :func:`statistical_features` row by row, but
    assembled from the index's packed per-user arrays: window log counts are
    ``np.searchsorted`` differences instead of ``logs_in_window`` list
    slices, and distinct-entity counts come from one stable group sort of
    the 30-day slice — a ``(btype, value)`` entity is active in window ``w``
    exactly when its last occurrence at or before ``as_of`` falls inside
    ``[as_of - w, as_of]``, so one pass over group last-seen times yields
    all ``windows × types`` counts.  The burstiness/night/span tail runs the
    identical numpy expressions on the packed slice (same dtype, length and
    contiguity ⇒ same reduction order ⇒ same bits).
    """
    window_sizes = np.asarray([window for _label, window in STAT_WINDOWS])
    n_windows = len(window_sizes)
    n_types = len(_DISTINCT_TYPES)
    head_width = n_windows * (1 + n_types)
    rows = np.zeros((len(pairs), len(statistical_feature_names())))
    head = np.empty((n_windows, 1 + n_types))
    for row_idx, (uid, as_of) in enumerate(pairs):
        times, group_ids, group_btypes = index.packed(uid)
        end = int(np.searchsorted(times, as_of, side="right"))
        history = times[:end]
        starts = np.searchsorted(history, as_of - window_sizes, side="left")

        head[:, 0] = end - starts  # integer window counts, exact in float64
        head[:, 1:] = 0.0
        slice_start = int(starts[-1])  # widest window contains the others
        slice_groups = group_ids[slice_start:end]
        tracked = slice_groups >= 0
        if tracked.any():
            groups = slice_groups[tracked]
            group_times = history[slice_start:][tracked]
            order = np.argsort(groups, kind="stable")
            groups = groups[order]
            group_times = group_times[order]
            is_last = np.empty(len(groups), dtype=bool)
            is_last[:-1] = groups[1:] != groups[:-1]
            is_last[-1] = True
            last_seen = group_times[is_last]
            last_btype = group_btypes[groups[is_last]]
            # STAT_WINDOWS grows strictly, so the cutoffs ``as_of - window``
            # fall strictly: an entity last seen at ``t`` is active in
            # exactly the trailing ``k`` windows with cutoff <= ``t``.  One
            # combined bincount over (first-active-window, type) plus an
            # integer suffix-cumsum therefore reproduces the per-window
            # ``last_seen >= cutoff`` bincounts exactly (counts are ints).
            active_in = np.searchsorted(
                (as_of - window_sizes)[::-1], last_seen, side="right"
            )
            first_w = n_windows - active_in
            flat = np.bincount(
                first_w * n_types + last_btype, minlength=head_width - n_windows
            )
            head[:, 1:] = np.cumsum(flat.reshape(n_windows, n_types), axis=0)

        row = rows[row_idx]
        row[:head_width] = head.ravel()
        row[head_width] = end
        if end >= 3:
            gaps = np.diff(history)
            gaps = gaps[gaps > 0]
            if len(gaps) >= 2:
                mean_gap = float(gaps.mean())
                row[head_width + 1] = mean_gap / HOUR
                std_gap = float(gaps.std())
                row[head_width + 2] = (std_gap - mean_gap) / (std_gap + mean_gap)

        if end > 0:
            hour_of_day = (history % DAY) / HOUR
            night = np.mean((hour_of_day < 6.0) | (hour_of_day >= 23.0))
            row[head_width + 3] = float(night)
            row[head_width + 4] = float((history[-1] - history[0]) / DAY)
    return rows
