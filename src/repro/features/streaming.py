"""Streaming behavior-statistics aggregation (the Flink substitute).

Section V: "Ideally, X_s should be calculated via a streaming processing
framework such as Apache Flink.  However, at the time of our implementation,
Jimi Store did not have streaming processing infrastructure."  This module
provides that missing infrastructure in-process: a per-user sliding-window
aggregator that consumes the log stream incrementally and answers
``X_s``-style queries in O(windows) instead of rescanning the raw logs.

The produced features match :func:`repro.features.statistical.statistical_features`
exactly (a test asserts equality), so the online system can swap the
on-demand scan for the streaming aggregator without retraining.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable

import numpy as np

from ..datagen.behavior_types import BehaviorType
from ..datagen.entities import DAY, HOUR, BehaviorLog
from .statistical import STAT_WINDOWS, _DISTINCT_TYPES, statistical_feature_names

__all__ = ["StreamingAggregator"]


class UserWindowState:
    """Sliding-window state of one user: all logs within the largest window.

    Keeping the raw events of the largest window (30 days) per user is what
    a production stream processor would hold in keyed state; every smaller
    window is answered by scanning only that retained slice.
    """

    __slots__ = ("events", "total_logs", "first_timestamp", "last_timestamp")

    def __init__(self) -> None:
        self.events: Deque[tuple[float, BehaviorType, str]] = deque()
        self.total_logs = 0
        self.first_timestamp: float | None = None
        self.last_timestamp: float | None = None

    def append(self, log: BehaviorLog) -> None:
        """Record a new event and update the lifetime counters."""
        self.events.append((log.timestamp, log.btype, log.value))
        self.total_logs += 1
        if self.first_timestamp is None:
            self.first_timestamp = log.timestamp
        self.last_timestamp = log.timestamp

    def evict_before(self, cutoff: float) -> None:
        """Drop retained events older than ``cutoff``."""
        while self.events and self.events[0][0] < cutoff:
            self.events.popleft()


class StreamingAggregator:
    """Incrementally maintains per-user window statistics from a log stream.

    Limitations relative to the batch computation (documented, tested):
    the burstiness / gap statistics need the full history, so the streaming
    aggregator maintains them with online (Welford-style) accumulators over
    *all* inter-log gaps rather than a retained log buffer.
    """

    #: events older than the largest statistics window can be evicted.
    RETENTION: float = max(w for _label, w in STAT_WINDOWS)

    def __init__(self) -> None:
        self._states: dict[int, UserWindowState] = {}
        # Online gap statistics per user: count, mean, M2 (Welford).
        self._gap_stats: dict[int, list[float]] = {}
        self._night_counts: dict[int, list[int]] = {}
        self._last_seen: dict[int, float] = {}
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, logs: Iterable[BehaviorLog]) -> int:
        """Consume a batch of (time-ordered) logs; returns events processed."""
        count = 0
        for log in logs:
            self._ingest_one(log)
            count += 1
        self.events_processed += count
        return count

    def _ingest_one(self, log: BehaviorLog) -> None:
        state = self._states.get(log.uid)
        if state is None:
            state = UserWindowState()
            self._states[log.uid] = state

        previous = self._last_seen.get(log.uid)
        if previous is not None:
            gap = log.timestamp - previous
            if gap > 0:
                stats = self._gap_stats.setdefault(log.uid, [0.0, 0.0, 0.0])
                stats[0] += 1
                delta = gap - stats[1]
                stats[1] += delta / stats[0]
                stats[2] += delta * (gap - stats[1])
        self._last_seen[log.uid] = log.timestamp

        hour_of_day = (log.timestamp % DAY) / HOUR
        night = self._night_counts.setdefault(log.uid, [0, 0])
        night[1] += 1
        if hour_of_day < 6.0 or hour_of_day >= 23.0:
            night[0] += 1

        state.append(log)
        state.evict_before(log.timestamp - self.RETENTION)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def users(self) -> list[int]:
        """All user ids with streaming state."""
        return list(self._states)

    def features(self, uid: int, as_of: float) -> np.ndarray:
        """``X_s`` for ``uid`` at ``as_of`` from the streaming state.

        ``as_of`` must not precede already-ingested events for this user
        (stream processors cannot answer queries about a rewound past).
        """
        names = statistical_feature_names()
        state = self._states.get(uid)
        if state is None:
            return np.zeros(len(names))
        if state.last_timestamp is not None and as_of < state.last_timestamp:
            raise ValueError(
                "streaming state has advanced past the requested as_of time"
            )

        values: list[float] = []
        events = [e for e in state.events if e[0] <= as_of]
        for _label, window in STAT_WINDOWS:
            lo = as_of - window
            window_events = [e for e in events if e[0] > lo]
            values.append(float(len(window_events)))
            for btype in _DISTINCT_TYPES:
                distinct = {v for _t, b, v in window_events if b == btype}
                values.append(float(len(distinct)))

        values.append(float(state.total_logs))
        stats = self._gap_stats.get(uid)
        if stats is not None and stats[0] >= 2:
            mean_gap = stats[1]
            # Population std to match numpy's default ddof=0.
            std_gap = float(np.sqrt(stats[2] / stats[0]))
            values.append(mean_gap / HOUR)
            values.append((std_gap - mean_gap) / (std_gap + mean_gap))
        else:
            values.extend([0.0, 0.0])

        night = self._night_counts.get(uid)
        if night is not None and night[1] > 0:
            values.append(night[0] / night[1])
        else:
            values.append(0.0)
        if state.first_timestamp is not None and state.last_timestamp is not None:
            values.append((state.last_timestamp - state.first_timestamp) / DAY)
        else:
            values.append(0.0)
        return np.asarray(values)

    def state_size(self, uid: int) -> int:
        """Retained events for ``uid`` (bounded by the retention window)."""
        state = self._states.get(uid)
        return len(state.events) if state is not None else 0
