"""BN construction — Algorithm 1 of the paper.

Two entry points:

* :meth:`BNBuilder.build` — batch construction over a full log history,
  fully vectorized with numpy: group logs by ``(type, value, epoch)`` per
  window, enumerate every user pair of every eligible group from one
  triangular index (:meth:`BNBuilder._group_pairs`), reduce the
  contribution stream over ``(u, v)`` keys, then apply one columnar
  :meth:`~repro.network.bn.BehaviorNetwork.add_weights` batch per behavior
  type (a single snapshot-version bump each).
* :meth:`BNBuilder.run_window_job` — one periodic job of the online BN
  server (Section V): process the logs of a single just-closed epoch of one
  window.  Running every window's jobs over a time range is equivalent to the
  batch build over the same logs, which a test verifies.

The online path reads logs from a :class:`LogTable`: each log is validated
and encoded **once**, when it arrives, into ``(uid, key, timestamp)``
columns whose ``key`` interns the log's ``(type, value)``, and a window job
receives a slice of those columns (:class:`LogColumns`) — no per-log Python
and no string sort in the job.  ``BehaviorLog`` objects handed to
:meth:`BNBuilder.run_window_job` or :meth:`BNBuilder.replay` go through the
same encoder into the same kernel.

The per-pair Python loops these paths replaced are the test tree's oracle
(``tests/oracles/bn_builder.py``: ``build_reference``,
``run_window_job_reference``, ``replay_reference``), pinned **bit-exact**:
identical edge sets, weights, and timestamps, down to the last ulp.  The
sequential segment folds that reproduce the loops' IEEE-754 accumulation
order live in :mod:`repro.network.segments`, as does the overflow-guarded
composite keying.

Engineering bound: groups larger than ``max_clique_size`` distinct users are
skipped.  Their pairwise weight would be at most ``1/max_clique_size`` —
negligible under the inverse weight assignment — while the pair count grows
quadratically (a public Wi-Fi can connect thousands of users within a day).
"""

from __future__ import annotations

from bisect import bisect_right
from math import inf, isfinite
from operator import index
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ..datagen.behavior_types import EDGE_TYPES, BehaviorType
from ..datagen.entities import BehaviorLog
from .bn import DEFAULT_EDGE_TTL, BehaviorNetwork
from .segments import (
    boundaries,
    segment_arange,
    segment_fold_max,
    segment_fold_sum,
    sorted_unique_pairs,
    sorted_unique_triples,
)
from .windows import PAPER_WINDOWS, validate_windows

__all__ = ["BNBuilder", "LogTable"]


class LogColumns(NamedTuple):
    """Encoded edge-type logs of one epoch, in log order (see :class:`LogTable`)."""

    uids: list[int]
    keys: list[int]


class LogTable:
    """Edge-type logs as ``(uid, key, timestamp)`` columns, encoded once.

    ``key`` is ``value id * |edge types| + type code``: two held rows have
    equal keys exactly when they share ``(type, value)`` — equality is all
    a window job asks of a value — and ``key % |edge types|`` is the type
    code.  Value ids come from an intern map that :meth:`compact` cuts back
    to the values of the rows still held, so the map does not grow with the
    values ever seen.  Rows stay in arrival order; a table filled in
    timestamp order (the BN server's) reads an epoch with :meth:`columns`
    and forgets what no job can read with :meth:`prune`.
    """

    def __init__(self, edge_types: Sequence[BehaviorType]) -> None:
        self.uids: list[int] = []
        self.keys: list[int] = []
        self.times: list[float] = []
        #: timestamp of the last log of the last ordered batch, edge type or not.
        self.watermark = -inf
        #: the intern map, value -> id; ids are never reused (``_next_id``).
        self.ids: dict[str, int] = {}
        self._next_id = 0
        self._edge_types = edge_types
        self._type_index = {t: i for i, t in enumerate(edge_types)}

    def encode(self, logs: Iterable[BehaviorLog], ordered: bool = False) -> "LogTable":
        """Validate ``logs``; their edge-type rows as a new table for :meth:`extend`.

        The one per-log pass of the write path.  Nothing of ``self`` is
        modified (values it has not seen are interned in the returned
        batch), so a rejected batch leaves no trace: ``ValueError`` for a
        non-finite timestamp, a uid outside int64 or — with ``ordered`` — a
        timestamp below the one before it or :attr:`watermark`;
        ``TypeError`` for a non-integer uid or a non-``str`` value.
        """
        batch = LogTable(self._edge_types)
        uids, keys, times = batch.uids, batch.keys, batch.times
        known, fresh, type_index = self.ids, batch.ids, self._type_index
        base, n_types = self._next_id, len(type_index)
        last = self.watermark
        for log in logs:
            t, value, uid = log.timestamp, log.value, index(log.uid)
            if not isfinite(t):
                raise ValueError(f"log timestamp {t!r} is not finite")
            if ordered:
                if t < last:
                    raise ValueError("logs must arrive in timestamp order")
                last = t
            if not isinstance(value, str):
                raise TypeError(f"log value {value!r} is not a str")
            if not -(2**63) <= uid < 2**63:
                raise ValueError(f"log uid {uid} does not fit int64")
            code = type_index.get(log.btype)
            if code is None:
                continue
            vid = known.get(value)
            if vid is None:
                vid = fresh.setdefault(value, base + len(fresh))
            uids.append(uid)
            keys.append(vid * n_types + code)
            times.append(t)
        batch.watermark = last
        return batch

    def extend(self, batch: "LogTable") -> None:
        """Append a batch :meth:`encode` returned (and nothing else did since)."""
        self.uids += batch.uids
        self.keys += batch.keys
        self.times += batch.times
        self.ids.update(batch.ids)
        self._next_id += len(batch.ids)
        self.watermark = batch.watermark

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three columns as ``(int64, int64, float64)`` arrays."""
        return (
            np.asarray(self.uids, dtype=np.int64),
            np.asarray(self.keys, dtype=np.int64),
            np.asarray(self.times, dtype=np.float64),
        )

    def columns(self, after: float, until: float) -> LogColumns:
        """Rows with ``after < timestamp <= until`` of a timestamp-ordered table."""
        lo, hi = bisect_right(self.times, after), bisect_right(self.times, until)
        return LogColumns(self.uids[lo:hi], self.keys[lo:hi])

    def prune(self, cutoff: float) -> None:
        """Drop the rows at or before ``cutoff`` of a timestamp-ordered table."""
        drop = bisect_right(self.times, cutoff)
        if drop:
            del self.uids[:drop], self.keys[:drop], self.times[:drop]

    def compact(self) -> None:
        """Forget every interned value no held row uses."""
        n_types = len(self._type_index)
        live = {key // n_types for key in self.keys}
        self.ids = {value: vid for value, vid in self.ids.items() if vid in live}


class BNBuilder:
    """Builds and incrementally maintains a :class:`BehaviorNetwork`.

    Parameters
    ----------
    windows:
        Hierarchical time windows ``W`` (strictly increasing).
    edge_types:
        Behavior types that produce edges (defaults to the paper's eight).
    max_clique_size:
        Skip ``(value, epoch)`` groups with more distinct users than this.
    ttl:
        Edge time-to-live passed to the created network (60 days by default).
    origin:
        Time ``t_0`` from which epochs are discretized.
    weighting:
        ``"inverse"`` (the paper's ``1/N`` rule) or ``"uniform"`` (every
        co-occurring pair gets weight 1 — the ablation showing why the
        inverse rule matters for public-resource cliques).
    """

    def __init__(
        self,
        windows: Sequence[float] = PAPER_WINDOWS,
        edge_types: Sequence[BehaviorType] = EDGE_TYPES,
        max_clique_size: int = 100,
        ttl: float = DEFAULT_EDGE_TTL,
        origin: float = 0.0,
        weighting: str = "inverse",
    ) -> None:
        self.windows = validate_windows(windows)
        self.edge_types = tuple(edge_types)
        if max_clique_size < 2:
            raise ValueError("max_clique_size must be at least 2")
        if weighting not in ("inverse", "uniform"):
            raise ValueError("weighting must be 'inverse' or 'uniform'")
        self.max_clique_size = max_clique_size
        self.ttl = ttl
        self.origin = origin
        self.weighting = weighting
        # Offset pairs of the j-major triangular index (see _group_pairs).
        self._triangle = np.empty((2, 0), dtype=np.int64)

    def _group_shares(self, counts: np.ndarray) -> np.ndarray:
        """Per-group pair weight under the builder's weighting rule."""
        if self.weighting == "inverse":
            return 1.0 / counts
        return np.ones(len(counts), dtype=np.float64)

    def _group_pairs(
        self, members: np.ndarray, starts: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every member pair of the groups ``members[s : s + c]``: ``(u, v, group)``.

        A ``c``-member group takes the first ``c (c - 1) / 2`` entries of one
        j-major triangular index of offset pairs — ``(0, 1), (0, 2), (1, 2),
        (0, 3), …`` — held by the builder and grown to its largest group so
        far.  Contract: groups come out in the order given, every pair once,
        ``u`` at the lower offset (``u < v`` over ascending members), and
        ``group`` indexes ``starts``.  Not contract: the order of the pairs
        inside a group.  No network state sees it: a typed edge gets at most
        one contribution per group, and ``add_weights`` groups a typed edge's
        contributions stably, so they stay in group order.
        """
        npairs = counts * (counts - 1) // 2
        ends = npairs.cumsum()
        size = int(np.maximum.reduce(counts, initial=0))
        if self._triangle.shape[1] < size * (size - 1) // 2:
            ramp = np.arange(size)
            self._triangle = np.stack([segment_arange(ramp), ramp.repeat(ramp)])
        group = np.arange(len(counts)).repeat(npairs)
        local = np.arange(ends[-1] if len(ends) else 0) - (ends - npairs)[group]
        u, v = members[self._triangle[:, local] + starts[group]]
        return u, v, group

    # ------------------------------------------------------------------
    # Shared grouping (every entry point, and the test oracle)
    # ------------------------------------------------------------------
    def _window_groups(
        self,
        window: float,
        uid_arr: np.ndarray,
        value_codes: np.ndarray,
        time_arr: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Distinct ``(value, epoch, uid)`` triples of one window, grouped.

        Returns ``(members, starts, counts, epochs)``: the distinct users of
        every ``(value, epoch)`` group concatenated in sorted group order
        (uids ascending within a group), each group's slice start/length,
        and each group's epoch index.  A user logging the same value many
        times inside one epoch still counts once toward ``N_{j,s}``.

        Uids and epochs are normalized by their minima before keying, so
        negative epochs (logs before ``origin``) stay exact and the
        composite keys inherit the int64 overflow guard of
        :func:`repro.network.segments.sorted_unique_triples` — adversarially
        large uid/value/epoch spans fall back to a lexicographic unique
        instead of silently wrapping.
        """
        if len(uid_arr) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy(), empty.copy()
        epochs = np.floor((time_arr - self.origin) / window).astype(np.int64)
        e0 = int(epochs.min())
        u0 = int(uid_arr.min())
        g_val, g_eps, g_uid = sorted_unique_triples(
            value_codes, epochs - e0, uid_arr - u0
        )
        boundary = np.r_[True, (g_val[1:] != g_val[:-1]) | (g_eps[1:] != g_eps[:-1])]
        starts = np.flatnonzero(boundary)
        counts = np.diff(np.r_[starts, len(g_uid)])
        return g_uid + u0, starts, counts, g_eps[starts] + e0

    def _enumerate_window_pairs(
        self,
        window: float,
        uid_arr: np.ndarray,
        value_codes: np.ndarray,
        time_arr: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One window's pair contribution stream ``(u, v, weight, ts)``.

        Groups are emitted in sorted order, each group's pairs by
        :meth:`_group_pairs` with ``u < v``; the timestamp of every pair in
        a group is the group's epoch end.
        """
        members, starts, counts, epochs = self._window_groups(
            window, uid_arr, value_codes, time_arr
        )
        eligible = (counts >= 2) & (counts <= self.max_clique_size)
        sel_counts = counts[eligible]
        u, v, group = self._group_pairs(members, starts[eligible], sel_counts)
        share = self._group_shares(sel_counts)
        epoch_end = self.origin + (epochs[eligible] + 1) * window
        return u, v, share[group], epoch_end[group]

    # ------------------------------------------------------------------
    # Batch construction
    # ------------------------------------------------------------------
    def _bucket_by_type(
        self, logs: Iterable[BehaviorLog], bn: BehaviorNetwork
    ) -> dict[BehaviorType, tuple[list[int], list[str], list[float]]]:
        """Split logs into per-type uid/value/time columns, registering nodes.

        Nodes are registered once per distinct user (via a numpy unique over
        the bucketed uid columns) instead of once per log — ``add_node`` is
        idempotent, so the resulting network is the same and the per-log
        Python call disappears from the hot path.
        """
        by_type: dict[BehaviorType, tuple[list[int], list[str], list[float]]] = {
            t: ([], [], []) for t in self.edge_types
        }
        for log in logs:
            bucket = by_type.get(log.btype)
            if bucket is None:
                continue
            bucket[0].append(log.uid)
            bucket[1].append(log.value)
            bucket[2].append(log.timestamp)
        columns = [
            np.asarray(bucket[0], dtype=np.int64)
            for bucket in by_type.values()
            if bucket[0]
        ]
        if columns:
            for uid in np.unique(np.concatenate(columns)).tolist():
                bn.add_node(uid)
        return by_type

    def build(
        self, logs: Iterable[BehaviorLog], bn: BehaviorNetwork | None = None
    ) -> BehaviorNetwork:
        """Construct BN from a full log history (Algorithm 1, vectorized)."""
        if bn is None:
            bn = BehaviorNetwork(ttl=self.ttl)
        for btype, (uids, values, times) in self._bucket_by_type(logs, bn).items():
            if not uids:
                continue
            self._build_type(bn, btype, uids, values, times)
        return bn

    @staticmethod
    def _encode_values(values: list[str]) -> np.ndarray:
        """Integer codes (sorted-unique order) for the value strings."""
        _, codes = np.unique(np.asarray(values, dtype=object), return_inverse=True)
        return codes.astype(np.int64)

    def _build_type(
        self,
        bn: BehaviorNetwork,
        btype: BehaviorType,
        uids: list[int],
        values: list[str],
        times: list[float],
    ) -> None:
        """Accumulate one behavior type's edges as a single columnar batch.

        The per-window contribution streams are concatenated window-major
        (the reference accumulation order), stably grouped per ``(u, v)``
        pair, and summed with a sequential left-to-right fold, so the batch
        is bit-for-bit the reference dict accumulation.  Timestamps reduce
        by max, clamped at the reference accumulator's ``0.0`` seed.
        """
        uid_arr = np.asarray(uids, dtype=np.int64)
        time_arr = np.asarray(times, dtype=np.float64)
        value_codes = self._encode_values(values)

        chunks = [
            self._enumerate_window_pairs(window, uid_arr, value_codes, time_arr)
            for window in self.windows
        ]
        u = np.concatenate([c[0] for c in chunks])
        if len(u) == 0:
            return
        v = np.concatenate([c[1] for c in chunks])
        w = np.concatenate([c[2] for c in chunks])
        ts = np.concatenate([c[3] for c in chunks])

        order = np.lexsort((v, u))
        su, sv, sw, sts = u[order], v[order], w[order], ts[order]
        boundary = np.r_[True, (su[1:] != su[:-1]) | (sv[1:] != sv[:-1])]
        starts = np.flatnonzero(boundary)
        lengths = np.diff(np.r_[starts, len(su)])
        weights = segment_fold_sum(sw, starts, lengths)
        stamps = np.maximum(segment_fold_max(sts, starts, lengths), 0.0)
        bn.add_weights(su[starts], sv[starts], btype, weights, stamps)

    # ------------------------------------------------------------------
    # Incremental (online BN server) construction
    # ------------------------------------------------------------------
    def run_window_job(
        self,
        bn: BehaviorNetwork,
        logs: Iterable[BehaviorLog] | LogColumns,
        window: float,
        job_end: float,
    ) -> int:
        """Process the epoch ``(job_end - window, job_end]`` of one window.

        This is the periodic job the BN server schedules (hourly for the
        1-hour window, daily for the 1-day window, ...).  Returns the number
        of pair contributions added.

        ``logs`` is either the epoch's rows of a :class:`LogTable` (the
        server and :meth:`replay` — already encoded, already cut to the
        epoch) or ``BehaviorLog`` objects, which are validated and encoded
        with a throw-away table and cut to the epoch here (edge types
        only).  Both meet in one kernel: the epoch collapses to one
        :meth:`~repro.network.bn.BehaviorNetwork.add_weights` batch (one
        snapshot-version bump), with groups in the order the scalar
        reference loop visits them — first occurrence — so every typed
        edge's contributions arrive in the reference's order and the
        resulting network state is bit-identical.  A non-finite ``job_end``
        raises ``ValueError`` before anything is registered.
        """
        if window not in self.windows:
            raise ValueError(f"window {window} is not one of the builder's windows")
        if not isfinite(job_end):
            raise ValueError(f"job_end {job_end!r} is not finite")
        if not isinstance(logs, LogColumns):
            uids, keys, times = LogTable(self.edge_types).encode(logs).arrays()
            epoch = (times > job_end - window) & (times <= job_end)
            logs = LogColumns(uids[epoch].tolist(), keys[epoch].tolist())
        uids, keys = logs
        # Register nodes in first-occurrence order, like the reference's
        # per-log add_node calls (repeats there are version no-ops).
        for uid in dict.fromkeys(uids):
            bn.add_node(uid)
        if len(set(zip(keys, uids))) == len(set(keys)):
            return 0  # no key was used by two users (or no log at all)
        # One stable sort: distinct (key, uid) members grouped per key, uids
        # ascending, each with the log position it first occurred at.
        g_key, g_uid, g_first = sorted_unique_pairs(
            np.asarray(keys, dtype=np.int64),
            np.asarray(uids, dtype=np.int64),
            return_index=True,
        )
        starts = boundaries(g_key).nonzero()[0]
        counts = np.empty_like(starts)
        counts[:-1], counts[-1] = starts[1:], len(g_key)
        counts -= starts
        eligible = ((counts >= 2) & (counts <= self.max_clique_size)).nonzero()[0]
        if not len(eligible):
            return 0
        # Groups run in order of their key's first occurrence in the logs —
        # the reference's dict-insertion order — which is the smallest first
        # position among the group's members.
        first_seen = np.minimum.reduceat(g_first, starts)[eligible]
        eligible = eligible[first_seen.argsort()]
        sel_starts, sel_counts = starts[eligible], counts[eligible]

        u, v, group = self._group_pairs(g_uid, sel_starts, sel_counts)
        share = self._group_shares(sel_counts)
        pair_codes = (g_key[sel_starts] % len(self.edge_types))[group]
        # job_end passes as a scalar: every contribution of the epoch shares
        # it, so add_weights skips the per-row timestamp reduction.
        bn.add_weights(u, v, pair_codes, share[group], job_end, btype_table=self.edge_types)
        return len(u)

    def replay(
        self,
        logs: Sequence[BehaviorLog],
        until: float,
        bn: BehaviorNetwork | None = None,
        expire: bool = True,
    ) -> BehaviorNetwork:
        """Replay all window jobs whose epochs close by ``until``.

        Equivalent to :meth:`build` restricted to logs in closed epochs, but
        exercising the online job path, including TTL expiry at the end.
        The logs are validated and encoded once; every window then buckets
        the encoded rows with one ``np.floor`` + stable argsort and hands
        each epoch's rows to :meth:`run_window_job` as column slices.
        """
        if bn is None:
            bn = BehaviorNetwork(ttl=self.ttl)
        uids, keys, ts = LogTable(self.edge_types).encode(logs).arrays()
        for window in self.windows:
            epochs = np.floor((ts - self.origin) / window).astype(np.int64)
            ends = self.origin + (epochs + 1) * window
            last = int(np.floor((until - self.origin) / window))
            # A log on an epoch boundary is in no job's half-open epoch here
            # (as in the reference replay): floor buckets it after the boundary.
            rows = np.flatnonzero((epochs < last) & (ts > ends - window) & (ts <= ends))
            if not len(rows):
                continue
            rows = rows[np.argsort(epochs[rows], kind="stable")]
            bounds = np.flatnonzero(np.r_[True, np.diff(epochs[rows]) != 0, True])
            for start, stop in zip(bounds[:-1], bounds[1:]):
                epoch = rows[start:stop]
                self.run_window_job(
                    bn,
                    LogColumns(uids[epoch].tolist(), keys[epoch].tolist()),
                    window,
                    float(ends[epoch[0]]),
                )
        if expire:
            bn.expire_edges(until)
        return bn
