"""Algorithm 1 tests: inverse weights, hierarchical windows, incremental jobs."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datagen import DAY, HOUR, BehaviorLog, BehaviorType
from repro.network import BehaviorNetwork, BNBuilder

DEV = BehaviorType.DEVICE_ID
IP = BehaviorType.IPV4


def log(uid: int, value: str, t: float, btype: BehaviorType = DEV) -> BehaviorLog:
    return BehaviorLog(uid, btype, value, t)


class TestInverseWeights:
    def test_pair_weight_is_inverse_of_group_size(self):
        # 4 users share one value inside one 1-hour epoch: each pair gets 1/4.
        logs = [log(u, "d0", 100.0 + u) for u in range(4)]
        bn = BNBuilder(windows=(HOUR,)).build(logs)
        for u in range(4):
            for v in range(u + 1, 4):
                assert bn.weight(u, v, DEV) == pytest.approx(0.25)

    def test_duplicate_logs_count_once(self):
        # A user logging the same value repeatedly does not inflate N.
        logs = [log(0, "d0", 10.0), log(0, "d0", 20.0), log(1, "d0", 30.0)]
        bn = BNBuilder(windows=(HOUR,)).build(logs)
        assert bn.weight(0, 1, DEV) == pytest.approx(0.5)

    def test_single_user_value_builds_no_edge(self):
        bn = BNBuilder(windows=(HOUR,)).build([log(0, "d0", 10.0)])
        assert bn.num_edges() == 0
        assert 0 in bn  # node still registered

    def test_toy_example_of_figure3(self):
        """Figure 3: 4 users in a 1-hour epoch -> 1/4; 5 users in the
        enclosing 2-hour epoch -> extra 1/5 for every pair there."""
        logs = [log(u, "wifi", 600.0 + u, IP) for u in range(4)]
        logs.append(log(4, "wifi", HOUR + 600.0, IP))  # second hour, same 2h epoch
        bn = BNBuilder(windows=(HOUR, 2 * HOUR)).build(logs)
        # Pair inside the 1-hour epoch: 1/4 (1h) + 1/5 (2h).
        assert bn.weight(0, 1, IP) == pytest.approx(0.25 + 0.2)
        # Pair joined only at the 2-hour granularity: 1/5.
        assert bn.weight(0, 4, IP) == pytest.approx(0.2)

    def test_epoch_boundaries_separate_groups(self):
        logs = [log(0, "d0", 10.0), log(1, "d0", HOUR + 10.0)]
        bn = BNBuilder(windows=(HOUR,)).build(logs)
        assert bn.weight(0, 1, DEV) == 0.0

    def test_max_clique_size_skips_large_groups(self):
        logs = [log(u, "pub", 100.0 + u) for u in range(10)]
        bn = BNBuilder(windows=(HOUR,), max_clique_size=5).build(logs)
        assert bn.num_edges() == 0

    def test_types_outside_edge_types_ignored(self):
        logs = [log(u, "x", 100.0, BehaviorType.GPS) for u in range(3)]
        bn = BNBuilder(windows=(HOUR,)).build(logs)  # GPS not an edge type
        assert bn.num_edges() == 0


class TestHierarchicalWindows:
    def test_more_windows_never_decrease_weight(self):
        rng = np.random.default_rng(0)
        logs = [
            log(int(u), f"d{int(rng.integers(3))}", float(rng.uniform(0, 3 * DAY)))
            for u in rng.integers(0, 8, size=60)
        ]
        small = BNBuilder(windows=(HOUR,)).build(logs)
        both = BNBuilder(windows=(HOUR, DAY)).build(logs)
        for u, v, t, record in small.iter_edges():
            assert both.weight(u, v, t) >= record.weight - 1e-12

    def test_shorter_cooccurrence_gets_higher_weight(self):
        # Same pair, one co-occurs within an hour, the other within a day.
        logs = [
            log(0, "a", 60.0),
            log(1, "a", 120.0),  # minutes apart
            log(2, "b", 60.0),
            log(3, "b", 10 * HOUR),  # hours apart, same day
        ]
        bn = BNBuilder(windows=(HOUR, DAY)).build(logs)
        assert bn.weight(0, 1, DEV) > bn.weight(2, 3, DEV)


class TestIncrementalJobs:
    def test_window_job_matches_batch(self):
        logs = [log(u, "d0", 100.0 + u) for u in range(3)]
        builder = BNBuilder(windows=(HOUR,))
        batch = builder.build(logs)
        online = BehaviorNetwork()
        builder.run_window_job(online, logs, HOUR, job_end=HOUR)
        for u in range(3):
            for v in range(u + 1, 3):
                assert online.weight(u, v, DEV) == pytest.approx(
                    batch.weight(u, v, DEV)
                )

    def test_job_ignores_out_of_epoch_logs(self):
        builder = BNBuilder(windows=(HOUR,))
        bn = BehaviorNetwork()
        logs = [log(0, "d0", 10.0), log(1, "d0", 2 * HOUR + 5.0)]
        added = builder.run_window_job(bn, logs, HOUR, job_end=HOUR)
        assert added == 0

    def test_unknown_window_rejected(self):
        builder = BNBuilder(windows=(HOUR,))
        with pytest.raises(ValueError):
            builder.run_window_job(BehaviorNetwork(), [], DAY, job_end=DAY)

    def test_replay_equals_batch_on_closed_epochs(self):
        rng = np.random.default_rng(1)
        logs = sorted(
            (
                log(int(u), f"d{int(rng.integers(4))}", float(rng.uniform(0, 2 * DAY)))
                for u in rng.integers(0, 10, size=120)
            ),
            key=lambda l: l.timestamp,
        )
        builder = BNBuilder(windows=(HOUR, DAY))
        until = 2 * DAY  # all epochs closed
        replayed = builder.replay(logs, until=until, expire=False)
        batch = builder.build([l for l in logs if l.timestamp <= until])
        assert replayed.num_edges() == batch.num_edges()
        for u, v, t, record in batch.iter_edges():
            assert replayed.weight(u, v, t) == pytest.approx(record.weight)

    def test_replay_applies_ttl(self):
        logs = [log(0, "d0", 10.0), log(1, "d0", 20.0)]
        builder = BNBuilder(windows=(HOUR,), ttl=DAY)
        bn = builder.replay(logs, until=3 * DAY)
        assert bn.num_edges() == 0


class TestValidation:
    def test_max_clique_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            BNBuilder(max_clique_size=1)


@settings(max_examples=20, deadline=None)
@given(
    uids=st.lists(st.integers(0, 6), min_size=2, max_size=12),
    times=st.lists(st.floats(0.0, float(DAY)), min_size=2, max_size=12),
)
def test_property_weights_symmetric_and_positive(uids, times):
    n = min(len(uids), len(times))
    logs = [log(uids[i], "v", times[i]) for i in range(n)]
    bn = BNBuilder(windows=(HOUR, DAY)).build(logs)
    for u, v, t, record in bn.iter_edges():
        assert record.weight > 0
        assert bn.weight(v, u, t) == pytest.approx(record.weight)


@st.composite
def group_selections(draw):
    """Groups of 0…100 members back to back, and a selection of them in any order."""
    sizes = draw(st.lists(st.integers(0, 100), max_size=6))
    chosen = draw(st.permutations(range(len(sizes))))
    return sizes, chosen[: draw(st.integers(0, len(sizes)))]


#: one builder for every example: its triangular index grows and is reused.
PAIRS = BNBuilder()


@settings(max_examples=40, deadline=None)
@example(case=([100, 2], [1, 0]))
@example(case=([3, 5], []))
@given(case=group_selections())
def test_property_group_pairs_are_each_groups_combinations(case):
    sizes, chosen = case
    rng = np.random.default_rng(len(sizes))
    members = np.cumsum(rng.integers(1, 5, size=sum(sizes)))  # ascending, distinct
    counts = np.array(sizes, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    pick = np.array(chosen, dtype=np.int64)
    u, v, group = PAIRS._group_pairs(members, starts[pick], counts[pick])
    assert len(u) == len(v) == len(group) == sum(c * (c - 1) // 2 for c in counts[pick])
    assert np.all(np.diff(group) >= 0)  # groups come out in the order given
    for g, k in enumerate(chosen):
        mine = group == g
        pairs = set(zip(u[mine].tolist(), v[mine].tolist()))
        assert len(pairs) == int(mine.sum())
        assert pairs == set(combinations(members[starts[k] : starts[k] + sizes[k]].tolist(), 2))


@settings(max_examples=20, deadline=None)
@given(group=st.integers(2, 8), windows=st.integers(1, 3))
def test_property_group_pair_weight_sums(group, windows):
    """All users in one tight instant: every pair gets (#windows) / N."""
    hierarchy = tuple(HOUR * (2**i) for i in range(windows))
    logs = [log(u, "v", 1.0 + u * 0.001) for u in range(group)]
    bn = BNBuilder(windows=hierarchy).build(logs)
    expected = windows / group
    for u in range(group):
        for v in range(u + 1, group):
            assert bn.weight(u, v, DEV) == pytest.approx(expected)
