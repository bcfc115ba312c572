"""One job kernel, three entrances, bit for bit — and the log table under it.

``BNBuilder.run_window_job`` is entered three ways: with ``BehaviorLog``
objects (validated, encoded with a throw-away table, cut to the epoch), with
the column slices a ``BNServer`` cuts from its own log table, and — as the
oracle — through the scalar loops of ``run_window_job_reference``
(``tests/oracles/bn_builder.py``).

* objects ≡ server columns on **everything**: ``_edges`` and adjacency
  iteration order, ``_pair_seq``, weight bits, ``last_update``,
  ``num_edges``, ``version`` and the read index's bytes — whatever number
  of shards the server partitions its reads into;
* both ≡ the reference on what the scalar path defines: the typed-edge set
  with weight bits and ``last_update``, node registration order and
  ``num_edges`` (the reference bumps the version and claims a sequence tag
  per pair, so those two differ by construction).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datagen import DAY, HOUR, BehaviorLog, BehaviorType
from repro.network import BehaviorNetwork, BNBuilder
from repro.network.builder import LogColumns, LogTable
from repro.system import BNServer, LatencyModel
from tests.oracles.bn_builder import run_window_job_reference

DEV, IMEI, IP = BehaviorType.DEVICE_ID, BehaviorType.IMEI, BehaviorType.IPV4
TYPES = (DEV, IMEI, IP)
NON_EDGE = BehaviorType.GPS  # logged and persisted, never an edge
WINDOWS = (HOUR, 3 * HOUR)
#: wide enough that (key span) x (uid span) >= 2**62: the lexsort fallback.
WIDE_UIDS = (-(2**61), -5, 3, 2**61, 2**62)


def network_bits(bn: BehaviorNetwork) -> dict:
    """Everything the network holds, order and bits included."""
    return {
        "edges": [
            (pair, [(t, rec.weight.hex(), rec.last_update) for t, rec in records.items()])
            for pair, records in bn._edges.items()
        ],
        "adjacency": [(uid, list(neighbours)) for uid, neighbours in bn._adjacency.items()],
        "pair_seq": list(bn._pair_seq.items()),
        "num_edges": bn.num_edges(),
        "version": bn.version,
    }


def kernel_bits(bn) -> dict:
    """What two entrances of the one kernel must agree on."""
    arrays, meta = bn.index().to_payload()
    return {
        "network": network_bits(bn),
        "index": {name: (a.dtype.str, a.tobytes()) for name, a in arrays.items()},
        "index_meta": meta,
    }


def reference_bits(bn) -> dict:
    """What the scalar reference defines."""
    return {
        "edges": {
            (u, v, t): (rec.weight.hex(), rec.last_update) for u, v, t, rec in bn.iter_edges()
        },
        "nodes": list(bn._adjacency),
        "num_edges": bn.num_edges(),
    }


def assert_three_entrances(logs, ticks, shards=None, **builder_args):
    """Deliver ``logs`` to a server tick by tick; replay its jobs the other two ways.

    ``shards`` is the server's read partition (``None``: the default); the
    write path never reads it.
    """
    builder = BNBuilder(windows=WINDOWS, edge_types=TYPES, ttl=365 * DAY, **builder_args)
    logs = sorted(logs, key=lambda log: log.timestamp)
    # Sweeping every tick re-interns the table between jobs.
    server = BNServer(
        builder, LatencyModel(seed=0), ttl_sweep_interval=HOUR, shards=shards or 1
    )
    assert isinstance(server.bn, BehaviorNetwork)
    objects = BehaviorNetwork(ttl=builder.ttl)
    reference = BehaviorNetwork(ttl=builder.ttl)

    next_epoch = dict.fromkeys(WINDOWS, 0)
    delivered = total = 0
    for now in ticks:
        batch = [log for log in logs[delivered:] if log.timestamp <= now]
        delivered += len(batch)
        server.ingest(batch)
        jobs, _ = server.run_due_jobs(now)
        # The server's schedule: window-major, every epoch closed by ``now``.
        ran = 0
        for window in WINDOWS:
            while (next_epoch[window] + 1) * window <= now:
                next_epoch[window] += 1
                job_end = next_epoch[window] * window
                count = builder.run_window_job(objects, logs, window, job_end)
                assert count == run_window_job_reference(
                    builder, reference, logs, window, job_end
                )
                total += count
                ran += 1
        assert jobs == ran
        assert kernel_bits(server.bn) == kernel_bits(objects)
        assert reference_bits(server.bn) == reference_bits(reference)
    assert server.bn.num_edges() == server.bn.num_edges_scan()
    return total


LOGS = st.lists(
    st.builds(
        BehaviorLog,
        uid=st.one_of(st.integers(0, 7), st.sampled_from(WIDE_UIDS)),
        btype=st.sampled_from(TYPES + (NON_EDGE,)),
        value=st.sampled_from("abcd"),
        # quarter-hours: plenty of logs exactly on an epoch boundary.
        timestamp=st.integers(0, 32).map(lambda q: q * HOUR / 4),
    ),
    max_size=48,
)
HOURLY = [k * HOUR for k in range(1, 10)]


class TestOneKernelThreeEntrances:
    @settings(max_examples=60, deadline=None)
    @given(
        logs=LOGS,
        ticks=st.one_of(
            st.just(HOURLY),  # hour by hour
            st.just([9 * HOUR]),  # one backlog flush
            st.lists(st.sampled_from(HOURLY), min_size=1, unique=True).map(sorted),
        ),
        shards=st.sampled_from([None, 1, 2, 4]),
        max_clique_size=st.sampled_from([2, 3, 100]),
        weighting=st.sampled_from(["inverse", "uniform"]),
    )
    @example(
        # One job's groups in first-appearance order (IP, then DEV) against
        # the kernel's (lo, hi) order.
        logs=[
            BehaviorLog(0, DEV, "a", 0),
            BehaviorLog(1, IP, "a", 11700),
            BehaviorLog(-(2**61), DEV, "a", 11700),
            BehaviorLog(-(2**61), IP, "a", 11700),
            BehaviorLog(0, DEV, "a", 12600),
        ],
        ticks=[9 * HOUR],
        shards=2,
        max_clique_size=100,
        weighting="inverse",
    )
    def test_random_streams(self, logs, ticks, shards, max_clique_size, weighting):
        assert_three_entrances(
            logs, ticks, shards, max_clique_size=max_clique_size, weighting=weighting
        )

    @pytest.mark.parametrize("ticks", [HOURLY, [9 * HOUR]], ids=["hourly", "flush"])
    @pytest.mark.parametrize("shards", [None, 1, 2, 4])
    def test_named_cases_in_one_stream(self, ticks, shards):
        """Every case the kernel's contract names, together, contributing."""
        logs = [
            BehaviorLog(1, DEV, "d", 0.0),  # on job_end - window: excluded
            BehaviorLog(2, DEV, "d", HOUR),  # on job_end: included
            BehaviorLog(3, DEV, "d", HOUR),
            BehaviorLog(3, DEV, "d", HOUR),  # duplicate log
            BehaviorLog(2, DEV, "e", 1.5 * HOUR),  # second value of one type shared by
            BehaviorLog(3, DEV, "e", 1.6 * HOUR),  # the pair (2, 3) in one 3 h epoch ...
            BehaviorLog(4, DEV, "e", 1.7 * HOUR),  # ... in a group of another size
            BehaviorLog(2, DEV, "d", 1.8 * HOUR),
            BehaviorLog(3, DEV, "d", 1.9 * HOUR),
            BehaviorLog(5, NON_EDGE, "g", 2.0 * HOUR),  # non-edge type
            BehaviorLog(6, NON_EDGE, "g", 2.0 * HOUR),
            BehaviorLog(2, IMEI, "d", 2.1 * HOUR),  # same value string, another type
            BehaviorLog(3, IMEI, "d", 2.2 * HOUR),
            *[BehaviorLog(10 + k, IP, "wifi", 4.5 * HOUR) for k in range(4)],  # > clique cap
            BehaviorLog(-(2**61), IP, "far", 6.5 * HOUR),  # packing guard: lexsort
            BehaviorLog(2**62, IP, "far", 6.6 * HOUR),
            BehaviorLog(7, IP, "near", 6.7 * HOUR),
            BehaviorLog(8, IP, "near", 6.8 * HOUR),
        ]
        assert assert_three_entrances(logs, ticks, shards, max_clique_size=3) == 15

    def test_boundary_log_belongs_to_the_epoch_it_closes(self):
        builder = BNBuilder(windows=(HOUR,), edge_types=TYPES)
        logs = [BehaviorLog(1, DEV, "d", HOUR), BehaviorLog(2, DEV, "d", 2 * HOUR)]
        server = BNServer(builder, LatencyModel(seed=0))
        server.ingest(logs)
        server.run_due_jobs(2 * HOUR)
        # t = HOUR is in (0, HOUR], t = 2 HOUR in (HOUR, 2 HOUR]: never together.
        assert server.bn.num_edges() == 0
        assert sorted(server.bn.nodes()) == [1, 2]


def malformed(field: str, value) -> list[BehaviorLog]:
    fields = {"uid": 2, "btype": DEV, "value": "d", "timestamp": 30.0, field: value}
    return [BehaviorLog(1, DEV, "d", 10.0), BehaviorLog(**fields), BehaviorLog(3, DEV, "d", 50.0)]


MALFORMED = [
    pytest.param("timestamp", float("nan"), ValueError, id="nan-timestamp"),
    pytest.param("timestamp", float("inf"), ValueError, id="inf-timestamp"),
    pytest.param("uid", 1.5, TypeError, id="float-uid"),
    pytest.param("value", 7, TypeError, id="int-value"),
    pytest.param("uid", 2**63, ValueError, id="uid-beyond-int64"),
]


class TestObjectEntranceRejectsMalformedLogs:
    @pytest.mark.parametrize("field, value, error", MALFORMED)
    def test_rejected_before_any_mutation(self, field, value, error):
        builder = BNBuilder(windows=(HOUR,), edge_types=TYPES)
        bn = BehaviorNetwork()
        with pytest.raises(error):
            builder.run_window_job(bn, malformed(field, value), HOUR, HOUR)
        assert bn.version == 0 and bn.num_nodes() == 0
        with pytest.raises(error):
            builder.replay(malformed(field, value), until=HOUR, bn=bn)
        assert bn.version == 0 and bn.num_nodes() == 0


class TestLogTable:
    def table(self) -> LogTable:
        return LogTable(TYPES)

    def test_keys_are_equal_exactly_when_type_and_value_are(self):
        table = self.table()
        logs = [
            BehaviorLog(1, DEV, "x", 1.0),
            BehaviorLog(2, IMEI, "x", 2.0),
            BehaviorLog(3, DEV, "y", 3.0),
            BehaviorLog(4, NON_EDGE, "x", 4.0),
            BehaviorLog(5, DEV, "x", 5.0),
        ]
        table.extend(table.encode(logs, ordered=True))
        assert table.uids == [1, 2, 3, 5] and table.times == [1.0, 2.0, 3.0, 5.0]
        a, b, c, d = table.keys
        assert a == d and len({a, b, c}) == 3
        assert [key % len(TYPES) for key in table.keys] == [0, 1, 0, 0]
        assert table.watermark == 5.0 and len(table.ids) == 2

    def test_encode_leaves_the_table_untouched(self):
        table = self.table()
        table.extend(table.encode([BehaviorLog(1, DEV, "x", 1.0)], ordered=True))
        batch = table.encode([BehaviorLog(2, DEV, "new", 2.0)], ordered=True)
        assert (len(table.keys), len(table.ids), table.watermark) == (1, 1, 1.0)
        table.extend(batch)
        assert (len(table.keys), len(table.ids), table.watermark) == (2, 2, 2.0)
        with pytest.raises(ValueError, match="timestamp order"):
            table.encode([BehaviorLog(3, DEV, "y", 1.5)], ordered=True)
        assert (len(table.keys), len(table.ids), table.watermark) == (2, 2, 2.0)

    def test_columns_are_open_below_and_closed_above(self):
        table = self.table()
        stamps = [1.0, 2.0, 2.0, 3.0, 4.0]
        table.extend(
            table.encode([BehaviorLog(k, DEV, "x", t) for k, t in enumerate(stamps)], True)
        )
        assert table.columns(2.0, 4.0).uids == [3, 4]
        assert table.columns(1.0, 2.0).uids == [1, 2]
        assert table.columns(4.0, 9.0) == LogColumns([], [])
        table.prune(2.0)
        assert table.uids == [3, 4] and len(table.keys) == len(table.times) == 2

    def test_compact_keeps_exactly_the_values_of_held_rows(self):
        table = self.table()
        for k in range(6):
            table.extend(table.encode([BehaviorLog(k, DEV, f"v{k % 4}", float(k))], True))
        keys_before = list(table.keys)
        table.prune(2.0)  # rows 3, 4, 5 = values v3, v0, v1
        assert len(table.ids) == 4
        table.compact()
        assert len(table.ids) == 3 and table.keys == keys_before[3:]
        # A forgotten value comes back under an id no held row uses.
        table.extend(table.encode([BehaviorLog(9, DEV, "v2", 9.0), BehaviorLog(9, DEV, "v0", 9.0)], True))
        assert table.keys[-1] == keys_before[4]
        assert table.keys[-2] not in keys_before[3:]


class TestWideSpansStayExact:
    def test_lexsort_fallback_equals_the_reference(self):
        """Two keys x a uid span of 2**62: the packed key would overflow."""
        builder = BNBuilder(windows=(HOUR,), edge_types=TYPES)
        uids = [2**62, -(2**61), 3, 2**62, 4, 3]
        logs = [
            BehaviorLog(uid, DEV, "ab"[k % 2], 60.0 + k) for k, uid in enumerate(uids)
        ]
        vec, ref = BehaviorNetwork(), BehaviorNetwork()
        assert builder.run_window_job(vec, logs, HOUR, HOUR) == 6
        assert run_window_job_reference(builder, ref, logs, HOUR, HOUR) == 6
        assert reference_bits(vec) == reference_bits(ref)
        # (3, 2**62) shares both values, each in a group of three.
        assert np.isclose(vec.weight(2**62, 3, DEV), 2 / 3)
