"""The BN server's write path: ingest's failure contract, the ingest
boundary, and the bound on everything ``ingest`` / ``run_due_jobs`` keep."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.datagen import DAY, HOUR, BehaviorLog, BehaviorType
from repro.network import BehaviorNetwork, BNBuilder
from repro.network.builder import LogColumns
from repro.obs import MetricsRegistry
from repro.system import (
    BNServer,
    FaultInjector,
    InjectedFault,
    LatencyModel,
    LocalDatabase,
    ReplicatedStore,
    StorageError,
)

DEV, IP, GPS = BehaviorType.DEVICE_ID, BehaviorType.IPV4, BehaviorType.GPS


def make_server(database=None, latency=None, **builder_args) -> BNServer:
    builder_args.setdefault("windows", (HOUR, DAY))
    return BNServer(
        BNBuilder(**builder_args),
        latency or LatencyModel(seed=0),
        database=database,
        metrics=MetricsRegistry(),
    )


def server_state(server: BNServer) -> dict:
    """Everything an ingest may touch."""
    table = server._table
    nodes = [server.database]
    if isinstance(server.database, ReplicatedStore):
        nodes = [server.database.primary, server.database.replica]
    return {
        "rows": (list(table.uids), list(table.keys), list(table.times)),
        "watermark": table.watermark,
        "interned": (dict(table.ids), table._next_id),
        "db": [(copy.deepcopy(node._tables), node.write_count) for node in nodes],
        "logs_counter": server.metrics.counter("bn.ingest.logs").value,
        "latency_rng": server.latency._rng.bit_generator.state,
        "bn_version": server.bn.version,
    }


def pair(t: float) -> list[BehaviorLog]:
    return [BehaviorLog(1, DEV, "d0", t), BehaviorLog(2, DEV, "d0", t + 1.0)]


def crashed_database():
    server = make_server()
    return server, server.database.crash, server.database.recover, StorageError


def injected_fault():
    faults = FaultInjector(seed=0)
    latency = LatencyModel(seed=0)
    server = make_server(LocalDatabase(latency, faults=faults), latency)
    return (
        server,
        lambda: faults.add_crash("database", 0.0, 1.0),
        lambda: faults.clock.advance(2.0),
        InjectedFault,
    )


def both_replicas_down():
    latency = LatencyModel(seed=0)
    store = ReplicatedStore(LocalDatabase(latency), LocalDatabase(latency), latency)
    return make_server(store, latency), store.crash, store.recover, StorageError


def replica_gate_fault():
    """The replica's gate fails after the primary's passed: both stay put."""
    faults = FaultInjector(seed=0)
    latency = LatencyModel(seed=0)
    replica = LocalDatabase(latency, faults=faults, component="replica")
    store = ReplicatedStore(LocalDatabase(latency), replica, latency)
    return (
        make_server(store, latency),
        lambda: faults.add_transient("replica", 1.0, 0.0, 1.0),
        lambda: faults.clock.advance(2.0),
        InjectedFault,
    )


@pytest.mark.parametrize(
    "scenario",
    [crashed_database, injected_fault, both_replicas_down, replica_gate_fault],
)
class TestIngestIsAllOrNothingUnderAStorageFault:
    def test_failed_batch_is_not_buffered_and_can_be_offered_again(self, scenario):
        server, fail, heal, error = scenario()
        server.ingest(pair(5.0))
        fail()
        with pytest.raises(error):
            server.ingest(pair(10.0))
        assert server.stats()["logs_buffered"] == 2
        heal()
        # The very batch that failed is accepted, persisted once, and read.
        assert server.ingest(pair(10.0)) > 0.0
        rows, _ = server.database.query("logs", 1)
        assert [log.timestamp for log in rows] == [5.0, 10.0]
        if isinstance(server.database, ReplicatedStore):
            assert server.database.replica.query("logs", 1)[0] == rows
        assert server.stats()["logs_buffered"] == 4
        server.run_due_jobs(HOUR)
        assert server.bn.weight(1, 2, DEV) == pytest.approx(0.5)

    def test_failed_batch_leaves_every_structure_as_it_was(self, scenario):
        server, fail, heal, error = scenario()
        server.ingest(pair(5.0))
        before = server_state(server)
        fail()
        with pytest.raises(error):
            server.ingest([BehaviorLog(3, DEV, "never-seen", 10.0)])
        assert server_state(server) == before


MALFORMED = [
    pytest.param("timestamp", float("nan"), ValueError, id="nan-timestamp"),
    pytest.param("timestamp", float("inf"), ValueError, id="inf-timestamp"),
    pytest.param("uid", 1.5, TypeError, id="float-uid"),
    pytest.param("value", 7, TypeError, id="int-value"),
    pytest.param("uid", 2**63, ValueError, id="uid-beyond-int64"),
    pytest.param("timestamp", 9.0, ValueError, id="before-the-watermark"),
]


class TestIngestBoundary:
    @pytest.mark.parametrize("btype", [DEV, GPS], ids=["edge-type", "other-type"])
    @pytest.mark.parametrize("field, value, error", MALFORMED)
    def test_rejected_with_state_unchanged(self, field, value, error, btype):
        server, control = make_server(), make_server()
        for each in (server, control):
            each.ingest(pair(10.0))
        fields = {"uid": 3, "btype": btype, "value": "d1", "timestamp": 30.0, field: value}
        batch = [BehaviorLog(4, DEV, "fresh", 20.0), BehaviorLog(**fields), *pair(40.0)]
        with pytest.raises(error):
            server.ingest(batch)
        # As if the batch had never been offered.
        assert server_state(server) == server_state(control)
        # Not wedged: the stream goes on and the jobs run.
        server.ingest(pair(50.0))
        jobs, _ = server.run_due_jobs(HOUR)
        assert jobs == 1 and server.bn.weight(1, 2, DEV) == pytest.approx(0.5)

    def test_watermark_outlives_the_buffer_and_counts_other_types(self):
        server = make_server(windows=(HOUR,))
        server.ingest(pair(10.0) + [BehaviorLog(3, GPS, "g", 20.0)])
        server.run_due_jobs(3 * HOUR)  # every buffered row pruned
        assert server.stats()["logs_buffered"] == 0
        with pytest.raises(ValueError, match="timestamp order"):
            server.ingest(pair(15.0))
        server.ingest(pair(20.0))

    def test_numpy_integer_uids_are_integers(self):
        server = make_server()
        server.ingest([BehaviorLog(np.int64(1), DEV, "d", 5.0), BehaviorLog(2, DEV, "d", 6.0)])
        server.run_due_jobs(HOUR)
        assert server.bn.weight(1, 2, DEV) == pytest.approx(0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestNonFiniteClock:
    def test_run_due_jobs_refuses_it_with_state_unchanged(self, bad):
        server = make_server()
        server.ingest(pair(10.0))
        server.run_due_jobs(20.0)  # no epoch has closed: the rows stay held
        before = (server_state(server), server.jobs_run, dict(server._next_epoch))
        with pytest.raises(ValueError):
            server.run_due_jobs(bad)
        assert (server_state(server), server.jobs_run, dict(server._next_epoch)) == before
        assert server.run_due_jobs(HOUR)[0] == 1
        assert server.bn.weight(1, 2, DEV) == pytest.approx(0.5)

    def test_window_job_refuses_it_before_registering_a_node(self, bad):
        builder, bn = BNBuilder(windows=(HOUR,)), BehaviorNetwork()
        key = 7 * len(builder.edge_types)  # one shared (type, value)
        with pytest.raises(ValueError):
            builder.run_window_job(bn, LogColumns([1, 2], [key, key]), HOUR, bad)
        assert (bn.version, bn.num_nodes()) == (0, 0)


# ----------------------------------------------------------------------
# Bounded state
# ----------------------------------------------------------------------
SPAN = 4 * DAY
TTL = 2 * DAY
WINDOWS = (HOUR, 6 * HOUR)


def span_logs(seed: int = 0) -> list[tuple[int, BehaviorType, int, float]]:
    """One small span: ``(uid, type, value number, offset)`` in time order."""
    rng = np.random.default_rng(seed)
    rows = [
        (
            int(rng.integers(0, 12)),
            (DEV, IP, GPS)[int(rng.integers(0, 3))],
            int(rng.integers(0, 6)),
            float(rng.uniform(0.0, SPAN)),
        )
        for _ in range(400)
    ]
    return sorted(rows, key=lambda row: row[3])


def play_pass(server: BNServer, number: int):
    """Replay the span ``number`` spans later, hour by hour, with value
    strings no earlier pass used; yields ``(now, logs delivered so far)``
    after every tick."""
    start = number * SPAN
    logs = [
        BehaviorLog(uid, btype, f"pass{number}-v{value}", start + offset)
        for uid, btype, value, offset in span_logs()
    ]
    delivered = 0
    for hour in range(1, int(SPAN / HOUR) + 1):
        now = start + hour * HOUR
        batch = [log for log in logs[delivered:] if log.timestamp <= now]
        delivered += len(batch)
        server.ingest(batch)
        server.run_due_jobs(now)
        yield now, logs[:delivered]
    assert delivered == len(logs)


def persisted(node: LocalDatabase) -> list[float]:
    return sorted(log.timestamp for rows in node._tables["logs"].values() for log in rows)


def horizon(now: float) -> float:
    return now - (TTL + max(WINDOWS))


class TestNothingGrowsWithUptime:
    def sizes(self, server: BNServer) -> dict[str, int]:
        table = server.database._tables["logs"]
        return {
            "buffered_rows": int(server.stats()["logs_buffered"]),
            "interned_values": len(server._table.ids),
            "log_rows": sum(len(rows) for rows in table.values()),
            "log_keys": len(table),
            "expiry_buckets": len(server.bn._expiry_buckets),
            "edges": server.bn.num_edges(),
            "pairs": len(server.bn._pair_seq),
        }

    def test_steady_state_repeats_exactly(self):
        server = make_server(windows=WINDOWS, ttl=TTL)
        ends = []
        for number in range(6):
            for _tick in play_pass(server, number):
                pass
            ends.append(self.sizes(server))
        assert ends[1] == ends[2] == ends[3] == ends[4] == ends[5]
        assert all(count > 0 for count in ends[1].values())
        assert ends[1]["log_rows"] < len(span_logs())  # less than one pass is kept

    def test_intern_table_holds_the_window_and_one_sweep_of_values(self):
        server = make_server(windows=WINDOWS, ttl=TTL)
        peak = 0
        for number in range(3):
            for _tick in play_pass(server, number):
                peak = max(peak, len(server._table.ids))
        # 6 distinct values a pass: the live window and the day since the last
        # sweep hold at most two passes' worth; uncompacted, pass 2 ends on 18.
        assert 6 < peak <= 12


class TestRetention:
    def test_keeps_exactly_the_rows_newer_than_ttl_plus_longest_window(self):
        server = make_server(windows=WINDOWS, ttl=TTL)
        history: list[BehaviorLog] = []
        sweeps = 0
        for number in range(3):
            for now, delivered in play_pass(server, number):
                if server._last_ttl_sweep != now:
                    continue
                sweeps += 1
                kept = [
                    log.timestamp
                    for log in history + delivered
                    if log.timestamp > horizon(now)
                ]
                assert persisted(server.database) == kept
            history += delivered
        assert sweeps == 3 * SPAN / DAY
        assert len(persisted(server.database)) < len(history)

    def test_both_nodes_of_a_replicated_store(self):
        latency = LatencyModel(seed=0)
        store = ReplicatedStore(LocalDatabase(latency), LocalDatabase(latency), latency)
        server = make_server(store, latency, windows=WINDOWS, ttl=TTL)
        for number in range(2):
            for now, _ in play_pass(server, number):
                pass
        kept = persisted(store.primary)
        assert kept == persisted(store.replica)
        assert kept and min(kept) > horizon(now) and store.primary.write_count > 0

    @pytest.mark.parametrize("injected", [False, True], ids=["crashed", "crash-window"])
    def test_skipped_while_unavailable_and_caught_up_next_sweep(self, injected):
        faults = FaultInjector(seed=0)
        latency = LatencyModel(seed=0)
        database = LocalDatabase(latency, faults=faults)
        server = make_server(database, latency, windows=WINDOWS, ttl=TTL)
        for now, _ in play_pass(server, 0):
            pass
        before = persisted(database)
        assert min(before) <= horizon(now + DAY)  # the next sweep has work to do
        if injected:
            faults.add_crash("database", 0.0, 1.0)
        else:
            database.crash()
        assert not database.available
        server.run_due_jobs(now + DAY)  # a sweep; the store sits it out
        assert server._last_ttl_sweep == now + DAY
        assert persisted(database) == before
        faults.clock.advance(2.0)
        database.recover()
        server.run_due_jobs(now + 2 * DAY)
        assert persisted(database) == [t for t in before if t > horizon(now + 2 * DAY)]

    def test_a_down_replica_catches_up(self):
        latency = LatencyModel(seed=0)
        store = ReplicatedStore(LocalDatabase(latency), LocalDatabase(latency), latency)
        server = make_server(store, latency, windows=WINDOWS, ttl=TTL)
        for now, _ in play_pass(server, 0):
            pass
        before = persisted(store.replica)
        store.replica.crash()
        server.run_due_jobs(now + DAY)
        assert persisted(store.replica) == before
        assert persisted(store.primary) == [t for t in before if t > horizon(now + DAY)]
        store.replica.recover()
        server.run_due_jobs(now + 2 * DAY)
        assert persisted(store.replica) == persisted(store.primary)

    def test_modeled_clock_and_fault_stream_do_not_see_it(self, monkeypatch):
        """Same charges, same latency draws, same injector draws as a server
        that never retires anything."""

        def run(retire: bool):
            if not retire:
                monkeypatch.setattr(LocalDatabase, "retire", lambda self, *rule: 0)
            faults = FaultInjector(seed=3)
            faults.add_transient("database", rate=1e-12)  # one draw per gated call
            latency = LatencyModel(seed=0)
            database = LocalDatabase(latency, faults=faults)
            server = make_server(database, latency, windows=WINDOWS, ttl=TTL)
            charged = []
            for number in range(2):
                for now, _ in play_pass(server, number):
                    charged.append(database.query("logs", 1)[1])
            monkeypatch.undo()
            return (
                charged[: int(TTL / HOUR)],
                latency._rng.bit_generator.state,
                faults._rng.bit_generator.state,
                faults.trace,
                len(persisted(database)),
            )

        with_retention, without = run(True), run(False)
        assert with_retention[:4] == without[:4]
        assert with_retention[4] < without[4]

    def test_store_retire_is_a_prefix_drop_per_key(self):
        database = LocalDatabase(LatencyModel(seed=0))
        for key, stamp in [("a", 1.0), ("b", 2.0), ("a", 3.0), ("c", 5.0), ("a", 6.0)]:
            database.insert("t", key, stamp)
        queries, writes = database.query_count, database.write_count
        assert database.retire("t", float, 3.0) == 3
        assert database._tables["t"] == {"a": [6.0], "c": [5.0]}
        assert database.retire("t", float, 3.0) == 0
        assert database.retire("never-written", float, 3.0) == 0
        assert (database.query_count, database.write_count) == (queries, writes)
