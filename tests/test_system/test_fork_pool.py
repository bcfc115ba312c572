"""The one fork pool: lifecycle, pipe protocol, fork guard, hygiene.

Drives :class:`~repro.system.ForkPool` directly with a toy command table
(echo, raise, sleep past the timeout, attach a segment), so the lifecycle
both real pools inherit is pinned without their payloads:

* ``call`` round-trips, the startup command ran, built-ins answer;
* a worker-side exception is re-raised and leaves the worker serving;
* timeout and ``crash`` mark the worker dead and later calls return
  ``None`` (the failover signal);
* ``start``/``finish`` pipeline across workers;
* ``close()`` is idempotent and leaves no process or segment behind;
* forking with another live thread is refused by name;
* the real pool defines none of the lifecycle itself.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.network.shm import SharedSnapshotStore
from repro.system import ForkPool, ShardWorkerPool
from tests.conftest import assert_no_leaks, repro_segments

pytestmark = pytest.mark.sharding


def _boom(state, payload):
    raise ValueError(f"boom {payload}")


def _nap(state, seconds):
    time.sleep(seconds)
    return "awake"


def _total(state, segment):
    (attached,) = state.attach("numbers", [segment])
    state.views["numbers"] = attached.arrays["numbers"]
    return float(state.views["numbers"].sum())


class ToyPool(ForkPool):
    commands = {
        "init": lambda state, payload: state.views.update(greeting=payload),
        "greeting": lambda state, payload: state.views["greeting"],
        "echo": lambda state, payload: payload,
        "boom": _boom,
        "nap": _nap,
        "total": _total,
    }
    label = "toy worker"

    def __init__(self, n_workers=1, timeout=30.0):
        self.spawned = []
        super().__init__(n_workers, timeout)

    def _startup(self):
        return "init", "hello"

    def _on_spawn(self, worker_id):
        self.spawned.append(worker_id)


@pytest.fixture()
def pool():
    with ToyPool(2) as toy:
        yield toy


class TestRoundTrips:
    def test_call_round_trip_and_startup(self, pool):
        assert pool.n_workers == pool.alive_count() == 2
        assert pool.spawned == [0, 1]
        assert pool.call(0, "echo", {"a": [1, 2]}) == {"a": [1, 2]}
        assert pool.call(1, "greeting") == "hello"
        pids = {pool.call(w, "ping") for w in range(2)}
        assert len(pids) == 2 and os.getpid() not in pids

    def test_worker_error_is_reraised_and_worker_survives(self, pool):
        with pytest.raises(RuntimeError, match=r"toy worker 0 failed: .*boom 7"):
            pool.call(0, "boom", 7)
        with pytest.raises(RuntimeError, match="unknown command 'nope'"):
            pool.call(0, "nope")
        assert pool.alive(0)
        assert pool.call(0, "echo", 3) == 3

    def test_start_finish_pipeline_across_workers(self, pool):
        # Everything is sent before anything is collected, two deep on
        # worker 0; replies come back per worker in send order.
        assert pool.start(0, "echo", "a")
        assert pool.start(1, "ping")
        assert pool.start(0, "echo", "b")
        other_pid = pool.finish(1)
        assert [pool.finish(0), pool.finish(0)] == ["a", "b"]
        assert other_pid != pool.call(0, "ping")


class TestDeath:
    def test_timeout_marks_dead_and_returns_none(self):
        with ToyPool(1, timeout=0.2) as toy:
            assert toy.call(0, "nap", 0.8) is None
            assert not toy.alive(0)
            assert toy.call(0, "echo", 1) is None
            assert not toy.start(0, "echo", 1)
            assert toy.finish(0) is None

    def test_crash_marks_dead_and_spares_the_rest(self, pool):
        pool.crash(0)
        assert not pool.alive(0)
        assert pool.call(0, "echo", 1) is None
        assert pool.alive(1) and pool.alive_count() == 1
        assert pool.call(1, "echo", 1) == 1
        pool.crash(0)  # already dead: no-op


class TestLifecycle:
    def test_close_twice_leaves_nothing_behind(self):
        before = repro_segments()
        with SharedSnapshotStore(prefix="repro-test-fork") as store:
            handle = store.publish("numbers", {"numbers": np.arange(5.0)})
            toy = ToyPool(2)
            if handle.shared:
                assert toy.call(0, "total", handle.segment) == 10.0
            toy.crash(1)
            toy.close()
            toy.close()
            assert toy.alive_count() == 0
            assert toy.call(0, "echo", 1) is None
        assert_no_leaks(before)

    def test_fork_with_live_thread_is_refused(self, pool):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, name="bystander")
        thread.start()
        try:
            with pytest.raises(RuntimeError, match="'bystander' is alive"):
                ToyPool(1)
            with pytest.raises(RuntimeError, match="'bystander' is alive"):
                pool._spawn_worker()
        finally:
            release.set()
            thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert pool.n_workers == 2

    def test_real_pools_inherit_the_lifecycle(self):
        lifecycle = {"call", "start", "finish", "close", "crash", "_spawn_worker"}
        assert issubclass(ShardWorkerPool, ForkPool)
        assert not lifecycle & set(vars(ShardWorkerPool))

