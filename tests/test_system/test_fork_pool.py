"""The one fork-join: order, real kills, errors, the thread guard, hygiene.

Drives :func:`~repro.system.fork_pool.fork_map` with toy functions, so the
contract the full-graph sweep relies on is pinned without its payload:

* results come back in item order, the first item computed by the parent
  and every other one by its own child;
* a child that ``SIGKILL``s itself, or stays silent past the hang guard,
  yields ``None``, and the other items still come back;
* an exception in a child re-raises as ``RuntimeError`` naming the item;
* forking with another live thread is refused by name;
* no child process survives a return or a raise from the parent's own item;
* the suite's hygiene check catches a leaked non-daemon thread.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.system import fork_pool
from repro.system.fork_pool import fork_map
from tests.conftest import assert_no_leaks, live_threads

pytestmark = pytest.mark.sharding

PARENT = os.getpid()


def square_with_pid(item):
    return item * item, os.getpid()


def killed_in_child(item):
    if item == "die" and os.getpid() != PARENT:
        os.kill(os.getpid(), signal.SIGKILL)
    return item


def raises_in_child(item):
    if item == 7:
        raise ValueError(f"boom {item}")
    return item


def sleeps_in_child(item):
    if os.getpid() != PARENT:
        time.sleep(5.0)
    return item


class TestResults:
    def test_order_kept_and_one_child_per_item_but_the_first(self):
        results = fork_map(square_with_pid, [3, 1, 4, 1, 5])
        assert [value for value, _ in results] == [9, 1, 16, 1, 25]
        pids = [pid for _, pid in results]
        assert pids[0] == PARENT
        assert PARENT not in pids[1:] and len(set(pids[1:])) == 4
        assert fork_map(square_with_pid, []) == []
        assert fork_map(square_with_pid, [2]) == [(4, PARENT)]
        assert multiprocessing.active_children() == []


class TestDeath:
    def test_sigkilled_child_yields_none_and_spares_the_rest(self):
        assert fork_map(killed_in_child, ["a", "die", "c"]) == ["a", None, "c"]
        assert multiprocessing.active_children() == []

    def test_silent_child_yields_none_past_the_hang_guard(self, monkeypatch):
        monkeypatch.setattr(fork_pool, "HANG_GUARD", 0.2)
        started = time.perf_counter()
        assert fork_map(sleeps_in_child, ["a", "b"]) == ["a", None]
        assert time.perf_counter() - started < 4.0
        assert multiprocessing.active_children() == []


class TestErrors:
    def test_child_exception_raises_naming_the_item(self):
        with pytest.raises(RuntimeError, match=r"item 7 failed: .*boom 7"):
            fork_map(raises_in_child, [1, 7, 3])
        assert multiprocessing.active_children() == []

    def test_parent_item_raise_leaves_no_child_behind(self):
        with pytest.raises(ValueError, match="boom 7"):
            fork_map(raises_in_child, [7, 1, 2])
        assert multiprocessing.active_children() == []


class TestLifecycle:
    def test_fork_with_live_thread_is_refused(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, name="bystander")
        thread.start()
        try:
            with pytest.raises(RuntimeError, match="'bystander' is alive"):
                fork_map(square_with_pid, [1, 2])
        finally:
            release.set()
            thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert multiprocessing.active_children() == []

    def test_leaked_non_daemon_thread_is_caught(self):
        before = live_threads()
        release = threading.Event()
        thread = threading.Thread(target=release.wait, name="leaker")
        thread.start()
        try:
            with pytest.raises(AssertionError, match="leaker"):
                assert_no_leaks(before)
        finally:
            release.set()
            thread.join(timeout=5.0)
        assert_no_leaks(before)
