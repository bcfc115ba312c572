"""One fork-pool lifecycle: the only place this package forks or owns a pipe.

The paper's Section V system is a set of long-lived server processes; the
reproduction mirrors that with forked workers reading shared-memory
snapshots.  Such a pool (today only :mod:`repro.system.shard_workers`) is
a :class:`ForkPool` subclass that contributes a *command table* — a plain
``dict[str, handler]`` — and what to replay into a freshly forked
worker.  Training runs in one process.  The parent-side lifecycle
(:class:`ForkPool`) and the child-side command loop and teardown
(``_serve``, :class:`WorkerState`) live here, once.

Wire format: the parent sends ``(command, payload)``, the child answers
``("ok", value)`` or ``("error", repr(exc))``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from dataclasses import dataclass
from typing import Any, Callable

from ..network.shm import AttachedSegment, attach_segment

__all__ = ["ForkPool", "WorkerState"]


class WorkerState:
    """What one forked worker holds between commands.

    ``views`` is everything a handler derived from mapped memory or loaded
    over the pipe (indexes, feature matrices, models); ``segments`` maps a
    slot name to the shared-memory mappings backing those views.  Keeping
    the two apart is what lets :meth:`close` drop every view *before*
    closing a mapping — the other order hits ``BufferError`` and GC
    replays it noisily at interpreter exit.
    """

    def __init__(self) -> None:
        self.views: dict[str, Any] = {}
        self.segments: dict[str, list[AttachedSegment]] = {}

    def attach(self, slot: str, names: list[str]) -> list[AttachedSegment]:
        """Map ``names`` zero-copy under ``slot``, replacing what it held."""
        self.release(slot)
        attached = self.segments[slot] = [attach_segment(name) for name in names]
        return attached

    def release(self, slot: str) -> None:
        """Close the mappings held under ``slot`` (no-op when empty)."""
        for segment in self.segments.pop(slot, ()):
            segment.close()

    def close(self) -> None:
        """Drop every view, then close every mapping."""
        self.views.clear()
        for slot in list(self.segments):
            self.release(slot)


#: Child-side command handler: ``handler(state, payload) -> reply value``.
Handler = Callable[[WorkerState, Any], Any]


def _serve(
    conn: Any,
    parent_ends: list[Any],
    commands: dict[str, Handler],
    startup: tuple[str, Any],
) -> None:  # pragma: no cover - runs in the forked child
    """Worker process loop: run the startup command, then serve the pipe.

    Covered by the pool round-trip tests, but excluded from coverage
    accounting because it runs in a forked child.  A failing startup
    command kills the worker (the parent sees it dead on the next call);
    a failing served command is reported and the worker keeps serving.
    """
    # The fork copied the parent's end of every pipe the pool holds; drop
    # them, or this worker never sees EOF when the parent closes (or dies).
    for inherited in parent_ends:
        inherited.close()
    state = WorkerState()
    command, payload = startup
    commands[command](state, payload)
    while True:
        try:
            command, payload = conn.recv()
        except (EOFError, OSError):
            break
        try:
            if command == "ping":
                conn.send(("ok", os.getpid()))
            elif command == "crash":
                os._exit(13)
            elif command == "stop":
                conn.send(("ok", None))
                break
            elif command in commands:
                conn.send(("ok", commands[command](state, payload)))
            else:
                conn.send(("error", f"unknown command {command!r}"))
        except Exception as exc:  # noqa: BLE001 - report, don't die
            try:
                conn.send(("error", repr(exc)))
            except (BrokenPipeError, OSError):
                break
    state.close()


@dataclass(slots=True)
class _Worker:
    process: Any
    conn: Any
    alive: bool = True


class ForkPool:
    """A fleet of forked worker processes behind one pipe protocol.

    Subclasses set :attr:`commands` (the child-side command table) and
    :attr:`label` (how error messages name a worker), and override
    :meth:`_startup` / :meth:`_on_spawn` to say what a new worker runs
    before serving and what the parent replays into it afterwards — so a
    worker forked mid-run is indistinguishable from the originals.

    A dead worker is detected on the next call and excluded; the caller
    falls back in-process — shared segments are owned by their publisher
    and survive any worker crash.
    """

    commands: dict[str, Handler] = {}
    label = "worker"

    def __init__(self, n_workers: int, timeout: float) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.timeout = timeout
        self._workers: list[_Worker] = []
        for _ in range(n_workers):
            self._spawn_worker()

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _startup(self) -> tuple[str, Any]:
        """``(command, payload)`` a new worker runs before it serves.

        The payload reaches the child by fork inheritance, not through the
        pipe, so it may hold array references (copy-on-write, zero copies).
        """
        raise NotImplementedError

    def _on_spawn(self, worker_id: int) -> None:
        """Replay parent-held state into worker ``worker_id`` over the pipe."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> int:
        """Fork one worker; returns its id.

        ``fork`` copies only the calling thread: a lock held by any other
        thread (allocator, logging, a queue) stays locked forever in the
        child.  So the pool forks only from a parent whose main thread is
        the sole live thread, and says which thread is in the way.
        """
        for thread in threading.enumerate():
            if thread is not threading.main_thread():
                raise RuntimeError(
                    f"refusing to fork {self.label} while thread "
                    f"{thread.name!r} is alive"
                )
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_serve,
            args=(
                child_conn,
                [worker.conn for worker in self._workers] + [parent_conn],
                self.commands,
                self._startup(),
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._workers.append(_Worker(process, parent_conn))
        worker_id = len(self._workers) - 1
        self._on_spawn(worker_id)
        return worker_id

    def _stop_worker(self, worker_id: int) -> None:
        """Stop one worker (if still serving) and reap its process."""
        worker = self._workers[worker_id]
        if worker.alive:
            try:
                self.call(worker_id, "stop")
            except RuntimeError:  # pragma: no cover - defensive
                pass
            worker.alive = False
        worker.conn.close()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - defensive
            worker.process.terminate()
            worker.process.join(timeout=5.0)

    def _retire_worker(self) -> None:
        """Stop and forget the last worker in the pool."""
        self._stop_worker(len(self._workers) - 1)
        self._workers.pop()

    def _mark_dead(self, worker: _Worker) -> None:
        worker.alive = False
        worker.process.join(timeout=1.0)

    @property
    def n_workers(self) -> int:
        """Workers ever forked and not retired (dead ones included)."""
        return len(self._workers)

    def alive(self, worker_id: int) -> bool:
        """Whether ``worker_id``'s process is still serving."""
        return self._workers[worker_id].alive

    def alive_count(self) -> int:
        """Number of workers still serving."""
        return sum(1 for worker in self._workers if worker.alive)

    # ------------------------------------------------------------------
    # Command round-trips
    # ------------------------------------------------------------------
    def call(self, worker_id: int, command: str, payload: Any = None) -> Any:
        """Round-trip one command; returns ``None`` when the worker is dead.

        Death (pipe EOF, crash, timeout) is recorded so later calls skip
        the worker; a worker-side exception is re-raised here.
        """
        if not self.start(worker_id, command, payload):
            return None
        return self.finish(worker_id)

    def start(self, worker_id: int, command: str, payload: Any = None) -> bool:
        """Send one command without waiting — pair with :meth:`finish`.

        Splitting :meth:`call` lets a driver pipeline work across workers
        (send to all, then collect), so they compute concurrently.  Returns
        ``False`` when the worker is dead or the pipe broke on send.
        """
        worker = self._workers[worker_id]
        if not worker.alive:
            return False
        try:
            worker.conn.send((command, payload))
        except (BrokenPipeError, ConnectionResetError, OSError):
            self._mark_dead(worker)
            return False
        return True

    def finish(self, worker_id: int) -> Any:
        """Collect one pending reply from :meth:`start` (None when dead)."""
        worker = self._workers[worker_id]
        if not worker.alive:
            return None
        try:
            if not worker.conn.poll(self.timeout):
                raise EOFError("worker timed out")
            status, value = worker.conn.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
            self._mark_dead(worker)
            return None
        if status == "error":
            raise RuntimeError(f"{self.label} {worker_id} failed: {value}")
        return value

    def crash(self, worker_id: int) -> None:
        """Test hook: hard-kill one worker (``os._exit`` in the child)."""
        if self.start(worker_id, "crash"):
            worker = self._workers[worker_id]
            worker.process.join(timeout=5.0)
            worker.alive = False

    def close(self) -> None:
        """Stop every live worker and join the processes (idempotent)."""
        for worker_id in range(len(self._workers)):
            self._stop_worker(worker_id)

    def __enter__(self) -> "ForkPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
