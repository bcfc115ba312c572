"""One fork-join: the only place this package forks or owns a pipe.

:func:`fork_map` runs ``fn`` over a short list of items in parallel: the
parent runs the first item itself and forks one child per other item.  A
child inherits everything ``fn`` reads by fork (copy-on-write, nothing is
published or pickled on the way in) and sends ``fn(item)`` back over its
own pipe.  Its one use is as the ``executor`` of the full-graph sweep
of :func:`~repro.core.lambda_infer.materialize`, which recomputes a
``None`` slot in-process, so losing a child costs time, never a result.
"""

from __future__ import annotations

import multiprocessing
import threading
import traceback
from typing import Any, Callable, Sequence

__all__ = ["fork_map"]

#: Seconds the parent waits on a child's pipe once its own item is done; a
#: child silent past it is killed and its slot yields ``None``.
HANG_GUARD = 60.0


def _child(
    conn: Any, fn: Callable[[Any], Any], item: Any
) -> None:  # pragma: no cover - runs in the forked child
    try:
        conn.send(("ok", fn(item)))
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        conn.send(("error", f"{exc!r}\n{traceback.format_exc()}"))


def _collect(conn: Any, item: Any) -> Any:
    """One child's value; ``None`` when it died or stayed silent."""
    try:
        if not conn.poll(HANG_GUARD):
            return None
        status, value = conn.recv()
    except (EOFError, OSError):
        return None
    if status == "error":
        raise RuntimeError(f"fork_map child for item {item!r} failed: {value}")
    return value


def fork_map(fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
    """``[fn(item) for item in items]``, one forked child per item but the first.

    A child that dies, or stays silent past :data:`HANG_GUARD` seconds
    after the parent finished its own item, yields ``None``; an exception
    in a child re-raises here as ``RuntimeError`` naming the item.  Every
    child is joined before this returns or raises.

    ``fork`` copies only the calling thread: a lock held by any other
    thread (allocator, logging, a queue) stays locked forever in the
    child.  So this forks only while the main thread is the sole live
    thread, and says which thread is in the way.
    """
    items = list(items)
    if not items:
        return []
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            raise RuntimeError(
                f"refusing to fork while thread {thread.name!r} is alive"
            )
    ctx = multiprocessing.get_context("fork")
    children: list[tuple[Any, Any]] = []
    try:
        for item in items[1:]:
            receiver, sender = ctx.Pipe(duplex=False)
            process = ctx.Process(target=_child, args=(sender, fn, item), daemon=True)
            process.start()
            # The child holds the only write end: its death reads as EOF.
            sender.close()
            children.append((process, receiver))
        results = [fn(items[0])]
        for (_, receiver), item in zip(children, items[1:]):
            results.append(_collect(receiver, item))
        return results
    finally:
        for process, receiver in children:
            receiver.close()
            if process.is_alive():
                process.kill()
            process.join()
