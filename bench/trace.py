"""Span recorder for the traced pass, installed from outside the program.

Nothing under ``src/`` knows about this module.  For the traced section the
harness swaps public callables (methods on classes, functions in module
namespaces) for wrappers that record a span around the original, and puts
the originals back afterwards.  The real pipeline therefore runs, with its
real nesting: ``Turbo.predict`` calls ``BNServer.sample`` through the class,
so the sample span lands under the predict span without re-enacting the
request by hand.

A span is ``[name, start, end, parent, op, counts]`` held in a plain list;
the lists are written to JSONL when the run ends, never during it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .stats import quantile, supported_percentile

__all__ = [
    "Recorder",
    "Target",
    "patched",
    "self_seconds",
    "layer_metrics",
    "root_seconds",
    "write_jsonl",
]

NAME, START, END, PARENT, OP, COUNTS = range(6)

#: ``<span>.<measure>`` measures that are ratios of two summed counts.
RATIOS = {"coalescing": ("touches", "unique")}


class Recorder:
    """Collects spans in memory; one instance per traced section."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[list] = []
        #: identifier shared by every span of the operation in flight.
        self.op = -1
        self._stack: list[int] = []
        self._clock = clock

    def wrap(
        self,
        name: str,
        fn: Callable,
        counts: Callable[[Any], dict[str, float]] | None = None,
    ) -> Callable:
        """``fn`` with a span recorded around every call.

        ``counts`` maps the call's return value to the counts stored on the
        span (work the program reports about itself, never a time).
        """
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counts is not None:
                span[COUNTS] = counts(result)
            return result

        return traced


class Target(NamedTuple):
    """One public callable to wrap: ``module[.owner].attr`` -> span ``name``."""

    name: str
    module: str
    owner: str | None
    attr: str
    counts: Callable[[Any], dict[str, float]] | None = None


@contextmanager
def patched(recorder: Recorder, targets: Iterable[Target]) -> Iterator[list[str]]:
    """Install span wrappers on ``targets``; restore the originals on exit.

    Yields the names of targets that no longer exist in the program (a
    refactor moved them); the caller counts each as a failed check.
    """
    undo: list[tuple[Any, str, Any]] = []
    missing: list[str] = []
    try:
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
                if target.owner is not None:
                    owner = getattr(owner, target.owner)
                original = vars(owner)[target.attr]
            except (ImportError, AttributeError, KeyError):
                missing.append(target.name)
                continue
            setattr(owner, target.attr, recorder.wrap(target.name, original, target.counts))
            undo.append((owner, target.attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_seconds(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the covered part of child spans.

    Children are clipped to the parent's interval and overlapping children
    are counted once (the union of their intervals), so a child that
    overruns its parent or two children that overlap never drive self time
    negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out: list[float] = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            low = max(child_start, reach)
            high = min(child_end, end)
            if high > low:
                covered += high - low
                reach = high
        out.append((end - start) - covered)
    return out


def root_seconds(spans: list[list]) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(span[END] - span[START] for span in spans if span[PARENT] < 0)


def layer_metrics(spans: list[list], metrics: Iterable[str]) -> dict[str, float]:
    """Values of the per-layer metrics named ``<span name>.<measure>``.

    Measures: ``busy_s`` (summed span time), ``self_s``, ``p95_ms``,
    ``calls``, a :data:`RATIOS` key, or the name of a count summed over the
    spans.  A layer the workload never entered reads 0, and so does a
    ``p95_ms`` over too few spans to have ten beyond it.
    """
    selfs = self_seconds(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)

    def value(metric: str) -> float:
        name, _, measure = metric.rpartition(".")
        picked = by_name.get(name)
        if not picked:
            return 0.0
        if measure == "busy_s":
            return sum(spans[i][END] - spans[i][START] for i in picked)
        if measure == "self_s":
            return sum(selfs[i] for i in picked)
        if measure == "p95_ms":
            if supported_percentile(len(picked)) < 95:
                return 0.0
            return 1e3 * quantile([spans[i][END] - spans[i][START] for i in picked], 0.95)
        if measure == "calls":
            return float(len(picked))

        def total(key: str) -> float:
            return float(sum((spans[i][COUNTS] or {}).get(key, 0) for i in picked))

        if measure in RATIOS:
            numerator, denominator = RATIOS[measure]
            return total(numerator) / max(1.0, total(denominator))
        return total(measure)

    return {metric: value(metric) for metric in metrics}


def write_jsonl(path: Path, spans: list[list], origin: float) -> None:
    """One span per line, times in seconds since ``origin``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for index, span in enumerate(spans):
            handle.write(
                json.dumps(
                    {
                        "id": index,
                        "name": span[NAME],
                        "start": span[START] - origin,
                        "end": span[END] - origin,
                        "parent": span[PARENT],
                        "op": span[OP],
                        "counts": span[COUNTS] or {},
                    }
                )
            )
            handle.write("\n")
