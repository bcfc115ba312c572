"""JSONL span exporter/loader and the span-derived latency table.

Export format: one JSON object per span per line (OTel-flavored), fields
``trace_id, span_id, parent_id, name, start, end, duration, attributes,
events``.  Children are reconstructed from ``parent_id`` links by
:func:`rebuild_trees`, so a trace file round-trips losslessly (float
values survive exactly: JSON serializes Python floats with shortest
round-trip repr).

:func:`latency_table_from_spans` regenerates the Fig. 8a per-request
latency table — ``(sampling, features, prediction, total)`` in seconds —
from a list of exported traces.  Stage spans map onto breakdown slots as

=============  ===========================
span name      breakdown slot
=============  ===========================
bn_sample      sampling
feature_fetch  features
inference      prediction
fallback       prediction (summed after)
=============  ===========================

and the sums are performed in the same order the pipeline charges them,
so the table is bit-for-bit equal to the
:class:`~repro.system.latency.LatencyBreakdown`-derived one — the
validation gate of ``benchmarks/bench_fig8a_response_time.py``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from .tracing import Span

__all__ = [
    "write_spans_jsonl",
    "load_spans_jsonl",
    "rebuild_trees",
    "latency_table_from_spans",
]

#: span name -> (slot, order) used when regenerating the latency table.
_SLOT_OF = {
    "bn_sample": "sampling",
    "feature_fetch": "features",
    "inference": "prediction",
    "fallback": "prediction",
}


def span_to_dict(span: Span) -> dict:
    """One span (not its children) as a JSON-serializable dict."""
    return {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "duration": span.duration,
        "attributes": span.attributes,
        "events": span.events,
    }


def write_spans_jsonl(roots: Iterable[Span], path: str | Path) -> int:
    """Write every span of every trace to ``path`` (one JSON per line).

    Traces are written in order; within a trace, spans are depth-first
    (root first).  Returns the number of span lines written.
    """
    path = Path(path)
    count = 0
    with path.open("w") as fh:
        for root in roots:
            for span in root.iter():
                fh.write(json.dumps(span_to_dict(span)) + "\n")
                count += 1
    return count


def load_spans_jsonl(path: str | Path) -> list[dict]:
    """Read an exported trace file back into a list of span dicts."""
    rows: list[dict] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def rebuild_trees(rows: Sequence[dict]) -> list[dict]:
    """Reassemble flat span rows into trace trees.

    Returns the root span dicts (those whose parent is absent from the
    file), each with a ``children`` list, in file order.  Children keep
    file order too, which is the depth-first export order.
    """
    by_id: dict[str, dict] = {}
    roots: list[dict] = []
    for row in rows:
        node = dict(row)
        node["children"] = []
        by_id[node["span_id"]] = node
    for row in rows:
        node = by_id[row["span_id"]]
        parent = by_id.get(row["parent_id"]) if row["parent_id"] else None
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    return roots


def _stage_durations(tree: dict) -> dict[str, list[float]]:
    durations: dict[str, list[float]] = {
        "sampling": [],
        "features": [],
        "prediction": [],
    }

    def visit(node: dict) -> None:
        slot = _SLOT_OF.get(node["name"])
        if slot is not None:
            durations[slot].append(node["duration"])
        for child in node["children"]:
            visit(child)

    visit(tree)
    return durations


def latency_table_from_spans(
    trees: Sequence[dict],
) -> list[tuple[float, float, float, float]]:
    """Per-request ``(sampling, features, prediction, total)`` rows (seconds).

    ``trees`` is the output of :func:`rebuild_trees`.  Stage durations are
    summed in pipeline charge order and the total as
    ``sampling + features + prediction`` — the exact float-operation order
    of :class:`~repro.system.latency.LatencyBreakdown`, so the rows match
    the latency-model-derived table bit-for-bit.
    """
    table: list[tuple[float, float, float, float]] = []
    for tree in trees:
        durations = _stage_durations(tree)
        sampling = 0.0
        for d in durations["sampling"]:
            sampling += d
        features = 0.0
        for d in durations["features"]:
            features += d
        prediction = 0.0
        for d in durations["prediction"]:
            prediction += d
        table.append((sampling, features, prediction, sampling + features + prediction))
    return table
