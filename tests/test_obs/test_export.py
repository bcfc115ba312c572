"""JSONL exporter round-trip tests and span-derived latency-table checks."""

from __future__ import annotations

import pytest

from repro.obs import (
    Tracer,
    latency_table_from_spans,
    load_spans_jsonl,
    rebuild_trees,
    write_spans_jsonl,
)
from repro.obs.export import span_to_dict

pytestmark = pytest.mark.obs


def make_trace(tracer, durations):
    """One request trace with the three pipeline stages plus a fallback."""
    sampling, features, prediction, fallback = durations
    root = tracer.start_trace("request", at=0.0, uid=1)
    at = 0.0
    for name, seconds in (
        ("bn_sample", sampling),
        ("feature_fetch", features),
        ("inference", prediction),
        ("fallback", fallback),
    ):
        span = root.child(name, at=at)
        span.incr("ops", 2)
        span.add_event("fault.latency", at=at, component=name)
        span.finish(seconds)
        at += seconds
    tracer.finish_trace(root, at)
    return root


class TestRoundTrip:
    def test_write_load_rebuild_is_lossless(self, tmp_path):
        tracer = Tracer()
        # Values chosen to be awkward in binary float.
        root = make_trace(tracer, (0.1, 0.2, 0.30000000000000004, 1e-17))
        path = tmp_path / "trace.jsonl"
        assert write_spans_jsonl([root], path) == 5

        rows = load_spans_jsonl(path)
        assert len(rows) == 5
        trees = rebuild_trees(rows)
        assert len(trees) == 1

        original = [span_to_dict(s) for s in root.iter()]
        rebuilt = [{k: v for k, v in node.items() if k != "children"} for node in _dfs(trees[0])]
        assert rebuilt == original

    def test_floats_survive_exactly(self, tmp_path):
        tracer = Tracer()
        odd = 0.1 + 0.2  # 0.30000000000000004
        root = tracer.start_trace("request", at=odd)
        root.finish(odd)
        path = tmp_path / "trace.jsonl"
        write_spans_jsonl([root], path)
        (row,) = load_spans_jsonl(path)
        assert row["start"] == odd
        assert row["duration"] == odd
        assert row["end"] == root.end

    def test_rebuild_preserves_depth_first_child_order(self, tmp_path):
        tracer = Tracer()
        root = make_trace(tracer, (0.1, 0.2, 0.3, 0.0))
        path = tmp_path / "trace.jsonl"
        write_spans_jsonl([root], path)
        (tree,) = rebuild_trees(load_spans_jsonl(path))
        names = [child["name"] for child in tree["children"]]
        assert names == ["bn_sample", "feature_fetch", "inference", "fallback"]

    def test_multiple_traces_keep_file_order(self, tmp_path):
        tracer = Tracer()
        roots = [make_trace(tracer, (0.1, 0.2, 0.3, 0.0)) for _ in range(3)]
        path = tmp_path / "trace.jsonl"
        write_spans_jsonl(roots, path)
        trees = rebuild_trees(load_spans_jsonl(path))
        assert [t["trace_id"] for t in trees] == [r.trace_id for r in roots]


class TestLatencyTable:
    def test_table_sums_stage_durations(self):
        tracer = Tracer()
        root = make_trace(tracer, (0.1, 0.2, 0.3, 0.05))
        (row,) = latency_table_from_spans(_as_trees([root]))
        sampling, features, prediction, total = row
        assert sampling == 0.1
        assert features == 0.2
        assert prediction == 0.3 + 0.05
        assert total == sampling + features + prediction

    def test_fallback_folds_into_prediction_slot(self):
        tracer = Tracer()
        root = make_trace(tracer, (0.0, 0.0, 0.2, 0.7))
        (row,) = latency_table_from_spans(_as_trees([root]))
        assert row[2] == pytest.approx(0.9)

    def test_unknown_span_names_are_ignored(self):
        tracer = Tracer()
        root = tracer.start_trace("request", at=0.0)
        child = root.child("custom_stage", at=0.0)
        child.finish(5.0)
        tracer.finish_trace(root, 5.0)
        (row,) = latency_table_from_spans(_as_trees([root]))
        assert row == (0.0, 0.0, 0.0, 0.0)


def _as_trees(roots):
    """Flatten live spans to row dicts and rebuild, mimicking a file trip."""
    rows = [span_to_dict(s) for root in roots for s in root.iter()]
    return rebuild_trees(rows)


def _dfs(node):
    yield node
    for child in node["children"]:
        yield from _dfs(child)
