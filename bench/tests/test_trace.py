"""Span recording, the self-time rule and the wrappers' install/restore."""

import types

from bench.trace import (
    Recorder,
    Target,
    layer_metrics,
    patched,
    root_seconds,
    self_seconds,
    write_jsonl,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def span(name, start, end, parent=-1, counts=None):
    return [name, start, end, parent, 0, counts]


def test_self_time_is_duration_minus_children():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 4.0, 0), span("c", 5.0, 9.0, 0)]
    assert self_seconds(spans) == [3.0, 3.0, 4.0]


def test_overlapping_and_overrunning_children_are_counted_once_and_clipped():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 2.0, 6.0, 0),
        span("c", 4.0, 8.0, 0),  # overlaps b: the union is [2, 8]
        span("d", 9.0, 12.0, 0),  # overruns the parent: only [9, 10] counts
    ]
    assert self_seconds(spans)[0] == 10.0 - 6.0 - 1.0


def test_grandchildren_do_not_reduce_a_spans_self_time():
    spans = [span("a", 0.0, 10.0), span("b", 0.0, 10.0, 0), span("c", 0.0, 10.0, 1)]
    assert self_seconds(spans) == [0.0, 0.0, 10.0]


def test_wrappers_nest_by_call_and_carry_the_op_and_counts():
    clock = FakeClock()
    recorder = Recorder(clock)

    def inner(x):
        clock.advance(2.0)
        return x * 2

    inner = recorder.wrap("layer.inner", inner, lambda result: {"rows": result})

    def outer():
        clock.advance(1.0)
        value = inner(3) + inner(4)
        clock.advance(1.0)
        return value

    outer = recorder.wrap("layer.outer", outer)
    recorder.op = 7
    assert outer() == 14
    names = [s[0] for s in recorder.spans]
    assert names == ["layer.outer", "layer.inner", "layer.inner"]
    assert [s[3] for s in recorder.spans] == [-1, 0, 0]
    assert {s[4] for s in recorder.spans} == {7}
    metrics = layer_metrics(
        recorder.spans,
        ["layer.outer.busy_s", "layer.outer.self_s", "layer.inner.busy_s",
         "layer.inner.rows", "layer.inner.calls", "layer.absent.busy_s"],
    )
    assert metrics == {
        "layer.outer.busy_s": 6.0,
        "layer.outer.self_s": 2.0,
        "layer.inner.busy_s": 4.0,
        "layer.inner.rows": 14.0,
        "layer.inner.calls": 2.0,
        "layer.absent.busy_s": 0.0,
    }
    assert root_seconds(recorder.spans) == 6.0


def test_a_span_closes_when_the_wrapped_call_raises():
    clock = FakeClock()
    recorder = Recorder(clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    wrapped = recorder.wrap("layer.boom", boom)
    try:
        wrapped()
    except KeyError:
        pass
    after = recorder.wrap("layer.after", lambda: None)
    after()
    assert recorder.spans[0][1:3] == [0.0, 1.0]
    assert recorder.spans[1][3] == -1  # not parented under the failed span


def test_ratio_measures_divide_summed_counts():
    spans = [
        span("s", 0.0, 1.0, counts={"touches": 30, "unique": 10}),
        span("s", 1.0, 2.0, counts={"touches": 10, "unique": 10}),
    ]
    assert layer_metrics(spans, ["s.coalescing"]) == {"s.coalescing": 2.0}


def test_patched_wraps_functions_and_methods_then_restores_them():
    module = types.ModuleType("bench_fake_program")

    class Thing:
        def method(self):
            return "method"

    def function():
        return "function"

    module.Thing, module.function = Thing, function
    import sys

    sys.modules[module.__name__] = module
    try:
        original_method = Thing.__dict__["method"]
        recorder = Recorder()
        targets = [
            Target("p.method", module.__name__, "Thing", "method"),
            Target("p.function", module.__name__, None, "function"),
            Target("p.moved", module.__name__, "Thing", "no_longer_here"),
            Target("p.gone", "bench_fake_program_that_is_not_there", None, "f"),
        ]
        with patched(recorder, targets) as missing:
            assert missing == ["p.moved", "p.gone"]
            assert Thing().method() == "method"
            assert module.function() == "function"
        assert [s[0] for s in recorder.spans] == ["p.method", "p.function"]
        assert Thing.__dict__["method"] is original_method
        assert module.function is function
    finally:
        del sys.modules[module.__name__]


def test_jsonl_has_one_line_per_span_relative_to_the_origin(tmp_path):
    import json

    path = tmp_path / "out" / "trace.jsonl"
    write_jsonl(path, [span("a", 5.0, 7.0), span("b", 5.5, 6.0, 0, {"rows": 3})], origin=5.0)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == [
        {"id": 0, "name": "a", "start": 0.0, "end": 2.0, "parent": -1, "op": 0, "counts": {}},
        {"id": 1, "name": "b", "start": 0.5, "end": 1.0, "parent": 0, "op": 0, "counts": {"rows": 3}},
    ]
