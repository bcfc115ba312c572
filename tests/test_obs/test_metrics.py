"""MetricsRegistry unit tests: instrument semantics and registry invariants."""

from __future__ import annotations

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry

pytestmark = pytest.mark.obs


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.as_int() == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge()
        gauge.set(3.5)
        gauge.set(-1.0)
        assert gauge.value == -1.0


class TestHistogram:
    def test_observe_tracks_exact_count_and_total(self):
        hist = Histogram()
        for value in (0.1, 0.2, 0.3):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == pytest.approx(0.6)
        assert hist.mean == pytest.approx(0.2)

    def test_negative_observation_rejected(self):
        with pytest.raises(ValueError):
            Histogram().observe(-0.5)

    def test_percentile_over_samples(self):
        hist = Histogram()
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert hist.percentile(99) == pytest.approx(99.0, abs=1.0)

    def test_empty_histogram_defaults(self):
        hist = Histogram()
        assert hist.percentile(95) == 0.0
        assert hist.mean == 0.0

    def test_reservoir_caps_samples_but_not_count(self):
        hist = Histogram(max_samples=10)
        for value in range(25):
            hist.observe(float(value))
        assert hist.count == 25
        assert hist.total == pytest.approx(sum(range(25)))

    def test_max_samples_validation(self):
        with pytest.raises(ValueError):
            Histogram(max_samples=0)


class TestMetricsRegistry:
    def test_create_on_first_use_then_reuse(self):
        registry = MetricsRegistry()
        first = registry.counter("turbo.requests")
        second = registry.counter("turbo.requests")
        assert first is second

    def test_kind_mixing_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_snapshot_contains_all_instruments(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.gauge("b").set(1.5)
        registry.histogram("c").observe(0.25)
        snap = registry.snapshot()
        assert snap["counters"]["a"] == 2
        assert snap["gauges"]["b"] == 1.5
        assert snap["histograms"]["c"]["count"] == 1

    def test_render_is_sorted_and_readable(self):
        registry = MetricsRegistry()
        registry.counter("z.late").inc()
        registry.counter("a.early").inc(3)
        text = registry.render()
        assert text.index("a.early") < text.index("z.late")
        assert "3" in text

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_nonfinite_values_refused_before_they_poison_the_snapshot(self, bad):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.histogram("c").observe(0.25)
        with pytest.raises(ValueError):
            registry.counter("a").inc(bad)
        with pytest.raises(ValueError):
            registry.histogram("c").observe(bad)
        snap = registry.snapshot()
        assert snap["counters"]["a"] == 2
        assert snap["histograms"]["c"] == {"count": 1, "mean": 0.25, "p50": 0.25, "p99": 0.25}

    def test_histogram_factory_hook(self):
        class Custom(Histogram):
            pass

        registry = MetricsRegistry()
        hist = registry.histogram("h", factory=Custom)
        assert isinstance(hist, Custom)
        assert registry.histogram("h") is hist
