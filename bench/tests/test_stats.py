"""The percentile rule and the arithmetic of a timed section the metrics rest on."""

import pytest

from bench.stats import quantile, supported_percentile
from bench.workloads import Section


@pytest.mark.parametrize(
    "count, percentile",
    [(5, 50), (19, 50), (20, 50), (100, 90), (199, 94), (200, 95), (999, 98), (1000, 99), (10**6, 99)],
)
def test_highest_percentile_with_ten_samples_beyond_it(count, percentile):
    assert supported_percentile(count) == percentile


def test_quantile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert quantile(values, 0.0) == 1.0
    assert quantile(values, 1.0) == 4.0
    assert quantile(values, 0.5) == 2.5
    assert quantile(list(range(101)), 0.95) == 95.0


def test_quantile_rejects_empty_samples_and_bad_arguments():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


def test_a_call_is_credited_with_the_lower_quartile_of_its_times_over_the_passes():
    section = Section()
    # five passes of three calls; the second pass is slow throughout, and the
    # fourth has one stall
    for first, second, third in [(1, 2, 4), (9, 9, 9), (1, 2, 4), (1, 8, 4), (1, 2, 4)]:
        section.record(first * 1e-3, units=10)
        section.record(second * 1e-3, units=10)
        section.record(third * 1e-3, units=10)
        section.cut()
    assert section.call_seconds() == pytest.approx([1e-3, 2e-3, 4e-3])
    assert section.figures() == pytest.approx(
        {"ops_per_s": 30 / 7e-3, "p50_ms": 2.0, "p95_ms": 3.8}
    )
    # a pass's own figures come from its own row
    assert section.figures(section.passes[1])["p50_ms"] == pytest.approx(9.0)
    assert section.busy_s == pytest.approx((7 + 27 + 7 + 13 + 7) * 1e-3)


def test_a_call_can_stand_for_several_latency_samples_or_for_none():
    section = Section()
    section.record(0.040, units=8, samples=8)  # a batch of eight requests
    section.record(0.001, samples=0)  # a timed call that answers nobody
    section.cut()
    assert (section.units, section.samples) == ([8, 0.0], [8, 0])
    assert section.figures() == pytest.approx(
        {"ops_per_s": 8 / 0.041, "p50_ms": 40.0, "p95_ms": 40.0}
    )


def test_every_pass_makes_the_calls_of_the_first():
    section = Section()
    section.record(1.0)
    section.record(1.0)
    section.cut()
    section.record(1.0)
    with pytest.raises(RuntimeError):
        section.cut()
