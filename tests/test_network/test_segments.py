"""Tests for the segment/composite-key primitives behind BN ingestion."""

import numpy as np
import pytest

from repro.network.segments import (
    INT64_SAFE_SPAN,
    segment_arange,
    segment_fold_max,
    segment_fold_sum,
    sorted_unique_pairs,
    sorted_unique_triples,
)


class TestSegmentArange:
    def test_ramps(self):
        out = segment_arange(np.array([2, 3, 1]))
        assert out.tolist() == [0, 1, 0, 1, 2, 0]

    def test_empty_and_zero_counts(self):
        assert segment_arange(np.array([], dtype=np.int64)).tolist() == []
        assert segment_arange(np.array([0, 2, 0])).tolist() == [0, 1]


class TestSegmentFoldSum:
    def test_matches_sequential_fold_bitwise(self):
        """The fold must reproduce left-to-right ``+=`` exactly, not pairwise.

        Pairwise summation (``np.add.reduceat``) rounds differently; the
        whole bit-exact parity contract of the ingest path rests on this
        primitive folding strictly left-to-right.
        """
        rng = np.random.default_rng(0)
        values = rng.uniform(0.0, 1.0, size=200)
        lengths = np.array([1, 7, 2, 53, 90, 47])
        starts = np.r_[0, np.cumsum(lengths)[:-1]]
        out = segment_fold_sum(values, starts, lengths)
        for k, (s, ln) in enumerate(zip(starts, lengths)):
            acc = 0.0
            for x in values[s : s + ln]:
                acc += x
            assert out[k] == acc  # bit-for-bit

    def test_empty(self):
        out = segment_fold_sum(
            np.array([]), np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        )
        assert len(out) == 0


class TestSegmentFoldMax:
    def test_matches_running_max(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(-5.0, 5.0, size=60)
        lengths = np.array([10, 1, 49])
        starts = np.r_[0, np.cumsum(lengths)[:-1]]
        out = segment_fold_max(values, starts, lengths)
        for k, (s, ln) in enumerate(zip(starts, lengths)):
            assert out[k] == max(values[s : s + ln])


class TestSortedUnique:
    def test_pairs_sorted_and_deduped(self):
        a = np.array([3, 1, 3, 1, 2])
        b = np.array([0, 5, 0, 5, 2])
        ga, gb = sorted_unique_pairs(a, b)
        assert list(zip(ga, gb)) == [(1, 5), (2, 2), (3, 0)]

    def test_triples_sorted_and_deduped(self):
        a = np.array([1, 0, 1, 0])
        b = np.array([2, 9, 2, 9])
        c = np.array([7, 3, 7, 4])
        ga, gb, gc = sorted_unique_triples(a, b, c)
        assert list(zip(ga, gb, gc)) == [(0, 9, 3), (0, 9, 4), (1, 2, 7)]

    @pytest.mark.parametrize("span", [2**21, 2**40])
    def test_adversarial_spans_fall_back_without_wrapping(self, span):
        """Composite keys near/over the int64 bound must not silently wrap.

        With three components spanning ``2**21`` each the packed key fits
        (``2**63 > 2**62`` guard rejects it though); at ``2**40`` the
        product overflows outright.  Both must give the same answer as the
        small-span packed path does on equivalent data.
        """
        a = np.array([0, span - 1, 0, span - 1])
        b = np.array([span - 1, 0, span - 1, 0])
        c = np.array([1, span - 1, 1, 2])
        ga, gb, gc = sorted_unique_triples(a, b, c)
        expected = sorted(set(zip(a.tolist(), b.tolist(), c.tolist())))
        assert list(zip(ga.tolist(), gb.tolist(), gc.tolist())) == expected
        # the spans genuinely exceed the packed-key guard
        assert span * span * span >= INT64_SAFE_SPAN

    def test_pairs_overflow_regression(self):
        """Regression: spans whose product wraps int64 used to collide keys."""
        big = 2**33
        a = np.array([0, 1, 0, big - 1])
        b = np.array([big - 1, 0, big - 1, 1])
        ga, gb = sorted_unique_pairs(a, b)
        expected = sorted(set(zip(a.tolist(), b.tolist())))
        assert list(zip(ga.tolist(), gb.tolist())) == expected

    @pytest.mark.parametrize("offset", [0, 2**61], ids=["packed", "lexsort"])
    def test_pairs_return_index_is_the_first_occurrence(self, offset, monkeypatch):
        """Both sort paths: negative columns welcome, duplicates keep their
        earliest position, and the wide case really takes the fallback."""
        import repro.network.segments as segments

        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(
            segments.np, "lexsort", lambda keys: calls.append(1) or lexsort(keys)
        )
        rng = np.random.default_rng(5)
        a = rng.integers(-3, 4, size=200)
        b = rng.integers(-4, 5, size=200) * (offset // 4 + 1)
        ga, gb, first = sorted_unique_pairs(a, b, return_index=True)
        rows = list(zip(a.tolist(), b.tolist()))
        assert list(zip(ga.tolist(), gb.tolist())) == sorted(set(rows))
        assert first.tolist() == [rows.index(row) for row in sorted(set(rows))]
        assert bool(calls) == bool(offset)
        plain = sorted_unique_pairs(a, b)
        assert len(plain) == 2 and np.array_equal(plain[0], ga) and np.array_equal(plain[1], gb)

    def test_boundaries_marks_the_first_row_of_every_run(self):
        from repro.network.segments import boundaries

        a = np.array([1, 1, 1, 2, 2, 5])
        b = np.array([0, 0, 3, 3, 3, 3])
        assert boundaries(a).tolist() == [True, False, False, True, False, True]
        assert boundaries(a, b).tolist() == [True, False, True, True, False, True]
