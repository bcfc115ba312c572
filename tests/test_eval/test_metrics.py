"""Metric tests: exact values + property-based invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import (
    classification_report,
    confusion,
    f1_score,
    fbeta_score,
    precision_score,
    recall_score,
    roc_auc_score,
)

LABELS = np.array([1, 0, 1, 1, 0, 0])
PRED = np.array([1, 0, 0, 1, 1, 0])


class TestConfusionAndPR:
    def test_confusion_counts(self):
        assert confusion(LABELS, PRED) == (2, 1, 1, 2)

    def test_precision(self):
        assert precision_score(LABELS, PRED) == pytest.approx(2 / 3)

    def test_recall(self):
        assert recall_score(LABELS, PRED) == pytest.approx(2 / 3)

    def test_no_predictions_zero_precision(self):
        assert precision_score(LABELS, np.zeros(6)) == 0.0

    def test_f1_harmonic_mean(self):
        assert f1_score(LABELS, PRED) == pytest.approx(2 / 3)

    def test_f2_weights_recall(self):
        labels = np.array([1, 1, 1, 1, 0])
        predicted = np.array([1, 0, 0, 0, 0])  # precision 1, recall 0.25
        f1 = fbeta_score(labels, predicted, 1.0)
        f2 = fbeta_score(labels, predicted, 2.0)
        f05 = fbeta_score(labels, predicted, 0.5)
        assert f2 < f1 < f05

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            fbeta_score(LABELS, PRED, 0.0)

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(ValueError):
            precision_score(np.array([0, 2]), np.array([0, 1]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            precision_score(np.array([0, 1]), np.array([1]))


class TestAUC:
    def test_perfect_separation(self):
        assert roc_auc_score(np.array([0, 0, 1, 1]), np.array([0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_inverted_is_zero(self):
        assert roc_auc_score(np.array([1, 1, 0, 0]), np.array([0.1, 0.2, 0.8, 0.9])) == 0.0

    def test_all_ties_is_half(self):
        assert roc_auc_score(np.array([0, 1, 0, 1]), np.ones(4)) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc_score(np.ones(4), np.arange(4.0))

    def test_known_value_with_ties(self):
        labels = np.array([1, 0, 1, 0])
        scores = np.array([0.9, 0.9, 0.4, 0.1])
        # pairs: (1a,0a)=0.5, (1a,0b)=1, (1b,0a)=0, (1b,0b)=1 -> 2.5/4
        assert roc_auc_score(labels, scores) == pytest.approx(0.625)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize(
        "metric", [confusion, roc_auc_score, classification_report], ids=lambda f: f.__name__
    )
    def test_nonfinite_scores_rejected(self, metric, bad):
        """A NaN score used to rank above every other: this AUC read 0.75."""
        with pytest.raises(ValueError, match="finite"):
            metric(np.array([0, 1, 0, 1]), np.array([0.1, bad, 0.3, 0.2]))

class TestReport:
    def test_report_fields(self):
        report = classification_report(LABELS, PRED.astype(float))
        assert report.precision == pytest.approx(2 / 3)
        percentages = report.as_percentages()
        assert set(percentages) == {"Precision", "Recall", "F1", "F2", "AUC"}
        assert percentages["Precision"] == pytest.approx(100 * 2 / 3)

    def test_threshold_applies(self):
        scores = np.array([0.9, 0.1, 0.6, 0.7, 0.2, 0.3])
        strict = classification_report(LABELS, scores, threshold=0.95)
        assert strict.recall == 0.0


@settings(max_examples=40, deadline=None)
@given(
    scores=st.lists(st.floats(0.01, 0.99), min_size=4, max_size=30),
    labels_seed=st.integers(0, 10**6),
)
def test_property_auc_invariant_under_monotone_transform(scores, labels_seed):
    from hypothesis import assume

    scores = np.asarray(scores)
    transformed = 1 / (1 + np.exp(-5 * scores))
    # The invariance requires the transform to preserve the tie structure;
    # floating-point rounding can merge nearly-equal scores, so skip those.
    assume(len(np.unique(transformed)) == len(np.unique(scores)))
    rng = np.random.default_rng(labels_seed)
    labels = rng.integers(0, 2, size=len(scores))
    if labels.sum() in (0, len(labels)):
        labels[0] = 1 - labels[0]
    base = roc_auc_score(labels, scores)
    squashed = roc_auc_score(labels, transformed)
    assert base == pytest.approx(squashed, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 40),
    seed=st.integers(0, 10**6),
    beta=st.floats(0.25, 4.0),
)
def test_property_fbeta_between_min_and_max_of_pr(n, seed, beta):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    predicted = rng.integers(0, 2, size=n)
    if labels.sum() in (0, n):
        labels[0] = 1 - labels[0]
    p = precision_score(labels, predicted)
    r = recall_score(labels, predicted)
    f = fbeta_score(labels, predicted, beta)
    assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12
