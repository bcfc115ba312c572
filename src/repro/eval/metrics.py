"""Evaluation metrics of Table III: precision, recall, F1, F2, AUC.

F2 weighs recall twice as much as precision — appropriate for fraud detection
where a missed fraudster costs the full item value while a false alarm costs
one manual review.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "precision_score",
    "recall_score",
    "fbeta_score",
    "f1_score",
    "roc_auc_score",
    "confusion",
    "ClassificationReport",
    "classification_report",
]


def _validate(labels: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels).ravel()
    values = np.asarray(values, dtype=np.float64).ravel()
    if labels.shape != values.shape:
        raise ValueError("labels and predictions must have the same length")
    if labels.size == 0:
        raise ValueError("empty inputs")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be binary {0, 1}")
    # A NaN would otherwise sort above every score and be ranked as the top
    # one, so a diverged model's AUC would read as a real number.
    if not np.isfinite(values).all():
        raise ValueError("scores must be finite")
    return labels.astype(np.int64), values


def confusion(labels: np.ndarray, predicted: np.ndarray) -> tuple[int, int, int, int]:
    """Return ``(tp, fp, fn, tn)`` for binary ``predicted`` in {0, 1}."""
    labels, predicted = _validate(labels, predicted)
    predicted = predicted > 0.5
    positive = labels == 1
    tp = int(np.sum(predicted & positive))
    fp = int(np.sum(predicted & ~positive))
    fn = int(np.sum(~predicted & positive))
    tn = int(np.sum(~predicted & ~positive))
    return tp, fp, fn, tn


def precision_score(labels: np.ndarray, predicted: np.ndarray) -> float:
    """Fraction of predicted positives that are true positives."""
    tp, fp, _fn, _tn = confusion(labels, predicted)
    return tp / (tp + fp) if tp + fp else 0.0


def recall_score(labels: np.ndarray, predicted: np.ndarray) -> float:
    """Fraction of true positives that were predicted positive."""
    tp, _fp, fn, _tn = confusion(labels, predicted)
    return tp / (tp + fn) if tp + fn else 0.0


def fbeta_score(labels: np.ndarray, predicted: np.ndarray, beta: float) -> float:
    """Weighted harmonic mean of precision and recall (beta weights recall)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    precision = precision_score(labels, predicted)
    recall = recall_score(labels, predicted)
    if precision == 0.0 and recall == 0.0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * precision * recall / (b2 * precision + recall)


def f1_score(labels: np.ndarray, predicted: np.ndarray) -> float:
    """Harmonic mean of precision and recall (F-beta with beta=1)."""
    return fbeta_score(labels, predicted, beta=1.0)


def roc_auc_score(labels: np.ndarray, scores: np.ndarray) -> float:
    """AUC via the rank (Mann-Whitney U) statistic, tie-aware."""
    labels, scores = _validate(labels, scores)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC is undefined with a single class")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # Average ranks over ties.
    ranks = np.empty(labels.size, dtype=np.float64)
    i = 0
    while i < labels.size:
        j = i
        while j + 1 < labels.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = ranks[labels == 1].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(slots=True)
class ClassificationReport:
    """One row of Table III (percentages)."""

    precision: float
    recall: float
    f1: float
    f2: float
    auc: float

    def as_percentages(self) -> dict[str, float]:
        """Metrics scaled to percent, keyed by Table III column names."""
        return {
            "Precision": 100.0 * self.precision,
            "Recall": 100.0 * self.recall,
            "F1": 100.0 * self.f1,
            "F2": 100.0 * self.f2,
            "AUC": 100.0 * self.auc,
        }


def classification_report(
    labels: np.ndarray, scores: np.ndarray, threshold: float = 0.5
) -> ClassificationReport:
    """Full Table III metric row at the given classification threshold."""
    labels_arr, scores_arr = _validate(labels, scores)
    predicted = (scores_arr >= threshold).astype(np.int64)
    return ClassificationReport(
        precision=precision_score(labels_arr, predicted),
        recall=recall_score(labels_arr, predicted),
        f1=f1_score(labels_arr, predicted),
        f2=fbeta_score(labels_arr, predicted, beta=2.0),
        auc=roc_auc_score(labels_arr, scores_arr),
    )
