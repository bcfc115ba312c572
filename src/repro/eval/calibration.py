"""Decision-threshold calibration.

Section VI-E: "To strike a balance between reducing the fraud ratio and
ensuring normal applications are not being blocked, a relatively high
threshold should be dynamically preset based on experts' long-time
observation of the prediction results."  These utilities replace the
expert eyeballing with explicit operating-point selection on a validation
set: pick the threshold meeting a precision floor (block few good users)
while maximizing recall, or maximize F-beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import _validate

__all__ = ["threshold_for_precision", "threshold_for_fbeta"]


@dataclass(slots=True)
class OperatingPoint:
    """A chosen threshold and the validation metrics it achieves."""

    threshold: float
    precision: float
    recall: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"threshold={self.threshold:.3f}"
            f" (precision={self.precision:.3f}, recall={self.recall:.3f})"
        )


def _sweep(labels: np.ndarray, scores: np.ndarray):
    """Yield (threshold, precision, recall) at every distinct score cut."""
    order = np.argsort(-scores, kind="mergesort")
    sorted_labels = labels[order]
    sorted_scores = scores[order]
    tps = np.cumsum(sorted_labels)
    positives = np.arange(1, len(labels) + 1)
    n_pos = int(labels.sum())
    # Cut after each distinct score value.
    distinct = np.r_[np.flatnonzero(np.diff(sorted_scores)), len(labels) - 1]
    for index in distinct:
        tp = tps[index]
        precision = tp / positives[index]
        recall = tp / n_pos if n_pos else 0.0
        yield float(sorted_scores[index]), float(precision), float(recall)


def threshold_for_precision(
    labels: np.ndarray,
    scores: np.ndarray,
    min_precision: float = 0.9,
) -> OperatingPoint:
    """Highest-recall threshold whose validation precision >= the floor.

    Falls back to the most conservative cut (highest distinct score) when no
    threshold achieves the floor — the deployment would rather block almost
    nothing than block good customers.
    """
    if not 0.0 < min_precision <= 1.0:
        raise ValueError("min_precision must be in (0, 1]")
    labels, scores = _validate(labels, scores)
    best: OperatingPoint | None = None
    fallback: OperatingPoint | None = None
    for threshold, precision, recall in _sweep(labels, scores):
        point = OperatingPoint(threshold, precision, recall)
        if fallback is None:
            fallback = point
        if precision >= min_precision and (best is None or recall > best.recall):
            best = point
    chosen = best if best is not None else fallback
    assert chosen is not None  # _validate guarantees non-empty input
    return chosen


def threshold_for_fbeta(
    labels: np.ndarray,
    scores: np.ndarray,
    beta: float = 1.0,
) -> OperatingPoint:
    """Threshold maximizing F-beta on the validation scores."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    labels, scores = _validate(labels, scores)
    b2 = beta * beta
    best: OperatingPoint | None = None
    best_f = -1.0
    for threshold, precision, recall in _sweep(labels, scores):
        if precision + recall == 0:
            continue
        f = (1 + b2) * precision * recall / (b2 * precision + recall)
        if f > best_f:
            best_f = f
            best = OperatingPoint(threshold, precision, recall)
    assert best is not None
    return best
