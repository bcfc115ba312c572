"""Online A/B test replay (Section VI-E).

Protocol of the paper's Jul-2019 experiment: applications first pass the
original rule-based risk management system (the scorecard); Turbo then
scores the survivors at threshold 0.85.  The *baseline* group ships with the
scorecard decision alone; the *test* group additionally drops applications
Turbo flags.  After the lease plays out, the fraud ratio among accepted
applications is compared; Turbo's online precision/recall are measured on
the test group's scorecard survivors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..baselines.scorecard import Scorecard
from ..datagen.entities import Dataset, Transaction
from .turbo import Turbo

__all__ = ["run_ab_test"]


@dataclass(slots=True)
class ABTestResult:
    """Aggregates of the A/B replay."""

    n_baseline: int
    n_test: int
    baseline_accepted: int
    test_accepted: int
    baseline_fraud_ratio: float
    test_fraud_ratio: float
    online_precision: float
    online_recall: float

    @property
    def fraud_ratio_reduction(self) -> float:
        """Relative reduction of the accepted-set fraud ratio (paper: 23.19 %)."""
        if self.baseline_fraud_ratio <= 0:
            return 0.0
        return (
            (self.baseline_fraud_ratio - self.test_fraud_ratio)
            / self.baseline_fraud_ratio
        )


def run_ab_test(
    turbo: Turbo,
    scorecard: Scorecard,
    dataset: Dataset,
    transactions: Sequence[Transaction],
    rng: np.random.Generator | None = None,
) -> ABTestResult:
    """Replay ``transactions`` through the two pipelines.

    Each application is randomly assigned to the baseline or test group; the
    scorecard gates both, and Turbo additionally gates the test group.
    """
    if not transactions:
        raise ValueError("no transactions to replay")
    rng = rng or np.random.default_rng(0)
    users = dataset.user_by_id()

    baseline_accepted: list[int] = []  # fraud labels of accepted applications
    test_accepted: list[int] = []
    n_baseline = n_test = 0
    tp = fp = fn = 0

    for txn in transactions:
        user = users[txn.uid]
        rejected_by_rules = scorecard.predict(user, txn)
        label = int(txn.is_fraud)
        if rng.random() < 0.5:
            n_baseline += 1
            if not rejected_by_rules:
                baseline_accepted.append(label)
        else:
            n_test += 1
            if rejected_by_rules:
                continue
            response = turbo.handle_request(txn, now=txn.audit_at)
            if response.blocked:
                if label:
                    tp += 1
                else:
                    fp += 1
            else:
                if label:
                    fn += 1
                test_accepted.append(label)

    baseline_ratio = float(np.mean(baseline_accepted)) if baseline_accepted else 0.0
    test_ratio = float(np.mean(test_accepted)) if test_accepted else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return ABTestResult(
        n_baseline=n_baseline,
        n_test=n_test,
        baseline_accepted=len(baseline_accepted),
        test_accepted=len(test_accepted),
        baseline_fraud_ratio=baseline_ratio,
        test_fraud_ratio=test_ratio,
        online_precision=precision,
        online_recall=recall,
    )
