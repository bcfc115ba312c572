"""Evaluation: metrics, splits, experiment running, empirical analyses."""

from .bootstrap import paired_bootstrap_ci
from .metrics import (
    ClassificationReport,
    classification_report,
    confusion,
    f1_score,
    fbeta_score,
    precision_score,
    recall_score,
    roc_auc_score,
)
from .runner import (
    ExperimentData,
    MethodResult,
    prepare_experiment,
    repeat_method,
    run_method,
)
from .splits import split_by_uid

__all__ = [
    "precision_score",
    "recall_score",
    "f1_score",
    "fbeta_score",
    "roc_auc_score",
    "confusion",
    "ClassificationReport",
    "classification_report",
    "paired_bootstrap_ci",
    "split_by_uid",
    "ExperimentData",
    "MethodResult",
    "prepare_experiment",
    "run_method",
    "repeat_method",
]
