"""Gradient boosted trees (stand-in for LightGBM)."""

from .boosting import GradientBoostingClassifier
from .tree import RegressionTree

__all__ = ["GradientBoostingClassifier", "RegressionTree"]
