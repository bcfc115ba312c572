"""Feature management: profile (X_u), transaction (X_tau), behavior (X_s)."""

from .pipeline import FeatureManager, StandardScaler
from .profile import PROFILE_FEATURE_NAMES, profile_features
from .statistical import (
    UserLogIndex,
    statistical_feature_names,
    statistical_features,
)
from .transaction import TRANSACTION_FEATURE_NAMES, transaction_features

__all__ = [
    "FeatureManager",
    "StandardScaler",
    "profile_features",
    "PROFILE_FEATURE_NAMES",
    "transaction_features",
    "TRANSACTION_FEATURE_NAMES",
    "statistical_features",
    "statistical_feature_names",
    "UserLogIndex",
]
