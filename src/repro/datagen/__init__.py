"""Synthetic data generation for the deposit-free leasing scenario.

Substitute for the proprietary Jimi Store dataset; see DESIGN.md §2 for the
substitution rationale.
"""

from .behavior_types import (
    DETERMINISTIC_TYPES,
    EDGE_TYPES,
    PROBABILISTIC_TYPES,
    BehaviorType,
)
from .config import GeneratorConfig
from .entities import DAY, HOUR, BehaviorLog, Dataset, Transaction, User
from .datasets import dataset_statistics, make_d1, make_d2
from .drift import (
    FraudBurst,
    fraud_burst_schedule,
    generate_drift_scenario,
)
from .generator import LeasingPlatformSimulator
from .scale import ScaleConfig, edge_stream

__all__ = [
    "BehaviorType",
    "EDGE_TYPES",
    "DETERMINISTIC_TYPES",
    "PROBABILISTIC_TYPES",
    "GeneratorConfig",
    "LeasingPlatformSimulator",
    "User",
    "Transaction",
    "BehaviorLog",
    "Dataset",
    "dataset_statistics",
    "make_d1",
    "make_d2",
    "ScaleConfig",
    "edge_stream",
    "FraudBurst",
    "fraud_burst_schedule",
    "generate_drift_scenario",
    "HOUR",
    "DAY",
]
