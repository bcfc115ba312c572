"""User profile features ``X_u`` (Section II-B).

Profile information plus credit history: the inputs the paper's handcrafted
feature baselines (LR/SVM/GBDT/DNN) rely on most.
"""

from __future__ import annotations

import numpy as np

from ..datagen.entities import DAY, User

__all__ = ["PROFILE_FEATURE_NAMES", "profile_features"]

N_OCCUPATIONS = 8

PROFILE_FEATURE_NAMES: tuple[str, ...] = (
    "age",
    "credit_score",
    "income_level",
    "phone_verified",
    "id_verified",
    "third_party_score",
    "historical_leases",
    "account_age_days",
) + tuple(f"occupation_{i}" for i in range(N_OCCUPATIONS))


def profile_features(user: User, as_of: float) -> np.ndarray:
    """Vectorize ``X_u`` as observed at time ``as_of``."""
    occupation = np.zeros(N_OCCUPATIONS)
    occupation[user.occupation_code % N_OCCUPATIONS] = 1.0
    base = np.array(
        [
            user.age,
            user.credit_score,
            user.income_level,
            float(user.phone_verified),
            float(user.id_verified),
            user.third_party_score,
            float(user.historical_leases),
            max(0.0, (as_of - user.registered_at) / DAY),
        ]
    )
    return np.concatenate([base, occupation])
