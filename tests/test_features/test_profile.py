"""Profile feature (X_u) tests."""

from __future__ import annotations

import numpy as np

from repro.datagen import DAY, User
from repro.features import PROFILE_FEATURE_NAMES, profile_features
from repro.features.profile import N_OCCUPATIONS


class TestProfileFeatures:
    def make_user(self, **kwargs) -> User:
        defaults = dict(uid=1, registered_at=10 * DAY)
        defaults.update(kwargs)
        return User(**defaults)

    def test_length_matches_names(self):
        vector = profile_features(self.make_user(), as_of=20 * DAY)
        assert vector.shape == (len(PROFILE_FEATURE_NAMES),)

    def test_occupation_one_hot(self):
        vector = profile_features(self.make_user(occupation_code=3), as_of=20 * DAY)
        one_hot = vector[-N_OCCUPATIONS:]
        assert one_hot.sum() == 1.0
        assert one_hot[3] == 1.0

    def test_occupation_code_wraps(self):
        vector = profile_features(
            self.make_user(occupation_code=N_OCCUPATIONS + 2), as_of=20 * DAY
        )
        assert vector[-N_OCCUPATIONS:][2] == 1.0

    def test_account_age_in_days(self):
        vector = profile_features(self.make_user(), as_of=17 * DAY)
        age_index = PROFILE_FEATURE_NAMES.index("account_age_days")
        np.testing.assert_allclose(vector[age_index], 7.0)

    def test_account_age_never_negative(self):
        vector = profile_features(self.make_user(), as_of=0.0)
        age_index = PROFILE_FEATURE_NAMES.index("account_age_days")
        assert vector[age_index] == 0.0

    def test_boolean_flags_encoded(self):
        vector = profile_features(
            self.make_user(phone_verified=False, id_verified=True), as_of=20 * DAY
        )
        assert vector[PROFILE_FEATURE_NAMES.index("phone_verified")] == 0.0
        assert vector[PROFILE_FEATURE_NAMES.index("id_verified")] == 1.0
