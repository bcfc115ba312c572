"""Train/test splitting by UID (the paper splits 80/20 on user id)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["split_by_uid"]


@dataclass(slots=True)
class UidSplit:
    """UID-level split; provides row masks for transaction-aligned arrays."""

    train_uids: set[int]
    test_uids: set[int]

    def train_mask(self, uids: Sequence[int]) -> np.ndarray:
        """Boolean row mask selecting training uids."""
        return np.asarray([u in self.train_uids for u in uids])

    def test_mask(self, uids: Sequence[int]) -> np.ndarray:
        """Boolean row mask selecting held-out uids."""
        return np.asarray([u in self.test_uids for u in uids])


def split_by_uid(
    uids: Sequence[int],
    labels: dict[int, int] | None = None,
    test_fraction: float = 0.2,
    rng: np.random.Generator | None = None,
    stratify: bool = True,
) -> UidSplit:
    """Randomly split distinct UIDs into train/test sets.

    With ``stratify`` and ``labels`` provided, positives and negatives are
    split separately so the scarce fraud class is represented in both sides
    (important at D1's low positive rate).
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = rng or np.random.default_rng(0)
    distinct = np.asarray(sorted(set(uids)))
    if distinct.size < 2:
        raise ValueError("need at least two distinct uids to split")

    if stratify and labels is not None:
        positives = np.asarray([u for u in distinct if labels.get(u, 0) == 1])
        negatives = np.asarray([u for u in distinct if labels.get(u, 0) != 1])
        test: set[int] = set()
        for group in (positives, negatives):
            if group.size == 0:
                continue
            n_test = max(1, int(round(group.size * test_fraction)))
            chosen = rng.choice(group, size=min(n_test, group.size), replace=False)
            test.update(int(u) for u in chosen)
    else:
        n_test = max(1, int(round(distinct.size * test_fraction)))
        chosen = rng.choice(distinct, size=n_test, replace=False)
        test = {int(u) for u in chosen}

    train = {int(u) for u in distinct} - test
    return UidSplit(train_uids=train, test_uids=test)
