"""Feature management module: assemble node features ``X_{u+tau}`` + ``X_s``.

The paper concatenates a user's profile features ``X_u`` with the features of
the audited transaction ``X_tau`` (Table II's node feature) and the behavior
statistical features ``X_s`` (Section V).  This module owns that assembly and
the standardization applied before models consume the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..datagen.entities import Dataset, Transaction, User
from .profile import PROFILE_FEATURE_NAMES, profile_features
from .statistical import (
    UserLogIndex,
    statistical_feature_names,
    statistical_features,
    statistical_features_batch,
)
from .transaction import TRANSACTION_FEATURE_NAMES, transaction_features

__all__ = ["FeatureManager", "StandardScaler"]


class StandardScaler:
    """Column-wise standardization fit on training rows only."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.std_: np.ndarray | None = None

    def fit(self, matrix: np.ndarray) -> "StandardScaler":
        """Estimate per-column mean and standard deviation."""
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ValueError("fit expects a non-empty 2-D matrix")
        self.mean_ = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        self.std_ = np.where(std > 1e-12, std, 1.0)
        return self

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        """Standardize columns using the fitted statistics."""
        if self.mean_ is None or self.std_ is None:
            raise RuntimeError("scaler is not fitted")
        return (matrix - self.mean_) / self.std_

    def fit_transform(self, matrix: np.ndarray) -> np.ndarray:
        """Fit on ``matrix`` and return its standardized copy."""
        return self.fit(matrix).transform(matrix)


@dataclass(slots=True)
class LabeledMatrix:
    """A feature matrix aligned with transactions, uids and labels."""

    features: np.ndarray
    labels: np.ndarray
    uids: np.ndarray
    txn_ids: np.ndarray
    feature_names: tuple[str, ...]


class FeatureManager:
    """Builds feature vectors for applications, as observed at audit time.

    Mirrors the online feature management module: given a detection request
    for transaction ``tau`` of user ``u`` at time ``t``, it assembles
    ``[X_u ; X_tau ; X_s(u, t)]``.  The observation time defaults to
    ``txn.audit_at`` (24 hours after the order, per the paper's offline
    evaluation protocol).
    """

    def __init__(self, dataset: Dataset, include_stats: bool = True) -> None:
        self.dataset = dataset
        self.include_stats = include_stats
        self.log_index = UserLogIndex(dataset.logs)
        self._users = dataset.user_by_id()
        names = PROFILE_FEATURE_NAMES + TRANSACTION_FEATURE_NAMES
        if include_stats:
            names = names + statistical_feature_names()
        self.feature_names: tuple[str, ...] = names

    @property
    def dim(self) -> int:
        return len(self.feature_names)

    def knows(self, uid: int) -> bool:
        """Can a feature row be built for ``uid`` (is it a dataset user)?"""
        return uid in self._users

    def vector(self, txn: Transaction, as_of: float | None = None) -> np.ndarray:
        """Raw (unscaled) feature vector for one application.

        Always contains ``[X_u ; X_tau]`` (the node feature ``X_{u+tau}`` of
        Table II); the behavior statistics ``X_s`` are appended when the
        manager was built with ``include_stats=True`` (the deployed system's
        configuration, Section V).
        """
        user = self._users.get(txn.uid)
        if user is None:
            raise KeyError(f"unknown user {txn.uid}")
        when = txn.audit_at if as_of is None else as_of
        parts = [profile_features(user, when), transaction_features(txn, user)]
        if self.include_stats:
            parts.append(statistical_features(self.log_index, txn.uid, when))
        return np.concatenate(parts)

    def vector_batch(
        self,
        transactions: Sequence[Transaction],
        as_ofs: Sequence[float | None],
    ) -> list[np.ndarray]:
        """Raw feature vectors for many applications, with columnar ``X_s``.

        Row ``k`` is bit-for-bit ``self.vector(transactions[k], as_ofs[k])``;
        the profile and transaction blocks are the same per-row calls, while
        the behavior-statistics block for all rows comes from one
        :func:`~repro.features.statistical.statistical_features_batch` pass
        over the packed log index.
        """
        if len(transactions) != len(as_ofs):
            raise ValueError("one as_of per transaction is required")
        whens = [
            txn.audit_at if as_of is None else as_of
            for txn, as_of in zip(transactions, as_ofs)
        ]
        stats: np.ndarray | None = None
        if self.include_stats and transactions:
            stats = statistical_features_batch(
                self.log_index,
                [(txn.uid, when) for txn, when in zip(transactions, whens)],
            )
        rows: list[np.ndarray] = []
        for k, (txn, when) in enumerate(zip(transactions, whens)):
            user = self._users.get(txn.uid)
            if user is None:
                raise KeyError(f"unknown user {txn.uid}")
            parts = [profile_features(user, when), transaction_features(txn, user)]
            if stats is not None:
                parts.append(stats[k])
            rows.append(np.concatenate(parts))
        return rows

    def matrix(self, transactions: Sequence[Transaction]) -> LabeledMatrix:
        """Raw feature matrix for a list of applications."""
        if not transactions:
            raise ValueError("no transactions supplied")
        rows = np.stack([self.vector(txn) for txn in transactions])
        labels = np.asarray([int(txn.is_fraud) for txn in transactions])
        uids = np.asarray([txn.uid for txn in transactions])
        txn_ids = np.asarray([txn.txn_id for txn in transactions])
        return LabeledMatrix(rows, labels, uids, txn_ids, self.feature_names)

    def latest_transactions(self) -> list[Transaction]:
        """One application per user: the latest (the unit labeled in D1)."""
        latest: dict[int, Transaction] = {}
        for txn in self.dataset.transactions:
            current = latest.get(txn.uid)
            if current is None or txn.created_at > current.created_at:
                latest[txn.uid] = txn
        return [latest[uid] for uid in sorted(latest)]

    def node_matrix(self, uids: Sequence[int]) -> np.ndarray:
        """Raw node-feature matrix for GNN inputs, one row per uid.

        Each user is represented by their latest application, matching the
        paper's node feature ``X_{u+tau}``.
        """
        latest = {txn.uid: txn for txn in self.latest_transactions()}
        rows = []
        for uid in uids:
            txn = latest.get(uid)
            if txn is None:
                raise KeyError(f"user {uid} has no transactions")
            rows.append(self.vector(txn))
        return np.stack(rows)
