"""Domain entities of the deposit-free leasing platform.

These mirror the formalization of Section II-B: users ``u`` with profile
features ``X_u``, transactions ``tau`` with features ``X_tau``, and behavior
logs ``b_u^t = [u, r, s, t]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .behavior_types import BehaviorType

__all__ = ["User", "Transaction", "BehaviorLog", "HOUR", "DAY"]

SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0


@dataclass(frozen=True, slots=True)
class BehaviorLog:
    """One behavior log record ``[uid, r, s, timestamp]``."""

    uid: int
    btype: BehaviorType
    value: str
    timestamp: float


@dataclass(slots=True)
class User:
    """A registered platform user with profile information ``X_u``.

    ``is_fraud`` is the ground-truth label (Section II-B: pays rent for at
    most the first 1–2 lease periods, then stops and keeps the goods).
    ``ring_id`` groups fraudsters organized by the same grey-industry crew;
    lone-wolf fraudsters have ``ring_id is None``.
    """

    uid: int
    registered_at: float
    is_fraud: bool = False
    ring_id: int | None = None
    age: float = 30.0
    credit_score: float = 650.0
    income_level: float = 3.0
    occupation_code: int = 0
    phone_verified: bool = True
    id_verified: bool = True
    third_party_score: float = 0.5
    historical_leases: int = 0
    packaged_identity: bool = False


@dataclass(slots=True)
class Transaction:
    """A leasing application ``tau`` that passed the audit process.

    ``paid_periods`` out of ``lease_term`` records the rent payment history
    observed *after* the lease, which defines the label but is obviously not
    available to the detector at audit time.
    """

    txn_id: int
    uid: int
    created_at: float
    item_value: float = 3000.0
    lease_term: int = 12
    monthly_rent: float = 250.0
    is_fraud: bool = False
    paid_periods: int = 12
    rejected_by_rules: bool = False

    @property
    def audit_at(self) -> float:
        """Audit happens within a business day of the application."""
        return self.created_at + DAY


@dataclass(slots=True)
class Dataset:
    """A generated benchmark dataset (synthetic stand-in for Jimi data)."""

    name: str
    users: list[User] = field(default_factory=list)
    transactions: list[Transaction] = field(default_factory=list)
    logs: list[BehaviorLog] = field(default_factory=list)
    start_time: float = 0.0
    end_time: float = 0.0

    @property
    def labels(self) -> dict[int, int]:
        """uid -> {0, 1} fraud label over users that have transactions."""
        with_txn = {t.uid for t in self.transactions}
        return {u.uid: int(u.is_fraud) for u in self.users if u.uid in with_txn}

    def user_by_id(self) -> dict[int, User]:
        """Index users by uid."""
        return {u.uid: u for u in self.users}

    def transactions_by_user(self) -> dict[int, list[Transaction]]:
        """Group transactions by uid."""
        result: dict[int, list[Transaction]] = {}
        for txn in self.transactions:
            result.setdefault(txn.uid, []).append(txn)
        return result

    def logs_by_user(self) -> dict[int, list[BehaviorLog]]:
        """Group behavior logs by uid."""
        result: dict[int, list[BehaviorLog]] = {}
        for log in self.logs:
            result.setdefault(log.uid, []).append(log)
        return result
