"""Degraded-mode scoring ladder: the pre-Turbo production models.

Section VI-E: before Turbo, "block-listing and rule-based scorecards were
still the major anti-fraud approaches used by the platform".  When the
online graph path is down or over its latency budget, :class:`FallbackStack`
serves the request with exactly those models, in order of fidelity:

``HAG (full) -> scorecard -> blocklist -> reject``

* **scorecard** — rule points over the applicant's profile; needs only the
  in-memory user table, no graph, no storage round-trips;
* **blocklist** — fraction of the user's watched deterministic values
  (device / IMEI / IMSI) that are block-listed; scores are precomputed at
  deployment time so the degraded path never touches the log store;
* **reject** — the conservative last resort when the user is unknown to
  every fallback: decline the application (probability 1.0).

Decisions are pure functions of deployment-time state, so a degraded
response is bit-for-bit reproducible — the failure-mode test suite pins
``TurboResponse.probability == scorecard.score(user, txn)`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..datagen.entities import BehaviorLog, Transaction, User
from .blocklist import Blocklist
from .scorecard import Scorecard

__all__ = ["FallbackStack"]

#: fidelity order of the degradation ladder (most to least capable).
DEGRADATION_LADDER = ("full", "scorecard", "blocklist", "reject")


@dataclass(frozen=True, slots=True)
class FallbackDecision:
    """Outcome of degraded scoring: probability, decision and the level used."""

    probability: float
    blocked: bool
    level: str  # "scorecard" | "blocklist" | "reject"


class FallbackStack:
    """Orders the pre-Turbo production models into a degradation ladder."""

    def __init__(
        self,
        users: Mapping[int, User],
        scorecard: Scorecard | None = None,
        blocklist: Blocklist | None = None,
        logs: Sequence[BehaviorLog] = (),
    ) -> None:
        self.users = dict(users)
        self.scorecard = scorecard
        self.blocklist = blocklist
        # Precompute block-list scores once: the degraded path must not
        # re-scan the raw logs (the log store may be the thing that is down).
        self._blocklist_scores: dict[int, float] = {}
        if blocklist is not None and self.users:
            uids = sorted(self.users)
            scores = blocklist.predict_proba(logs, uids)
            self._blocklist_scores = {
                uid: float(score) for uid, score in zip(uids, scores)
            }

    def decide(self, txn: Transaction) -> FallbackDecision:
        """Score ``txn`` on the highest fallback level that can serve it."""
        user = self.users.get(txn.uid)
        if self.scorecard is not None and user is not None:
            probability = self.scorecard.score(user, txn)
            return FallbackDecision(
                probability=probability,
                blocked=probability >= self.scorecard.decision_threshold,
                level="scorecard",
            )
        if self.blocklist is not None:
            probability = self._blocklist_scores.get(txn.uid, 0.0)
            return FallbackDecision(
                probability=probability,
                blocked=probability > 0.0,
                level="blocklist",
            )
        return FallbackDecision(probability=1.0, blocked=True, level="reject")
