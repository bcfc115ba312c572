"""Seeded open-loop workload generation on the simulated clock.

Every benchmark before PR 7 was *closed-loop*: issue a request, wait for
the answer, issue the next.  Closed-loop measurement can never observe
queueing delay — the dominant latency term at saturation — because the
client self-throttles to the server's pace.  This module generates
*open-loop* traffic: arrival times are drawn from a nonhomogeneous
Poisson process that does not care how fast the server answers, which is
what lets ``benchmarks/bench_loadtest.py`` map the latency-vs-offered-QPS
frontier.

The rate function composes three production-shaped terms:

* a **base rate** in requests per simulated second;
* a **diurnal cycle** — a sinusoid over the day, because leasing
  applications follow human activity;
* **fraud bursts** — multiplicative spikes aligned with the attack waves
  of a :mod:`repro.datagen.drift` scenario (``fraud_burst_schedule``),
  during which sampled traffic is biased toward fraudulent users.

Arrivals are drawn by Poisson thinning (Lewis & Shedler): candidate gaps
are exponential at the pattern's peak rate and each candidate is kept
with probability ``rate_at(t) / peak``, which samples the exact
nonhomogeneous process.  Everything is seeded — the same generator
produces bit-identical arrival traces (``tests/test_system/test_loadgen.py``
pins this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..datagen.drift import FraudBurst
from ..datagen.entities import Transaction

__all__ = [
    "BurstWindow",
    "PriorityClass",
    "TrafficPattern",
    "Arrival",
    "OpenLoopLoadGenerator",
    "bursts_from_drift",
]


@dataclass(frozen=True, slots=True)
class BurstWindow:
    """One traffic spike: a half-open window with a rate boost.

    While active, the offered rate is multiplied by ``boost`` and each
    arrival is drawn from the fraud user pool with probability
    ``fraud_bias`` (when the generator knows any fraud users).
    """

    start: float
    end: float
    boost: float = 2.0
    fraud_bias: float = 0.0
    label: str = "burst"

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("burst window must have end > start")
        if self.boost < 1.0:
            raise ValueError("burst boost must be >= 1")
        if not 0.0 <= self.fraud_bias <= 1.0:
            raise ValueError("fraud_bias must be in [0, 1]")

    def active(self, t: float) -> bool:
        """Is simulated time ``t`` inside this window (half-open)?"""
        return self.start <= t < self.end


@dataclass(frozen=True, slots=True)
class PriorityClass:
    """One request class: queue rank, deadline slack and traffic share.

    Lower ``rank`` is served first; ``deadline`` is the relative slack in
    simulated seconds from arrival to required completion; ``weight`` is
    the class's share of generated traffic (normalized across classes).
    """

    name: str
    rank: int
    deadline: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ValueError("class deadline must be positive")
        if self.weight <= 0:
            raise ValueError("class weight must be positive")


#: production-shaped default mix: half the traffic is an applicant waiting
#: at checkout, a batch tail tolerates a minute.
DEFAULT_PRIORITY_CLASSES = (
    PriorityClass("interactive", rank=0, deadline=6.0, weight=0.5),
    PriorityClass("standard", rank=1, deadline=15.0, weight=0.35),
    PriorityClass("batch", rank=2, deadline=60.0, weight=0.15),
)


@dataclass(frozen=True, slots=True)
class TrafficPattern:
    """The offered-rate function: base QPS x diurnal cycle x fraud bursts."""

    base_qps: float
    diurnal_amplitude: float = 0.0
    diurnal_period: float = 86400.0
    diurnal_phase: float = 0.0
    bursts: tuple[BurstWindow, ...] = ()

    def __post_init__(self) -> None:
        if self.base_qps <= 0:
            raise ValueError("base_qps must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period <= 0:
            raise ValueError("diurnal_period must be positive")
        object.__setattr__(self, "bursts", tuple(self.bursts))

    def burst_at(self, t: float) -> BurstWindow | None:
        """The first burst window active at ``t`` (None outside all bursts)."""
        for burst in self.bursts:
            if burst.active(t):
                return burst
        return None

    def rate_at(self, t: float) -> float:
        """Offered rate in requests per simulated second at time ``t``."""
        rate = self.base_qps
        if self.diurnal_amplitude:
            rate *= 1.0 + self.diurnal_amplitude * math.sin(
                2.0 * math.pi * (t - self.diurnal_phase) / self.diurnal_period
            )
        for burst in self.bursts:
            if burst.active(t):
                rate *= burst.boost
        return rate

    def peak_rate(self) -> float:
        """An upper bound on :meth:`rate_at` (the thinning envelope).

        Overlapping bursts multiply, so the product of every boost times
        the diurnal crest is always a valid (if conservative) bound.
        """
        peak = self.base_qps * (1.0 + self.diurnal_amplitude)
        for burst in self.bursts:
            peak *= burst.boost
        return peak


@dataclass(frozen=True, slots=True)
class Arrival:
    """One generated request arrival on the simulated clock."""

    at: float
    txn: Transaction
    uid: int
    priority: str
    priority_rank: int
    #: absolute completion deadline on the simulated clock.
    deadline: float
    #: label of the burst window this arrival landed in ("" outside bursts).
    burst: str = ""


def bursts_from_drift(
    schedule: Iterable[FraudBurst],
    fraud_bias: float = 0.6,
) -> tuple[BurstWindow, ...]:
    """Convert a ``datagen.drift.fraud_burst_schedule`` into burst windows.

    The drift period's intensity becomes the rate boost and the window is
    labeled ``drift-<period>``, so a load-test trace can be joined back to
    the exact drift period that caused each spike.  ``fraud_bias`` scales
    with drift level too: more evolved campaigns concentrate more of the
    burst traffic on fraud accounts.
    """
    if not 0.0 <= fraud_bias <= 1.0:
        raise ValueError("fraud_bias must be in [0, 1]")
    return tuple(
        BurstWindow(
            start=burst.start,
            end=burst.end,
            boost=burst.intensity,
            fraud_bias=fraud_bias * burst.drift_level,
            label=f"drift-{burst.period_index}",
        )
        for burst in schedule
    )


@dataclass(slots=True)
class OpenLoopLoadGenerator:
    """Draws seeded Poisson arrival traces over a transaction pool.

    ``transactions`` is the population requests are drawn from (uniformly,
    except inside burst windows where the draw is biased toward
    ``fraud_uids``); each arrival is assigned a :class:`PriorityClass` by
    its traffic weight and stamped with the class's absolute deadline.

    :meth:`generate` re-seeds its own generator on every call, so calling
    it twice — or constructing two generators with the same seed — yields
    bit-identical traces.
    """

    pattern: TrafficPattern
    transactions: Sequence[Transaction]
    fraud_uids: frozenset[int] = frozenset()
    classes: tuple[PriorityClass, ...] = DEFAULT_PRIORITY_CLASSES
    seed: int = 0
    _fraud_pool: tuple[Transaction, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.transactions:
            raise ValueError("need a non-empty transaction pool")
        if not self.classes:
            raise ValueError("need at least one priority class")
        self.transactions = tuple(self.transactions)
        self.fraud_uids = frozenset(int(u) for u in self.fraud_uids)
        self.classes = tuple(self.classes)
        self._fraud_pool = tuple(
            txn for txn in self.transactions if int(txn.uid) in self.fraud_uids
        )

    def generate(self, start: float, horizon: float) -> list[Arrival]:
        """All arrivals in ``[start, start + horizon)``, nondecreasing in time."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        rng = np.random.default_rng(self.seed)
        pattern = self.pattern
        peak = pattern.peak_rate()
        weights = np.asarray([c.weight for c in self.classes], dtype=float)
        weights /= weights.sum()
        n_pool = len(self.transactions)
        n_fraud = len(self._fraud_pool)
        arrivals: list[Arrival] = []
        end = start + horizon
        t = start
        while True:
            # Thinning: candidates at the peak rate, kept w.p. rate/peak.
            t += float(rng.exponential(1.0 / peak))
            if t >= end:
                break
            if float(rng.random()) * peak > pattern.rate_at(t):
                continue
            burst = pattern.burst_at(t)
            bias = burst.fraud_bias if burst is not None else 0.0
            if n_fraud and bias and float(rng.random()) < bias:
                txn = self._fraud_pool[int(rng.integers(n_fraud))]
            else:
                txn = self.transactions[int(rng.integers(n_pool))]
            cls = self.classes[int(rng.choice(len(self.classes), p=weights))]
            arrivals.append(
                Arrival(
                    at=t,
                    txn=txn,
                    uid=int(txn.uid),
                    priority=cls.name,
                    priority_rank=cls.rank,
                    deadline=t + cls.deadline,
                    burst=burst.label if burst is not None else "",
                )
            )
        return arrivals
