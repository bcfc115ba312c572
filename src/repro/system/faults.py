"""Deterministic fault injection and resilience primitives (Section V ops).

The paper sells Turbo as a production system with disaster backup and
latency SLOs; this module supplies the chaos-engineering substrate that
lets the repository *test* those claims:

* :class:`FaultInjector` — a seeded scheduler of component faults.  Every
  storage/cache/server call funnels through :meth:`FaultInjector.before_call`,
  which either raises an :class:`InjectedFault` (crash window, transient
  error) or returns extra latency to charge (brownout spike).  Given the
  same seed and the same call sequence, the injector produces an identical
  :attr:`FaultInjector.trace` — any outage scenario is reproducible.
* :class:`RetryPolicy` — bounded retries with exponential backoff and
  multiplicative jitter.  Backoff time is *charged* (simulated), never
  slept, so it lands in the request's latency breakdown like every other
  cost in :mod:`repro.system.latency`.
* :class:`CircuitBreaker` — trips after consecutive graph-path failures and
  serves fallbacks without touching the broken dependency; while open it
  lets every ``probe_interval``-th request through as a half-open probe, so
  the breaker re-closes by itself once the dependency heals.  The breaker
  counts *requests*, not wall time, which keeps it deterministic under the
  simulated clock.

Fault timelines live on a :class:`~repro.system.clock.SimulatedClock` (by
default the one the Turbo deployment advances), so crash windows are
expressed in the same simulated seconds as every latency charge.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..obs.tracing import current_span
from .clock import SimulatedClock
from .storage import StorageError

__all__ = [
    "InjectedFault",
    "BudgetExceeded",
    "CrashWindow",
    "FaultInjector",
    "RetryPolicy",
    "CircuitBreaker",
    "random_fault_plan",
]


class InjectedFault(StorageError):
    """A fault manufactured by the :class:`FaultInjector`.

    Subclasses :class:`~repro.system.storage.StorageError` so every caller
    that already survives a real storage outage survives an injected one
    through the same handler.
    """


class BudgetExceeded(RuntimeError):
    """The graph path blew its per-request latency budget; degrade instead."""


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One materialized fault: what was injected, where and when."""

    component: str
    kind: str  # "crash" | "transient" | "latency"
    at: float  # simulated time of the call
    latency: float = 0.0  # extra seconds injected (kind == "latency")


@dataclass(frozen=True, slots=True)
class CrashWindow:
    """Half-open outage interval ``[start, end)`` on the fault timeline."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise ValueError("crash window must have end > start")

    def contains(self, now: float) -> bool:
        """Is ``now`` inside the half-open window ``[start, end)``?"""
        return self.start <= now < self.end

    def overlaps(self, other: "CrashWindow") -> bool:
        """Do the two half-open windows share any instant?"""
        return self.start < other.end and other.start < self.end


@dataclass(slots=True)
class _RateRule:
    """Transient-error or latency-spike rule active on ``[start, end)``."""

    start: float
    end: float
    rate: float = 0.0  # per-call fault probability
    extra: float = 0.0  # extra seconds per call

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass
class _ComponentPlan:
    crash_windows: list[CrashWindow] = field(default_factory=list)
    transients: list[_RateRule] = field(default_factory=list)
    spikes: list[_RateRule] = field(default_factory=list)


class FaultInjector:
    """Seeded, schedulable fault plans for the online system's components.

    Components are addressed by name (``"database"``, ``"cache"``,
    ``"bn_server"``, ``"feature_server"``, ...).  The injector is a no-op
    until a plan is registered, so it is safe to wire into every deployment
    unconditionally: an empty plan draws no random numbers and records no
    events, keeping fault-free runs bit-identical to pre-injector behavior.
    """

    def __init__(self, seed: int = 0, clock: SimulatedClock | None = None) -> None:
        self.seed = seed
        self.clock = clock if clock is not None else SimulatedClock()
        self._rng = np.random.default_rng(seed)
        self._plans: dict[str, _ComponentPlan] = {}
        self.trace: list[FaultEvent] = []
        self.injected: Counter = Counter()  # (component, kind) -> count

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    def _plan(self, component: str) -> _ComponentPlan:
        return self._plans.setdefault(component, _ComponentPlan())

    def add_crash(self, component: str, start: float, end: float) -> CrashWindow:
        """Schedule a hard outage of ``component`` on ``[start, end)``.

        Windows for one component may never overlap: a crash cannot begin
        before the previous recovery — the injector enforces the invariant
        instead of trusting scenario scripts.
        """
        window = CrashWindow(start, end)
        plan = self._plan(component)
        for existing in plan.crash_windows:
            if window.overlaps(existing):
                raise ValueError(
                    f"crash window [{start}, {end}) overlaps existing "
                    f"[{existing.start}, {existing.end}) for {component!r}"
                )
        plan.crash_windows.append(window)
        plan.crash_windows.sort(key=lambda w: w.start)
        return window

    def add_transient(
        self,
        component: str,
        rate: float,
        start: float = 0.0,
        end: float = math.inf,
    ) -> None:
        """Fail each call to ``component`` with probability ``rate`` on ``[start, end)``."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self._plan(component).transients.append(_RateRule(start, end, rate=rate))

    def add_latency(
        self,
        component: str,
        extra: float,
        start: float = 0.0,
        end: float = math.inf,
    ) -> None:
        """Slow each call to ``component`` by ``extra`` seconds on ``[start, end)``."""
        if extra < 0:
            raise ValueError("extra latency cannot be negative")
        self._plan(component).spikes.append(_RateRule(start, end, extra=extra))

    def clear_plans(self, component: str | None = None) -> None:
        """Drop fault plans (all components, or one); the trace is kept."""
        if component is None:
            self._plans.clear()
        else:
            self._plans.pop(component, None)

    # ------------------------------------------------------------------
    # Interrogation
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current simulated time on the injector's clock."""
        return self.clock.now()

    def crashed(self, component: str, now: float | None = None) -> bool:
        """Is ``component`` inside a crash window?  (Passive — no trace event.)

        Callers that *check before calling* (e.g. the BN server probing
        ``cache.available``) route around the outage gracefully and inject
        nothing; only calls that actually hit a crashed component record a
        fault.
        """
        plan = self._plans.get(component)
        if plan is None:
            return False
        at = self.now() if now is None else now
        return any(w.contains(at) for w in plan.crash_windows)

    @property
    def fault_count(self) -> int:
        """Total *raised* faults (crash + transient); latency spikes excluded."""
        return sum(
            count
            for (_component, kind), count in self.injected.items()
            if kind in ("crash", "transient")
        )

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def before_call(self, component: str, now: float | None = None) -> float:
        """Gate one call to ``component``.

        Raises :class:`InjectedFault` when the component is inside a crash
        window or a transient-error draw fires; otherwise returns the extra
        latency (seconds) the caller must charge to the operation.  Every
        injected fault or spike is appended to :attr:`trace`.
        """
        plan = self._plans.get(component)
        if plan is None:
            return 0.0
        at = self.now() if now is None else now
        for window in plan.crash_windows:
            if window.contains(at):
                self._record(component, "crash", at)
                raise InjectedFault(f"{component} is down (injected crash window)")
        for rule in plan.transients:
            if rule.active(at) and rule.rate > 0.0:
                if self._rng.random() < rule.rate:
                    self._record(component, "transient", at)
                    raise InjectedFault(f"{component} transient error (injected)")
        extra = sum(rule.extra for rule in plan.spikes if rule.active(at))
        if extra > 0.0:
            self._record(component, "latency", at, latency=extra)
        return extra

    def _record(self, component: str, kind: str, at: float, latency: float = 0.0) -> None:
        self.trace.append(FaultEvent(component, kind, at, latency))
        self.injected[(component, kind)] += 1
        # Stamp the fault onto whichever pipeline stage absorbed it, so a
        # trace shows not just *that* a request degraded but *where*.
        span = current_span()
        if span is not None:
            span.add_event(
                f"fault.{kind}", at=at, component=component, latency=latency
            )
            span.incr("faults")


@dataclass(slots=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and multiplicative jitter.

    ``backoff(attempt, rng)`` returns the simulated seconds to charge before
    attempt ``attempt + 1``; the caller adds it to the stage's latency
    breakdown (and therefore the clock), so waiting is never free.
    """

    max_attempts: int = 3
    base_backoff: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.25  # +/- fraction of the deterministic backoff

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff times cannot be negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def backoff(self, attempt: int, rng: np.random.Generator | None = None) -> float:
        """Backoff before retrying after failed attempt number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.base_backoff * self.multiplier ** (attempt - 1), self.max_backoff)
        if self.jitter > 0.0 and rng is not None:
            raw *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return raw


class CircuitBreaker:
    """Consecutive-failure breaker with request-counted half-open probes.

    Deterministic under the simulated clock: the breaker opens after
    ``failure_threshold`` consecutive graph-path failures, then allows one
    probe request through every ``probe_interval`` requests.  A successful
    probe closes the breaker; a failed one keeps it open.
    """

    def __init__(self, failure_threshold: int = 3, probe_interval: int = 8) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if probe_interval < 1:
            raise ValueError("probe_interval must be >= 1")
        self.failure_threshold = failure_threshold
        self.probe_interval = probe_interval
        self.state = "closed"  # "closed" | "open"
        self.consecutive_failures = 0
        self.opened_count = 0
        self.short_circuited = 0  # requests denied while open
        self._calls_while_open = 0

    def allow(self) -> bool:
        """May this request attempt the protected path?"""
        if self.state == "closed":
            return True
        self._calls_while_open += 1
        if self._calls_while_open % self.probe_interval == 0:
            return True  # half-open probe
        self.short_circuited += 1
        return False

    def record_success(self) -> None:
        """Protected path succeeded — close the breaker."""
        self.consecutive_failures = 0
        self.state = "closed"
        self._calls_while_open = 0

    def record_failure(self) -> None:
        """Protected path failed (after retries); open past the threshold."""
        self.consecutive_failures += 1
        if self.state == "closed" and self.consecutive_failures >= self.failure_threshold:
            self.state = "open"
            self.opened_count += 1
            self._calls_while_open = 0

    def reset(self) -> None:
        """Operator action: force-close after a confirmed recovery."""
        self.record_success()


def random_fault_plan(
    injector: FaultInjector,
    components: list[str],
    rng: np.random.Generator,
    horizon: float = 100.0,
    max_windows: int = 3,
) -> FaultInjector:
    """Populate ``injector`` with a random, *valid* fault plan.

    For every component, draws up to ``max_windows`` crash windows that are
    non-overlapping by construction (sorted distinct cut points over the
    horizon), plus optionally one transient-error rule and one latency
    spike.  Used by the property-based tests: any seeded plan must satisfy
    the injector's invariants.
    """
    for component in components:
        n_windows = int(rng.integers(0, max_windows + 1))
        if n_windows:
            cuts = np.sort(rng.uniform(0.0, horizon, size=2 * n_windows))
            # Collapse accidental duplicates by nudging; keeps starts < ends.
            for i in range(1, len(cuts)):
                if cuts[i] <= cuts[i - 1]:
                    cuts[i] = np.nextafter(cuts[i - 1], np.inf)
            for i in range(n_windows):
                injector.add_crash(component, float(cuts[2 * i]), float(cuts[2 * i + 1]))
        if rng.random() < 0.5:
            start = float(rng.uniform(0.0, horizon))
            end = float(rng.uniform(start, horizon)) + 1e-9
            injector.add_transient(component, float(rng.uniform(0.0, 0.5)), start, end)
        if rng.random() < 0.5:
            start = float(rng.uniform(0.0, horizon))
            end = float(rng.uniform(start, horizon)) + 1e-9
            injector.add_latency(component, float(rng.uniform(0.001, 0.1)), start, end)
    return injector
