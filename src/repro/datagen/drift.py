"""Concept-drift simulation: fraud tactics that evolve over time.

The paper's introduction motivates Turbo with the weakness of hard-coded
defenses: block-lists only catch *observed* values, and scorecards "suffer
from the concept drift problem as fraud tactics evolve".  This module makes
that failure mode measurable: it generates a sequence of evaluation periods
in which the grey industry rotates its resources and upgrades its identity
packaging, so that defenses anchored to past observations decay while
behaviour-graph detection keeps working.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import GeneratorConfig
from .entities import Dataset
from .generator import LeasingPlatformSimulator

__all__ = [
    "FraudBurst",
    "generate_drift_scenario",
    "fraud_burst_schedule",
]


@dataclass(slots=True)
class DriftPeriod:
    """One evaluation period of the drift scenario."""

    index: int
    dataset: Dataset
    #: how far fraud tactics have evolved in this period, in [0, 1].
    drift_level: float


@dataclass(slots=True)
class DriftScenario:
    """A training period followed by progressively drifted test periods."""

    train: Dataset
    periods: list[DriftPeriod] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class FraudBurst:
    """One fraud-attack wave on the serving timeline, derived from a drift period.

    The grey industry does not spread its activity evenly: each drift
    period corresponds to a coordinated campaign, and on the serving side
    that campaign shows up as a traffic spike whose ``intensity`` (offered
    load multiplier) grows with how far the tactics have drifted.
    ``repro.system.loadgen`` turns these into burst windows of its traffic
    pattern; this class stays datagen-level so the dependency keeps
    pointing system -> datagen, never the reverse.
    """

    period_index: int
    drift_level: float
    #: window on the simulated serving clock, seconds, half-open [start, end).
    start: float
    end: float
    #: offered-load multiplier while the burst is active (>= 1).
    intensity: float


def fraud_burst_schedule(
    scenario: DriftScenario,
    start: float = 0.0,
    burst_seconds: float = 600.0,
    gap_seconds: float = 600.0,
    max_intensity: float = 4.0,
) -> tuple[FraudBurst, ...]:
    """Lay a drift scenario's periods out as attack waves on a timeline.

    One burst per :class:`DriftPeriod`, in period order, each ``burst_seconds``
    long and separated by ``gap_seconds`` of calm; the first burst begins one
    gap after ``start``.  Intensity interpolates from 1 (no drift) to
    ``max_intensity`` (fully drifted), so later, more-evolved campaigns hit
    the platform harder — the load-test harness uses exactly this to align
    its traffic spikes with the scenario that produced them.
    """
    if burst_seconds <= 0:
        raise ValueError("burst_seconds must be positive")
    if gap_seconds < 0:
        raise ValueError("gap_seconds cannot be negative")
    if max_intensity < 1.0:
        raise ValueError("max_intensity must be >= 1")
    bursts: list[FraudBurst] = []
    at = start + gap_seconds
    for period in scenario.periods:
        bursts.append(
            FraudBurst(
                period_index=period.index,
                drift_level=period.drift_level,
                start=at,
                end=at + burst_seconds,
                intensity=1.0 + (max_intensity - 1.0) * period.drift_level,
            )
        )
        at += burst_seconds + gap_seconds
    return tuple(bursts)


def _drifted_config(base: GeneratorConfig, level: float) -> GeneratorConfig:
    """Evolve the fraud tactics by ``level`` in [0, 1].

    Drift dimensions (all motivated by the grey-industry arms race):

    * identity packaging improves — more fraudsters look normal on paper;
    * crews get more careful — footprints spread over longer horizons and
      fewer members share SIM cards;
    * rings shrink and diversify devices, diluting the clique signal.

    Resource rotation (new devices / IPs / SIMs per period) is inherent:
    every generated period mints fresh identifier pools, exactly like a
    fraud crew discarding burned hardware.
    """
    if not 0.0 <= level <= 1.0:
        raise ValueError("drift level must be in [0, 1]")
    config = GeneratorConfig(**{
        f: getattr(base, f) for f in base.__dataclass_fields__
    })
    config.p_packaged_identity = min(0.95, base.p_packaged_identity + 0.3 * level)
    config.p_careful_fraudster = min(0.9, base.p_careful_fraudster + 0.4 * level)
    config.p_ring_shares_sims = max(0.1, base.p_ring_shares_sims - 0.4 * level)
    config.mean_ring_size = max(
        config.min_ring_size + 1.0, base.mean_ring_size - 3.0 * level
    )
    config.members_per_ring_device = max(
        1.5, base.members_per_ring_device - 1.0 * level
    )
    return config


def generate_drift_scenario(
    base: GeneratorConfig | None = None,
    n_periods: int = 3,
    max_drift: float = 1.0,
    seed: int = 0,
) -> DriftScenario:
    """Generate a train period plus ``n_periods`` increasingly drifted ones.

    Each period is a fresh population (new users *and* new fraud
    infrastructure); only the tactics parameters evolve.  Detectors are
    meant to be fit on ``scenario.train`` and evaluated on each period.
    """
    if n_periods < 1:
        raise ValueError("need at least one drift period")
    base = base or GeneratorConfig()
    train = LeasingPlatformSimulator(base, seed=seed, namespace="p0:").generate(
        name="drift-train"
    )
    scenario = DriftScenario(train=train)
    for index in range(1, n_periods + 1):
        level = max_drift * index / n_periods
        config = _drifted_config(base, level)
        dataset = LeasingPlatformSimulator(
            config, seed=seed + 100 + index, namespace=f"p{index}:"
        ).generate(name=f"drift-{index}")
        scenario.periods.append(
            DriftPeriod(index=index, dataset=dataset, drift_level=level)
        )
    return scenario
