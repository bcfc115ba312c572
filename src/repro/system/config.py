"""Deployment configuration for the online Turbo system.

Collapses the scattered ``deploy_turbo(...)`` keyword arguments into one
validated :class:`TurboConfig` dataclass (PR 3's API redesign).  The
defaults are the paper's deployed settings: decision threshold 0.85, a
15 s per-request latency budget, bounded retries with a circuit breaker,
and the scorecard/block-list fallback ladder armed.

``deploy_turbo(dataset, config=TurboConfig(...))`` is the only call shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Any, Sequence

from ..network.windows import FAST_WINDOWS, validate_windows
from .faults import CircuitBreaker, FaultInjector, RetryPolicy
from .latency import LatencyModel

__all__ = ["TurboConfig"]


def _check_count(name: str, value: Any, minimum: int, optional: bool = False) -> None:
    """``value`` is an integer (not a ``bool``) >= ``minimum``, or ``None``
    when ``optional``."""
    if optional and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ValueError(
            f"{name} must be an integer >= {minimum}" + (" (or None)" if optional else "")
        )


def _check_duration(name: str, value: Any) -> None:
    """``value`` is a finite positive number of seconds, or ``None``."""
    if value is not None and not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive (or None)")


@dataclass(slots=True)
class TurboConfig:
    """Validated knobs of one Turbo deployment (paper defaults).

    Training: ``hidden``, ``train_epochs``, ``seed``.  Serving:
    ``threshold`` (0.85 in the deployed system), ``hops``/``fanout``
    (computation-subgraph sampling), ``request_budget`` (seconds; ``None``
    disables).  Infrastructure: ``windows`` (BN window hierarchy),
    ``use_cache``, ``replicated`` (primary/replica database),
    ``with_fallbacks``, ``shards`` (hash-partition the BN's reads into this
    many fault domains over the one network: a shard whose gate fails is
    served around as "partial"; 1 serves unpartitioned).  Lambda tier:
    ``lambda_tier`` arms the two-tier batch/speed serving path
    (:mod:`repro.system.lambda_layer`), ``lambda_refresh_period``
    (simulated seconds between automatic batch passes; ``None`` = manual
    refresh only), ``lambda_staleness_budget`` (maximum delta edge
    touches a served cached score may carry; 0 keeps cached serving
    bit-exact).  How a pass is computed is not configurable: the deploy
    pass is a full sweep, refreshes recompute only the delta's cone
    whenever the current state can be extended (``docs/LAMBDA.md``).
    Resilience: ``retry_policy``, ``breaker`` and
    ``faults`` (``None`` creates deployment-local defaults), ``latency``
    (the latency model; ``None`` creates one from ``seed``).  Tracing:
    ``trace_max`` bounds what the deployment retains per request — the
    tracer's finished traces and ``Turbo.responses``, whose entries pin
    their span trees — oldest dropped first (``None`` keeps all).
    """

    windows: Sequence[float] = tuple(FAST_WINDOWS)
    use_cache: bool = True
    threshold: float = 0.85
    hidden: Sequence[int] = (64, 32)
    train_epochs: int = 60
    seed: int = 0
    hops: int = 2
    fanout: int | None = 10
    replicated: bool = False
    shards: int = 1
    lambda_tier: bool = False
    lambda_refresh_period: float | None = None
    lambda_staleness_budget: int = 0
    request_budget: float | None = 15.0
    with_fallbacks: bool = True
    retry_policy: RetryPolicy | None = None
    breaker: CircuitBreaker | None = None
    faults: FaultInjector | None = None
    latency: LatencyModel | None = None
    trace_max: int | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ``ValueError`` on an inconsistent configuration."""
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        _check_duration("request_budget", self.request_budget)
        _check_count("train_epochs", self.train_epochs, 1)
        _check_count("hops", self.hops, 0)
        _check_count("fanout", self.fanout, 0, optional=True)
        _check_count("shards", self.shards, 1)
        _check_duration("lambda_refresh_period", self.lambda_refresh_period)
        _check_count("lambda_staleness_budget", self.lambda_staleness_budget, 0)
        if not self.lambda_tier and (
            self.lambda_refresh_period is not None
            or self.lambda_staleness_budget
        ):
            raise ValueError("lambda_* knobs require lambda_tier=True")
        validate_windows(self.windows)
        if not self.hidden:
            raise ValueError("hidden must name at least one layer width")
        for width in self.hidden:
            _check_count("each hidden width", width, 1)
        _check_count("trace_max", self.trace_max, 1, optional=True)
