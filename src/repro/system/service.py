"""The unified service API of the online system.

PR 3's redesign: the four online components — BN server, feature server,
prediction server and the model manager — historically exposed slightly
different method shapes.  This module defines the common surface:

* :class:`PredictRequest` — the frozen request object
  :meth:`~repro.system.turbo.Turbo.predict` accepts as its single
  argument (uid, transaction, optional latency budget override and an
  optional upstream :class:`~repro.obs.tracing.TraceContext`);
* :class:`RequestContext` — the mutable per-request pipeline state that
  flows *between* stages (sampled subgraph, feature matrix, probability)
  together with the orchestrator's sampling policy;
* :class:`Service` — the protocol every server satisfies: a ``name``, a
  ``ping()`` liveness probe, a ``stats()`` counter dict and a
  ``handle(request, span)`` entry point returning
  ``(value, seconds_charged)``.

``tests/test_system/test_service_api.py`` pins that all four servers are
``isinstance``-checkable against :class:`Service`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

import numpy as np

from ..datagen.entities import Transaction
from ..obs.tracing import Span, TraceContext

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..network.sampling import ComputationSubgraph

__all__ = ["PredictRequest", "RequestContext", "Sampler", "Service"]


@dataclass(frozen=True, slots=True)
class PredictRequest:
    """One real-time detection request (the single ``Turbo.predict`` input).

    ``uid`` defaults to the transaction's user; ``now`` to the simulated
    clock at serve time; ``budget`` overrides the deployment's per-request
    latency budget for this request only (``None`` keeps the default);
    ``trace`` parents the request's span tree under an upstream trace.
    """

    txn: Transaction
    uid: int | None = None
    now: float | None = None
    budget: float | None = None
    trace: TraceContext | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.txn, Transaction):
            raise TypeError(f"txn must be a Transaction, got {type(self.txn).__name__}")
        if self.uid is None:
            object.__setattr__(self, "uid", int(self.txn.uid))
        if self.budget is not None and self.budget <= 0:
            raise ValueError("budget must be positive (or None)")


@dataclass(slots=True)
class RequestContext:
    """Mutable pipeline state of one in-flight request.

    Carries the frozen :class:`PredictRequest`, the resolved serve time,
    the orchestrator's sampling policy, and the artifacts each stage
    produces for the next one.  Servers read their inputs from here and
    write their outputs back, which is what lets all of them share the
    one ``handle(request, span)`` shape.
    """

    request: PredictRequest
    now: float
    hops: int = 2
    fanout: int | None = 10
    allowed: set[int] | None = None
    subgraph: "ComputationSubgraph | None" = None
    features: np.ndarray | None = None
    probability: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)


@runtime_checkable
class Sampler(Protocol):
    """One computation-subgraph sampling tier behind ``BNServer``.

    PR 8's unification: the single-network batch sampler
    (:class:`~repro.system.bn_server.LocalSampler`), the sharded
    frontier-exchange router (:class:`~repro.system.shard_router.ShardRouter`)
    and the lambda speed layer's fallthrough sampler
    (:class:`~repro.system.lambda_layer.DeltaSampler`) all expose this one
    shape, so the orchestrator picks a tier by configuration instead of
    branching on deployment details inline.

    ``sample_batch`` returns ``(subgraphs, stats, gate_seconds)`` where
    ``stats`` is a :class:`~repro.network.sampling.BatchSampleStats`
    (``stats.partial`` lists request indices served from an incomplete
    frontier) and ``gate_seconds`` is batch-level probe cost charged to the
    first request.  Neighbour selection is the read index's, ranked once
    per BN version, so a tier carries no ranking state of its own.
    """

    tier: str

    def sample_batch(
        self,
        targets: Any,
        hops: int = 2,
        fanout: int | None = 25,
        allowed: set[int] | None = None,
        now: float = 0.0,
    ) -> tuple[list, Any, float]:
        """Sample every target's ``G_v``; ``(subgraphs, stats, gate_s)``."""
        ...


@runtime_checkable
class Service(Protocol):
    """What every online component exposes (the unified service surface).

    ``ping()`` raises (``StorageError`` or an injected fault) when the
    component cannot serve and returns the charged probe seconds
    otherwise; ``stats()`` returns a flat dict of component counters for
    dashboards; ``handle(request, span)`` serves one stage of a request
    and returns ``(value, seconds_charged)``, annotating ``span`` (when
    given) with stage-level telemetry.
    """

    @property
    def name(self) -> str:
        """Stable component name (also the fault-injector address)."""
        ...

    def ping(self) -> float:
        """Liveness probe; raises when the component cannot serve."""
        ...

    def stats(self) -> dict[str, float]:
        """Flat dict of component counters (dashboard snapshot)."""
        ...

    def handle(self, request: Any, span: Span | None = None) -> tuple[Any, float]:
        """Serve one request/stage; returns ``(value, seconds_charged)``."""
        ...
