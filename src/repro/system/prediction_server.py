"""Real-time prediction server: runs HAG on a sampled computation subgraph."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.hag import HAG
from ..datagen.behavior_types import BehaviorType
from ..features.pipeline import StandardScaler
from ..network.sampling import ComputationSubgraph
from ..obs.tracing import Span
from .latency import LatencyModel

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .faults import FaultInjector
    from .service import RequestContext

__all__ = ["PredictionServer"]


class PredictionServer:
    """Holds the active model + scaler and serves inductive predictions.

    Satisfies the :class:`~repro.system.service.Service` protocol:
    :attr:`name`, :meth:`ping`, :meth:`stats` and :meth:`handle` (the
    ``inference`` stage of a prediction request).
    """

    def __init__(
        self,
        model: HAG,
        scaler: StandardScaler,
        edge_type_order: Sequence[BehaviorType],
        latency: LatencyModel,
        faults: "FaultInjector | None" = None,
        component: str = "prediction_server",
    ) -> None:
        self.model = model
        self.scaler = scaler
        self.edge_type_order = tuple(edge_type_order)
        self.latency = latency
        self.faults = faults
        self.component = component
        self.requests_served = 0

    # ------------------------------------------------------------------
    # Service surface (see repro.system.service.Service)
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Stable component name (also the fault-injector address)."""
        return self.component

    def ping(self) -> float:
        """Liveness probe; raises through the fault gate when down."""
        return self.faults.before_call(self.component) if self.faults else 0.0

    def stats(self) -> dict[str, float]:
        """Serving counters (requests served, edge-type vocabulary size)."""
        return {
            "requests_served": float(self.requests_served),
            "edge_types": float(len(self.edge_type_order)),
        }

    def handle(
        self, request: "RequestContext", span: Span | None = None
    ) -> tuple[float, float]:
        """Serve the ``inference`` stage: run HAG on the sampled subgraph.

        Requires the upstream stages to have populated ``request.subgraph``
        and ``request.features``; stores the fraud probability back on the
        context and annotates ``span`` with it.
        """
        if request.subgraph is None or request.features is None:
            raise ValueError("inference requires a subgraph and its features")
        probability, seconds = self.predict(request.subgraph, request.features)
        request.probability = probability
        if span is not None:
            span.annotate("probability", probability)
        return probability, seconds

    def predict(
        self, subgraph: ComputationSubgraph, features: np.ndarray
    ) -> tuple[float, float]:
        """Fraud probability for the subgraph target; ``(probability, seconds)``.

        A non-finite feature is the model's ``ValueError``, raised before
        anything is charged or counted, not a ``nan`` served as a decision.
        """
        if features.shape[0] != subgraph.num_nodes:
            raise ValueError("feature rows must align with subgraph nodes")
        extra = self.faults.before_call(self.component) if self.faults else 0.0
        scaled = self.scaler.transform(features)
        probability = self.model.predict_subgraph(
            subgraph, scaled, edge_type_order=self.edge_type_order
        )
        self.requests_served += 1
        return probability, self.latency.charge_model_forward(subgraph.num_nodes) + extra

    def predict_batch(
        self,
        subgraphs: Sequence[ComputationSubgraph],
        features: Sequence[np.ndarray],
        gate_extras: Sequence[float] | None = None,
    ) -> tuple[list[float], list[float]]:
        """One packed forward for a micro-batch; ``(probabilities, seconds)``.

        Probabilities are bit-for-bit what per-request :meth:`predict` calls
        return (see :meth:`repro.core.hag.HAG.predict_subgraphs`); the fixed
        forward cost is amortized across the batch by the latency model.
        The caller runs the per-request fault gate (``ping``) and passes the
        charged extras through ``gate_extras`` so they land in the same
        latency slot as the scalar path's.  A non-finite feature is a
        ``ValueError`` naming the request's position.  A ``gate_extras`` that
        is not one per subgraph is a ``ValueError`` before anything is run,
        drawn or counted.
        """
        if len(subgraphs) != len(features):
            raise ValueError("one feature matrix per subgraph is required")
        if gate_extras is not None and len(gate_extras) != len(subgraphs):
            raise ValueError("one gate extra per subgraph is required")
        scaled = [self.scaler.transform(matrix) for matrix in features]
        probabilities = self.model.predict_subgraphs(
            subgraphs, scaled, edge_type_order=self.edge_type_order
        )
        self.requests_served += len(subgraphs)
        seconds = self.latency.charge_model_forward_batch(
            [subgraph.num_nodes for subgraph in subgraphs]
        )
        if gate_extras is not None:
            seconds = [s + extra for s, extra in zip(seconds, gate_extras)]
        return probabilities, seconds
