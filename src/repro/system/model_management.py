"""Model management: versioned registry with activation and rollback.

The paper retrains HAG offline on a daily basis and swaps it into the
prediction server; this module provides the registry that makes the swap
(and an emergency rollback) an O(1) pointer move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..core.hag import HAG
from ..obs.tracing import Span

__all__ = ["ModelManager"]


@dataclass(slots=True)
class ModelVersion:
    """One registered model snapshot."""

    version: int
    state: dict[str, np.ndarray]
    trained_at: float
    metrics: dict[str, float] = field(default_factory=dict)


class ModelManager:
    """Keeps model snapshots; materializes the active one on demand.

    Satisfies the :class:`~repro.system.service.Service` protocol:
    :attr:`name`, :meth:`ping`, :meth:`stats` and :meth:`handle`
    (control-plane commands such as rollback, rather than a latency
    stage of the prediction pipeline).
    """

    def __init__(self, model_factory: Callable[[], HAG]) -> None:
        self._factory = model_factory
        self._versions: dict[int, ModelVersion] = {}
        self._active: int | None = None
        self._previous: int | None = None
        self._next_version = 1

    # ------------------------------------------------------------------
    # Service surface (see repro.system.service.Service)
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Stable component name."""
        return "model_manager"

    def ping(self) -> float:
        """Liveness probe; raises when no model version is active."""
        if self._active is None:
            raise RuntimeError("no active model version")
        return 0.0

    def stats(self) -> dict[str, float]:
        """Registry counters (versions held, active/previous pointers)."""
        return {
            "versions": float(len(self._versions)),
            "active_version": float(self._active if self._active is not None else -1),
            "previous_version": float(
                self._previous if self._previous is not None else -1
            ),
        }

    def handle(
        self, request: dict[str, Any], span: Span | None = None
    ) -> tuple[Any, float]:
        """Execute one control-plane command; returns ``(result, seconds)``.

        ``request`` is a dict with an ``op`` key: ``{"op": "activate",
        "version": n}``, ``{"op": "rollback"}``, ``{"op": "active_version"}``
        or ``{"op": "materialize"}``.  Control-plane moves are O(1)
        pointer swaps, so the charged time is always ``0.0``.
        """
        op = request.get("op")
        if op == "activate":
            self.activate(int(request["version"]))
            result: Any = self._active
        elif op == "rollback":
            result = self.rollback()
        elif op == "active_version":
            result = self._active
        elif op == "materialize":
            result = self.materialize_active()
        else:
            raise ValueError(f"unknown model-manager op: {op!r}")
        if span is not None:
            span.add_event(f"model_manager.{op}", at=None, version=self._active)
        return result, 0.0

    def register(
        self,
        state: dict[str, np.ndarray],
        trained_at: float,
        metrics: dict[str, float] | None = None,
        activate: bool = True,
    ) -> int:
        """Store a trained state dict; optionally make it the active model."""
        version = self._next_version
        self._next_version += 1
        self._versions[version] = ModelVersion(
            version=version,
            state={k: v.copy() for k, v in state.items()},
            trained_at=trained_at,
            metrics=dict(metrics or {}),
        )
        if activate:
            self.activate(version)
        return version

    def activate(self, version: int) -> None:
        """Make ``version`` the serving model (remembers the previous one)."""
        if version not in self._versions:
            raise KeyError(f"unknown model version {version}")
        if self._active is not None and self._active != version:
            self._previous = self._active
        self._active = version

    def rollback(self) -> int:
        """Re-activate the previously active version."""
        if self._previous is None:
            raise RuntimeError("no previous version to roll back to")
        self._active, self._previous = self._previous, self._active
        return self._active

    @property
    def active_version(self) -> int | None:
        return self._active

    def versions(self) -> list[ModelVersion]:
        """All registered versions, oldest first."""
        return sorted(self._versions.values(), key=lambda v: v.version)

    def materialize_active(self) -> HAG:
        """Build a model instance loaded with the active version's weights."""
        if self._active is None:
            raise RuntimeError("no active model version")
        model = self._factory()
        model.load_state_dict(self._versions[self._active].state)
        model.eval()
        return model
