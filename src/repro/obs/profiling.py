"""Wall-clock profiling hooks for the offline training loops.

Unlike the online system — whose latency is *charged* against the
simulated :class:`~repro.system.latency.LatencyModel` — offline training
(``repro.core.trainer`` / ``repro.core.train_engine``) runs real numpy
work, so the profiler
measures real wall time via ``time.perf_counter``.

Usage::

    profiler = TrainProfiler()
    train_node_classifier(..., profiler=profiler)
    print(profiler.report())

Each epoch produces an :class:`EpochProfile` with total seconds, the loss,
per-stage timings (``forward``, ``backward``, ``step``, ``validation``;
the sampled epoch loop adds ``sampling``, ``induction``, ``gather``,
``prefetch`` and a run-level ``presample``), the batch count, and the
number of sampled subgraph nodes.  Totals are mirrored into an
optional :class:`~repro.obs.metrics.MetricsRegistry` under the ``train.*``
metric names documented in ``docs/OBSERVABILITY.md`` — per-epoch counters
plus one ``train.stage_seconds.<stage>`` histogram per stage — and
:meth:`TrainProfiler.mirror_into` replays them post-hoc into a registry
created *after* training (``deploy_turbo`` publishes them under
``turbo.train.*`` this way).

When a :class:`~repro.obs.tracing.Tracer` is attached, every epoch also
emits a ``train_epoch`` span whose children are the epoch's stages, so
training shows up in ``repro trace`` next to the serving spans.  The
children are laid end-to-end from per-stage *totals*: with the prefetch
pipeline, assembly stages tick on a background thread concurrently with
compute, so the span tree is a cost breakdown, not a timeline (children
may sum past the epoch's own span — that overhang *is* the overlap).

Thread-safety: the prefetch thread records assembly stages while the main
thread records compute stages.  Stage names on the two threads are
disjoint, so the per-name read-modify-write on the stages dict never
races under the GIL.

:class:`NullProfiler` is the no-op stand-in the training loops fall back
to when no profiler is passed; its hooks cost one attribute lookup and a
shared no-op context manager, keeping the hot path unperturbed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from .metrics import MetricsRegistry
from .tracing import Tracer

__all__ = ["TrainProfiler", "NullProfiler"]


@dataclass(slots=True)
class EpochProfile:
    """Timings and counts of one training epoch."""

    epoch: int
    seconds: float = 0.0
    loss: float = float("nan")
    stages: dict[str, float] = field(default_factory=dict)
    batches: int = 0
    sampled_nodes: int = 0


class NullProfiler:
    """No-op profiler: every hook does nothing (shared ``nullcontext``)."""

    _CTX = nullcontext()

    def epoch(self, index: int):
        """No-op epoch scope."""
        return self._CTX

    def stage(self, name: str):
        """No-op stage scope."""
        return self._CTX

    def count_batch(self, sampled_nodes: int = 0) -> None:
        """No-op batch counter."""

    def record_loss(self, loss: float) -> None:
        """No-op loss recorder."""


class TrainProfiler:
    """Collects per-epoch / per-stage wall-clock timings and sample counts."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        self.epochs: list[EpochProfile] = []
        #: stage seconds recorded outside any epoch scope (one-time run
        #: setup such as the engine's ``presample`` pass).
        self.run_stages: dict[str, float] = {}
        self._current: EpochProfile | None = None

    @contextmanager
    def epoch(self, index: int):
        """Scope one epoch: times it and appends an :class:`EpochProfile`."""
        profile = EpochProfile(epoch=index)
        self._current = profile
        started = time.perf_counter()
        try:
            yield profile
        finally:
            profile.seconds = time.perf_counter() - started
            self.epochs.append(profile)
            self._current = None
            if self.registry is not None:
                self._mirror_epoch(self.registry, profile, "")
            if self.tracer is not None:
                self._emit_epoch_trace(profile, started)

    @contextmanager
    def stage(self, name: str):
        """Scope one stage; its wall time accumulates on the current epoch.

        Outside an epoch scope the seconds land in :attr:`run_stages`
        (one-time setup work like the presample pass), still visible in
        :meth:`stage_totals` and :meth:`mirror_into`.
        """
        started = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - started
            profile = self._current
            stages = profile.stages if profile is not None else self.run_stages
            stages[name] = stages.get(name, 0.0) + seconds

    def count_batch(self, sampled_nodes: int = 0) -> None:
        """Count one mini-batch (and the nodes its sampled subgraph holds)."""
        if self._current is not None:
            self._current.batches += 1
            self._current.sampled_nodes += sampled_nodes

    def record_loss(self, loss: float) -> None:
        """Attach the epoch's training loss to the current profile."""
        if self._current is not None:
            self._current.loss = float(loss)

    # ------------------------------------------------------------------
    # Metrics / tracing export
    # ------------------------------------------------------------------
    @staticmethod
    def _mirror_epoch(
        registry: MetricsRegistry, profile: EpochProfile, prefix: str
    ) -> None:
        registry.counter(f"{prefix}train.epochs").inc()
        registry.histogram(f"{prefix}train.epoch_seconds").observe(profile.seconds)
        registry.counter(f"{prefix}train.batches").inc(profile.batches)
        registry.counter(f"{prefix}train.sampled_nodes").inc(profile.sampled_nodes)
        for name, seconds in profile.stages.items():
            registry.histogram(f"{prefix}train.stage_seconds.{name}").observe(
                seconds
            )

    def mirror_into(self, registry: MetricsRegistry, prefix: str = "") -> None:
        """Replay every recorded epoch's totals into ``registry``.

        For registries that do not exist yet while training runs:
        ``deploy_turbo`` trains first and constructs the ``Turbo`` system
        (and its monitor) afterwards, then replays the profile under the
        system's ``turbo.`` prefix so ``repro trace``/``repro metrics``
        show the training cost next to the serving counters.
        """
        for profile in self.epochs:
            self._mirror_epoch(registry, profile, prefix)
        for name, seconds in self.run_stages.items():
            registry.histogram(f"{prefix}train.stage_seconds.{name}").observe(
                seconds
            )

    def _emit_epoch_trace(self, profile: EpochProfile, started: float) -> None:
        """One ``train_epoch`` span per epoch with per-stage child spans."""
        root = self.tracer.start_trace(
            "train_epoch",
            at=started,
            epoch=profile.epoch,
            batches=profile.batches,
            sampled_nodes=profile.sampled_nodes,
        )
        at = started
        for name, seconds in profile.stages.items():
            child = root.child(name, at)
            child.finish(seconds)
            at += seconds
        self.tracer.finish_trace(root, profile.seconds)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stage_totals(self) -> dict[str, float]:
        """Total seconds per stage: run-level setup plus all epochs."""
        totals: dict[str, float] = dict(self.run_stages)
        for profile in self.epochs:
            for name, seconds in profile.stages.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def total_seconds(self) -> float:
        """Wall-clock seconds across all profiled epochs."""
        return sum(p.seconds for p in self.epochs)

    def report(self) -> str:
        """Plain-text profile: per-stage totals plus epoch/batch counts."""
        totals = self.stage_totals()
        lines = [
            f"epochs={len(self.epochs)}  total={self.total_seconds():.3f}s"
            f"  batches={sum(p.batches for p in self.epochs)}"
            f"  sampled_nodes={sum(p.sampled_nodes for p in self.epochs)}"
        ]
        for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
            share = seconds / self.total_seconds() if self.total_seconds() else 0.0
            lines.append(f"  {name:<12} {seconds:8.3f}s  ({100 * share:5.1f}%)")
        return "\n".join(lines)
