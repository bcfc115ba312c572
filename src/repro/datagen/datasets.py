"""Benchmark dataset presets mirroring the paper's D1 and D2 (Table II).

The real D1 has 67 072 users with 918 fraudsters (1.4 % positive) and D2 has
1 072 205 applicants of which 92.3 % are positive (rejected by the original
rule system or confirmed fraud).  The presets below reproduce those *ratios*
at laptop scale; the ``scale`` parameter grows or shrinks the population
proportionally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import GeneratorConfig
from .entities import Dataset
from .generator import LeasingPlatformSimulator

__all__ = ["make_d1", "make_d2", "dataset_statistics"]


def make_d1(scale: float = 1.0, seed: int = 7, **overrides) -> Dataset:
    """Generate the D1-like dataset: mostly normal users, ~6 % fraud.

    The paper's D1 positive rate is 1.4 %; at laptop scale that leaves too few
    positives to train on, so the default raises it to 8 % while keeping the
    normal-majority regime.  Pass ``fraud_rate=0.014`` to match the paper
    exactly (needs a larger ``scale`` to be trainable).
    """
    config = GeneratorConfig(n_users=max(200, int(4000 * scale)), fraud_rate=0.08)
    for key, value in overrides.items():
        setattr(config, key, value)
    return LeasingPlatformSimulator(config, seed=seed).generate(name="D1")


def make_d2(scale: float = 1.0, seed: int = 11, **overrides) -> Dataset:
    """Generate the D2-like dataset: applicant stream dominated by positives.

    In the paper >90 % of D2 applications were rejected by Jimi's original
    risk management system and count as positive samples, giving 92.3 %
    positives overall.  We reproduce that by layering a large population of
    rejected applicants (blatant fraud crews) on a small legitimate base.
    """
    config = GeneratorConfig(
        n_users=max(300, int(1200 * scale)),
        fraud_rate=0.30,
        rejected_applicant_fraction=6.0,
        mean_ring_size=10.0,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return LeasingPlatformSimulator(config, seed=seed).generate(name="D2")


@dataclass(slots=True)
class DatasetStatistics:
    """The row format of Table II."""

    name: str
    n_nodes: int
    n_positive: int
    n_edges: int
    n_types: int

    def as_row(self) -> str:
        """Render the statistics as an aligned Table II row."""
        return (
            f"{self.name:<8}{self.n_nodes:>10,}{self.n_positive:>12,}"
            f"{self.n_edges:>12,}{self.n_types:>8}"
        )


def dataset_statistics(dataset: Dataset, bn) -> DatasetStatistics:
    """Compute the Table II row for ``dataset`` with its built BN.

    ``bn`` is a :class:`~repro.network.bn.BehaviorNetwork`; accepted untyped
    to avoid a circular import.
    """
    labels = dataset.labels
    return DatasetStatistics(
        name=dataset.name,
        n_nodes=len(labels),
        n_positive=sum(labels.values()),
        n_edges=bn.num_edges(),
        n_types=len(bn.edge_types()),
    )
