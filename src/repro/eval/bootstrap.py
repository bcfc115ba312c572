"""Paired bootstrap confidence intervals: how sure is "arm A beats arm B"?

Two arms scored on the same units (requests, seeds) are compared on those
units: a resample draws units with replacement and recomputes the
statistic on every column of the drawn rows, so what the units share
(a hard request, a lucky seed) stays paired.  With ``strata`` every
stratum (a run, a split) is resampled on its own and keeps its size.  The
interval is the percentile interval of the resampled statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["paired_bootstrap_ci"]


@dataclass(frozen=True, slots=True)
class BootstrapCI:
    """A statistic on the sample, and its bootstrap percentile interval."""

    estimate: float
    low: float
    high: float
    level: float
    #: resamples the statistic was defined on (a resample that raised
    #: ``ValueError``, such as an AUC over one class, is left out).
    resamples: int


def paired_bootstrap_ci(
    statistic: Callable[..., float],
    *columns: np.ndarray,
    strata: np.ndarray | None = None,
    resamples: int = 2000,
    level: float = 0.95,
    seed: int = 0,
) -> BootstrapCI:
    """``statistic(*columns)`` and its ``level`` paired-bootstrap interval.

    ``columns`` are equal-length arrays over the same units — per-seed
    deltas for a comparison over seeds, or labels plus each arm's scores
    for one over requests; a resample draws unit indices with replacement
    (within each stratum of ``strata``, when given) and passes every
    column's drawn rows to ``statistic``.  Seeded: the same call gives the
    same interval.  Raises ``ValueError`` on mismatched or empty columns,
    a ``level`` outside (0, 1), fewer than one resample, or when the
    statistic is undefined on every resample.
    """
    if not columns:
        raise ValueError("at least one column is needed")
    arrays = [np.asarray(column) for column in columns]
    n = len(arrays[0])
    if n == 0 or any(len(array) != n for array in arrays):
        raise ValueError("columns must be non-empty and of one length")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    groups = [np.arange(n)]
    if strata is not None:
        strata = np.asarray(strata)
        if len(strata) != n:
            raise ValueError("strata must match the columns' length")
        groups = [np.flatnonzero(strata == value) for value in np.unique(strata)]
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(resamples):
        drawn = np.concatenate([group[rng.integers(0, len(group), len(group))] for group in groups])
        try:
            values.append(float(statistic(*(array[drawn] for array in arrays))))
        except ValueError:
            continue
    if not values:
        raise ValueError("the statistic is undefined on every resample")
    tail = (1.0 - level) / 2.0
    low, high = np.quantile(values, [tail, 1.0 - tail])
    return BootstrapCI(
        estimate=float(statistic(*arrays)),
        low=float(low),
        high=float(high),
        level=level,
        resamples=len(values),
    )
