"""The paired bootstrap: what it resamples, and what it refuses."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import paired_bootstrap_ci, roc_auc_score


def test_a_constant_delta_has_a_point_interval():
    ci = paired_bootstrap_ci(np.mean, np.full(12, 0.25), resamples=200)
    assert (ci.estimate, ci.low, ci.high) == (0.25, 0.25, 0.25)
    assert ci.level == 0.95 and ci.resamples == 200


def test_the_interval_brackets_the_estimate_and_is_seeded():
    deltas = np.random.default_rng(0).normal(0.1, 0.05, 30)
    ci = paired_bootstrap_ci(np.mean, deltas, seed=3)
    assert ci.estimate == pytest.approx(deltas.mean())
    assert ci.low < ci.estimate < ci.high
    assert paired_bootstrap_ci(np.mean, deltas, seed=3) == ci
    wider = paired_bootstrap_ci(np.mean, deltas, seed=3, level=0.99)
    assert wider.low <= ci.low and ci.high <= wider.high


def test_pairing_cancels_what_the_units_share():
    """Two arms that differ by a small constant on wildly different units:
    the paired interval of the AUC delta sits on the constant's effect,
    while the units' spread alone would swamp it."""
    rng = np.random.default_rng(1)
    labels = np.repeat([0, 1], 40)
    shared = rng.normal(0.0, 5.0, 80)
    better = shared + 1.0 * labels
    worse = shared + 0.2 * labels

    def delta(y, a, b):
        return roc_auc_score(y, a) - roc_auc_score(y, b)

    ci = paired_bootstrap_ci(delta, labels, better, worse, resamples=300)
    assert 0.0 < ci.low <= ci.estimate <= ci.high


def test_strata_keep_their_sizes():
    """Each stratum is resampled on its own, so a statistic that counts a
    stratum's rows sees the same count in every resample."""
    strata = np.repeat([0, 1, 2], [5, 7, 9])
    ci = paired_bootstrap_ci(
        lambda s: float((s == 1).sum()), strata, strata=strata, resamples=50
    )
    assert ci.low == ci.high == ci.estimate == 7.0


def test_undefined_resamples_are_left_out():
    """An AUC over one class is undefined; such resamples do not count."""
    labels = np.array([0] * 9 + [1])
    scores = np.arange(10.0)
    ci = paired_bootstrap_ci(roc_auc_score, labels, scores, resamples=100)
    assert 0 < ci.resamples < 100 and ci.estimate == 1.0
    with pytest.raises(ValueError, match="every resample"):
        paired_bootstrap_ci(roc_auc_score, np.zeros(5), np.arange(5.0), resamples=20)


@pytest.mark.parametrize(
    "columns, kwargs",
    [
        ((), {}),
        ((np.zeros(3), np.zeros(4)), {}),
        ((np.zeros(0),), {}),
        ((np.zeros(3),), {"level": 1.0}),
        ((np.zeros(3),), {"resamples": 0}),
        ((np.zeros(3),), {"strata": np.zeros(2)}),
    ],
)
def test_bad_input_raises(columns, kwargs):
    with pytest.raises(ValueError):
        paired_bootstrap_ci(np.mean, *columns, **kwargs)
