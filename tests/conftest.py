"""Shared fixtures: a tiny deterministic dataset + derived artifacts.

Session-scoped so the expensive pieces (generation, BN build, experiment
preparation) run once for the whole suite.
"""

from __future__ import annotations

import gc
import multiprocessing
import os

import numpy as np
import pytest

from repro.datagen import Dataset, GeneratorConfig, LeasingPlatformSimulator
from repro.eval.runner import ExperimentData, prepare_experiment
from repro.network import BehaviorNetwork, BNBuilder, FAST_WINDOWS
from repro.network.shm import SharedSnapshotStore


def tiny_generator_config(**overrides) -> GeneratorConfig:
    """A small, fast configuration used across the suite."""
    config = GeneratorConfig(
        n_users=220,
        fraud_rate=0.12,
        span_days=90.0,
        normal_sessions_mean=10.0,
        fraud_sessions_mean=10.0,
        mean_ring_size=6.0,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


@pytest.fixture(scope="session")
def tiny_dataset() -> Dataset:
    return LeasingPlatformSimulator(tiny_generator_config(), seed=42).generate("tiny")


@pytest.fixture(scope="session")
def tiny_bn(tiny_dataset: Dataset) -> BehaviorNetwork:
    return BNBuilder(windows=FAST_WINDOWS).build(tiny_dataset.logs)


@pytest.fixture(scope="session")
def tiny_experiment(tiny_dataset: Dataset, tiny_bn: BehaviorNetwork) -> ExperimentData:
    return prepare_experiment(tiny_dataset, windows=FAST_WINDOWS, seed=0, bn=tiny_bn)


@pytest.fixture(scope="session")
def tiny_experiment_with_stats(
    tiny_dataset: Dataset, tiny_bn: BehaviorNetwork
) -> ExperimentData:
    return prepare_experiment(
        tiny_dataset, windows=FAST_WINDOWS, seed=0, bn=tiny_bn, include_stats=True
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def repro_segments() -> set[str]:
    """Names of this package's shared-memory segments currently in /dev/shm."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro-")}
    except FileNotFoundError:  # no POSIX shm: stores fall back in-process
        return set()


def assert_no_leaks(segments_before: set[str]) -> None:
    """No forked worker outlives its pool, no segment outlives its store.

    A new segment is fine while a live :class:`SharedSnapshotStore` still
    owns it (module-scoped deployments publish lazily); the scan for live
    stores only runs when a new segment shows up.
    """
    children = multiprocessing.active_children()
    assert not children, f"leaked worker processes: {children}"
    if repro_segments() - segments_before:
        owned = {
            segment
            for obj in gc.get_objects()
            if isinstance(obj, SharedSnapshotStore)
            for segment in obj.segments()
        }
        leaked = repro_segments() - segments_before - owned
        assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture(autouse=True)
def no_leaked_workers_or_segments():
    """Hygiene teardown on every test (ROADMAP item 4c)."""
    before = repro_segments()
    yield
    assert_no_leaks(before)
