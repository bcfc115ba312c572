"""Shared fixtures: a tiny deterministic dataset + derived artifacts.

Session-scoped so the expensive pieces (generation, BN build, experiment
preparation) run once for the whole suite.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

from repro.datagen import Dataset, GeneratorConfig, LeasingPlatformSimulator
from repro.eval.runner import ExperimentData, prepare_experiment
from repro.network import BehaviorNetwork, BNBuilder, FAST_WINDOWS


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


def live_threads() -> set[threading.Thread]:
    """Every live non-daemon thread other than the main thread."""
    return {
        thread
        for thread in threading.enumerate()
        if not thread.daemon and thread is not threading.main_thread()
    }


def assert_no_leaks(threads_before: set[threading.Thread] = frozenset()) -> None:
    """No forked child and no non-daemon thread outlives a test.

    A forked child left running keeps the full-graph sweep's inputs alive
    and can write to a pipe no one reads; a non-daemon thread keeps the
    interpreter from exiting and makes every later fork refuse to run.
    """
    children = multiprocessing.active_children()
    assert not children, f"leaked child processes: {children}"
    leaked = live_threads() - set(threads_before)
    assert not leaked, f"leaked threads: {sorted(t.name for t in leaked)}"


@pytest.fixture(autouse=True)
def no_leaked_processes_or_threads():
    """Hygiene teardown on every test: nothing a test starts outlives it."""
    before = live_threads()
    yield
    assert_no_leaks(before)
