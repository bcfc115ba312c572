"""Transient memory of one training step: decided by traced bytes, not a clock.

The forward of a training step records an autograd tape.  It holds only
the arrays backward reads (the operands of products, the outputs of
``tanh``/``softmax``, masks, shapes): 10.7 MiB for HAG at the deployed
shape on the tiny dataset, where holding every intermediate tensor took
23.6 MiB.  Only leaves (the parameters and the caller's inputs)
accumulate ``.grad``; the gradients in flight are the ones the
propagation still has to read, so backward's peak is a fraction of the
tape (it was the whole tape again while every node kept its gradient).

``tracemalloc`` counts the bytes numpy asks for, which does not depend on
the host: the ceiling is asserted, the figures printed.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager

import numpy as np

from repro.core import HAG
from repro.core.hag import prepare_aggregators
from repro.core.trainer import TrainConfig, train_node_classifier
from repro.eval.runner import prepare_experiment
from repro.network import FAST_WINDOWS
from repro.obs.profiling import NullProfiler


class TracedStages(NullProfiler):
    """Per training stage: the traced bytes it leaves behind (``grown``)
    and how far its peak rises above its start (``peak``)."""

    def __init__(self) -> None:
        self.grown: dict[str, int] = {}
        self.peak: dict[str, int] = {}

    @contextmanager
    def stage(self, name: str):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        yield
        current, peak = tracemalloc.get_traced_memory()
        self.grown[name] = current - start
        self.peak[name] = peak - start


def test_backward_peak_is_a_fraction_of_the_forward_tape(tiny_dataset):
    # The deployed model's shape (``deploy_turbo``), on the tiny dataset.
    data = prepare_experiment(
        tiny_dataset, windows=FAST_WINDOWS, seed=0, include_stats=True
    )
    model = HAG(
        data.features.shape[1],
        n_types=len(data.edge_types),
        rng=np.random.default_rng(0),
        hidden=(32, 16),
        att_dim=32,
        cfo_att_dim=32,
        cfo_out_dim=8,
        mlp_hidden=(16,),
    )
    aggregators = prepare_aggregators([data.adjacencies[t] for t in data.edge_types])
    stages = TracedStages()
    tracemalloc.start()
    try:
        train_node_classifier(
            model,
            lambda x: model.forward(x, aggregators),
            data.features,
            data.labels,
            data.train_idx,
            config=TrainConfig(
                epochs=1, min_epochs=1, seed=0, pos_weight=data.pos_weight()
            ),
            profiler=stages,
        )
    finally:
        tracemalloc.stop()
    tape = stages.grown["forward"]
    backward = stages.peak["backward"]
    print(
        f"\ntraining step, {len(data.edge_types)} edge types, hidden (32, 16): "
        f"forward tape {tape / 2**20:.2f} MiB, backward peak "
        f"{backward / 2**20:.2f} MiB above its start ({backward / tape:.1%} of the tape)"
    )
    assert 2**20 < tape <= 13 * 2**20
    assert backward <= 0.25 * tape
