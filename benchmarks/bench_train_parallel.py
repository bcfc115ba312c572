"""Sampled-training engine: the in-process epoch, in absolute wall-clock terms.

Trains a small HAG on a dense synthetic two-type behavior graph (average
degree ≈ 15× the fanout, so the fanout selection is the dominant
per-node cost — the regime presampling exists for) through the one
sampled epoch loop (:func:`~repro.core.train_engine.train_parallel`:
presampled replay, prefetched assembly, one step per batch) and reports
the once-per-run ``presample_build_s``, the ``best_epoch_s`` and the
per-stage totals.

This is the repository's only training wall-clock figure until the
pinned benchmark (``BENCHMARK.json``) gains a training workload, so it is
kept — reported, not gated, and not written to a ``BENCH_*.json``: there
is nothing to take a ratio against, and the parity this loop once gated
lives in ``tests/test_core/test_train_engine.py``.

Each run trains ``EPOCHS`` epochs and is reported on its **best** epoch
(host-speed drift on a shared machine can only slow an epoch down, never
speed it up); cyclic GC is disabled while measuring, as in the other
harnesses.

Run it either way::

    pytest -m slow benchmarks/bench_train_parallel.py
    PYTHONPATH=src python benchmarks/bench_train_parallel.py

Scale knobs (environment variables): ``REPRO_BENCH_TRAIN_NODES``,
``REPRO_BENCH_TRAIN_DEGREE``, ``REPRO_BENCH_TRAIN_EPOCHS``.
"""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import HAG, TrainConfig, train_parallel
from repro.obs.profiling import TrainProfiler

from _shared import emit, emit_header

N_NODES = int(os.environ.get("REPRO_BENCH_TRAIN_NODES", "4000"))
AVG_DEGREE = int(os.environ.get("REPRO_BENCH_TRAIN_DEGREE", "150"))
EPOCHS = int(os.environ.get("REPRO_BENCH_TRAIN_EPOCHS", "3"))
N_TYPES = 2
FEATURE_DIM = 6
HOPS = 2
FANOUT = 10
TRAIN_FRACTION = 0.75
#: large batches: few, assembly-heavy steps.
BATCH = 1024


def build_problem() -> tuple[list[sp.csr_matrix], np.ndarray, np.ndarray, np.ndarray]:
    """A dense two-type graph + features + labels + train split."""
    rng = np.random.default_rng(0)
    adjacencies = []
    for _ in range(N_TYPES):
        m = N_NODES * AVG_DEGREE
        rows = rng.integers(0, N_NODES, size=m)
        cols = rng.integers(0, N_NODES, size=m)
        weights = rng.random(m) + 0.01
        a = sp.coo_matrix(
            (weights, (rows, cols)), shape=(N_NODES, N_NODES)
        ).tocsr()
        a.sum_duplicates()
        adjacencies.append(a)
    features = rng.normal(size=(N_NODES, FEATURE_DIM))
    labels = (rng.random(N_NODES) < 0.3).astype(np.float64)
    train_idx = np.random.default_rng(1).permutation(N_NODES)[
        : int(TRAIN_FRACTION * N_NODES)
    ]
    return adjacencies, features, labels, train_idx


def fresh_model() -> HAG:
    """The small model every run starts from."""
    return HAG(
        FEATURE_DIM,
        N_TYPES,
        np.random.default_rng(1),
        hidden=(4,),
        att_dim=4,
        cfo_att_dim=4,
        cfo_out_dim=2,
        mlp_hidden=(4,),
        use_sao=False,
    )


def run_harness() -> dict:
    emit_header(
        f"Sampled training epoch — {N_NODES:,} nodes × {N_TYPES} types, "
        f"avg degree {AVG_DEGREE}, fanout {FANOUT}, hops {HOPS}, "
        f"batch {BATCH}, {EPOCHS} epochs"
    )
    adjacencies, features, labels, train_idx = build_problem()
    config = TrainConfig(
        epochs=EPOCHS, batch_size=BATCH, min_epochs=1, patience=EPOCHS + 1
    )
    profiler = TrainProfiler()
    # GC off while measuring (the other harnesses' convention): a gen-2
    # pass over the CSR-heavy heap lands in whichever epoch is running.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        train_parallel(
            fresh_model(), adjacencies, features, labels, train_idx,
            config=config, hops=HOPS, fanout=FANOUT, profiler=profiler,
        )
    finally:
        if gc_was_enabled:
            gc.enable()

    stages = profiler.stage_totals()
    result = {
        "presample_build_s": profiler.run_stages.get("presample", 0.0),
        "best_epoch_s": min(p.seconds for p in profiler.epochs),
        "epoch_s": [p.seconds for p in profiler.epochs],
        "stage_totals_s": stages,
    }
    emit(
        f"train split {len(train_idx):,} seeds  best epoch "
        f"{result['best_epoch_s']:.3f}s  (sampling {stages.get('sampling', 0.0):.3f}s, "
        f"induction {stages.get('induction', 0.0):.3f}s, "
        f"prefetch wait {stages.get('prefetch', 0.0):.3f}s)  "
        f"presample build {result['presample_build_s']:.3f}s (once per run)"
    )
    return result


@pytest.mark.slow
@pytest.mark.train_parallel
def test_train_parallel_perf():
    result = run_harness()
    assert len(result["epoch_s"]) == EPOCHS


if __name__ == "__main__":
    run_harness()
