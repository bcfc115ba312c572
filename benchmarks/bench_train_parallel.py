"""Sampled-training engine perf harness: in-process epoch + data-parallel workers.

Trains a small HAG on a dense synthetic two-type behavior graph (average
degree ≈ 15× the fanout, so the fanout selection is the dominant
per-node cost — the regime presampling exists for) and reports two
things about the one sampled epoch loop
(:func:`~repro.core.train_engine.train_parallel`):

* **in-process** — absolute wall-clock figures of the one in-process
  configuration (presampled replay, prefetched assembly, gradients in the
  parent): the once-per-run ``presample_build_s``, the ``best_epoch_s``
  and the per-stage totals.  There is nothing to take a ratio against —
  per-epoch resampling and the un-prefetched iterator are gone, and their
  parity with this path lives in ``tests/test_core/test_train_engine.py``
  — so this phase is reported, not gated.

* **parallel** — per-minibatch gradients fanned out to forked
  :class:`~repro.system.train_workers.TrainWorkerPool` workers reading
  the published shared-memory inputs, reduced by the engine's
  fixed-fold-order barrier.  The container pins the harness to one CPU,
  so multi-process wall clock would measure the scheduler, not the
  algorithm; as in ``bench_sharding`` the harness dispatches serially
  (``serialize_dispatch=True``), times each worker's busy span in-child
  and uncontended, and gates the **deployment clock**: an epoch on N
  otherwise-idle cores costs ``wall - workers_busy + workers_critical``
  (parent bookkeeping plus the slowest worker's span).  Worker counts
  {1, 2, 4} run the identical trajectory — asserted bit-equal against
  the in-process engine — so the speedup compares the same float
  trajectory, not merely similar work.

Each configuration trains ``EPOCHS`` epochs and is reported on its **best**
epoch (host-speed drift on a shared container can only slow an epoch
down, never speed it up); cyclic GC is disabled while measuring, as in
the other harnesses.

Run it either way::

    pytest -m slow benchmarks/bench_train_parallel.py
    PYTHONPATH=src python benchmarks/bench_train_parallel.py

Acceptance gates (uniform contract via ``_shared.check_gates``; both
modes exit nonzero on regression): 4-worker deployment-clock epochs ≥ 3×
single-worker; worker parity exactly 1.0 (bit-exact).

Scale knobs (environment variables): ``REPRO_BENCH_TRAIN_NODES``,
``REPRO_BENCH_TRAIN_DEGREE``, ``REPRO_BENCH_TRAIN_EPOCHS``.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import HAG, ParallelTrainConfig, train_parallel
from repro.obs.profiling import TrainProfiler

from _shared import Gate, check_gates, emit, emit_header

N_NODES = int(os.environ.get("REPRO_BENCH_TRAIN_NODES", "4000"))
AVG_DEGREE = int(os.environ.get("REPRO_BENCH_TRAIN_DEGREE", "150"))
EPOCHS = int(os.environ.get("REPRO_BENCH_TRAIN_EPOCHS", "3"))
N_TYPES = 2
FEATURE_DIM = 6
HOPS = 2
FANOUT = 10
TRAIN_FRACTION = 0.75
#: phase A (the in-process epoch) uses large batches — few,
#: assembly-heavy steps; phase B (worker fan-out) uses small batches so a
#: sync group divides evenly across 4 workers.
BATCH_A = 1024
BATCH_B = 192
SYNC_B = 16
WORKER_COUNTS = (1, 2, 4)
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_train_parallel.json"


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
    """Identically-initialized small model for every configuration."""
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


def run_config(
    problem, config: ParallelTrainConfig
) -> tuple[dict[str, np.ndarray], TrainProfiler]:
    """Train one configuration from the shared init; returns (state, profile)."""
    adjacencies, features, labels, train_idx = problem
    model = fresh_model()
    profiler = TrainProfiler()
    train_parallel(
        model,
        adjacencies,
        features,
        labels,
        train_idx,
        config=config,
        hops=HOPS,
        fanout=FANOUT,
        profiler=profiler,
    )
    return model.state_dict(), profiler


def states_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(a[key], b[key]) for key in a
    )


def profile_row(profiler: TrainProfiler) -> dict:
    """Best epoch wall + deployment clock + per-stage totals for the report."""
    deploys = [
        p.seconds
        - p.stages.get("workers_busy", 0.0)
        + p.stages.get("workers_critical", 0.0)
        for p in profiler.epochs
    ]
    return {
        "epochs": len(profiler.epochs),
        "best_epoch_s": min(p.seconds for p in profiler.epochs),
        "best_deploy_s": min(deploys),
        "epoch_s": [p.seconds for p in profiler.epochs],
        "deploy_s": deploys,
        "stage_totals_s": profiler.stage_totals(),
    }


def run_harness(result_path: Path = RESULT_PATH) -> dict:
    emit_header(
        f"Parallel training perf harness — {N_NODES:,} nodes × {N_TYPES} types, "
        f"avg degree {AVG_DEGREE}, fanout {FANOUT}, hops {HOPS}, "
        f"{EPOCHS} epochs/config, workers {WORKER_COUNTS}"
    )
    problem = build_problem()
    emit(
        f"train split: {len(problem[3]):,} seeds  "
        f"(phase A batches of {BATCH_A}, phase B batches of {BATCH_B} "
        f"in sync groups of {SYNC_B})"
    )

    config_a = ParallelTrainConfig(
        epochs=EPOCHS, batch_size=BATCH_A, min_epochs=1, patience=EPOCHS + 1
    )

    def config_b(**overrides) -> ParallelTrainConfig:
        base = dict(
            epochs=EPOCHS,
            batch_size=BATCH_B,
            sync_batches=SYNC_B,
            min_epochs=1,
            patience=EPOCHS + 1,
            serialize_dispatch=True,
        )
        base.update(overrides)
        return ParallelTrainConfig(**base)

    # GC off while measuring (the other harnesses' convention): a gen-2
    # pass over the CSR-heavy heap lands in whichever epoch is running.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        # Phase A — the in-process epoch, absolute figures.
        started = time.perf_counter()
        _, inproc_prof = run_config(problem, config_a)
        emit(f"phase A (in-process) measured in {time.perf_counter() - started:.1f}s")

        # Phase B — worker fan-out under the deployment clock, anchored
        # on an in-process run of the identical configuration.
        started = time.perf_counter()
        anchor_state, anchor_prof = run_config(problem, config_b(workers=0))
        pooled: dict[int, tuple[dict, TrainProfiler]] = {}
        for workers in WORKER_COUNTS:
            pooled[workers] = run_config(problem, config_b(workers=workers))
        emit(f"phase B (workers) measured in {time.perf_counter() - started:.1f}s")
    finally:
        if gc_was_enabled:
            gc.enable()

    # Parity before any gate: every worker count must have walked the
    # exact same float trajectory as the in-process anchor.
    parallel_parity = all(
        states_equal(anchor_state, state) for state, _ in pooled.values()
    )
    emit(f"parity: parallel={'bit-exact' if parallel_parity else 'DIVERGED'}")

    row_a = profile_row(inproc_prof)
    presample_build_s = inproc_prof.run_stages.get("presample", 0.0)
    stages = row_a["stage_totals_s"]
    emit(
        f"A in-process  best epoch {row_a['best_epoch_s']:.3f}s  "
        f"(sampling {stages.get('sampling', 0.0):.3f}s, "
        f"induction {stages.get('induction', 0.0):.3f}s, "
        f"prefetch wait {stages.get('prefetch', 0.0):.3f}s)  "
        f"presample build {presample_build_s:.3f}s (once per run)"
    )

    rows_b = {0: profile_row(anchor_prof)}
    for workers, (_, prof) in pooled.items():
        rows_b[workers] = profile_row(prof)
    base_deploy = rows_b[WORKER_COUNTS[0]]["best_deploy_s"]
    for workers in (0, *WORKER_COUNTS):
        row = rows_b[workers]
        row["speedup"] = (
            base_deploy / row["best_deploy_s"] if workers else 1.0
        )
        stages = row["stage_totals_s"]
        emit(
            f"B workers={workers}  deploy {row['best_deploy_s']:.3f}s"
            + (
                f"  (wall {row['best_epoch_s']:.3f}s, busy "
                f"{stages.get('workers_busy', 0.0):.3f}s, critical "
                f"{stages.get('workers_critical', 0.0):.3f}s)  "
                f"speedup {row['speedup']:.2f}x"
                if workers
                else "  (in-process parity anchor)"
            )
        )
    parallel_speedup_4w = rows_b[4]["speedup"] if 4 in rows_b else 0.0

    result = {
        "n_nodes": N_NODES,
        "n_types": N_TYPES,
        "avg_degree": AVG_DEGREE,
        "feature_dim": FEATURE_DIM,
        "hops": HOPS,
        "fanout": FANOUT,
        "epochs_per_config": EPOCHS,
        "batch_size_inprocess": BATCH_A,
        "batch_size_parallel": BATCH_B,
        "sync_batches_parallel": SYNC_B,
        "worker_counts": list(WORKER_COUNTS),
        "presample_build_s": presample_build_s,
        "inprocess_phase": row_a,
        "parallel_phase": {str(k): v for k, v in rows_b.items()},
    }
    gates = [
        Gate("parallel_epoch_speedup_4w", parallel_speedup_4w, 3.0),
        Gate("parallel_parity", 1.0 if parallel_parity else 0.0, 1.0),
    ]
    check_gates(gates, result, result_path)
    return result


@pytest.mark.slow
@pytest.mark.train_parallel
def test_train_parallel_perf():
    result = run_harness()
    assert result["gates_met"], (
        "parallel training perf gates failed — see gate lines above "
        f"(gates: {result['gates']})"
    )


if __name__ == "__main__":
    outcome = run_harness()
    if not outcome["gates_met"]:
        emit("FAIL: parallel training perf gates not met")
        sys.exit(1)
    emit("OK")
