"""Full-graph lambda materialization perf harness: the sweep that scales.

Scales the lambda batch tier to shard-relevant size (default 120 000 users,
600 000 edge contributions streamed chunk-by-chunk via
:mod:`repro.datagen.scale`, never materialized) and measures the one
materializer (:func:`~repro.core.lambda_infer.materialize`) end to end.
Four sections, written to ``BENCH_lambda_fullgraph.json`` in the
repository root:

* ``fullgraph_sweep`` — the read index and its neighbour selection for
  the sweep's fanout (``bn.index().selection(FANOUT)``, timed as
  ``selection_s``) plus one full pass (no prior) over every covered user
  (the gated configuration must cover ≥ 100 000 users).  The headline
  figures are absolute: ``single_process_s`` (selection + the whole pass
  on one core) and ``rows_per_s``.  The sweep's scoring slices are
  executed one by one and timed individually — exactly the work one
  forked child of :func:`~repro.system.fork_map` runs — and combined as
  the *modeled* **deployment clock** ``deploy_s``: ``selection +
  max(slice) + serial assemble`` (``assemble_s``: the pass outside its
  scoring slices — sorting the targets and splicing the slices' scores
  and subgraph rows into one state), what 4
  otherwise-idle cores would execute.  It is a model, not a wall-clock figure: the measured
  2-process wall speedup is in ``docs/PERFORMANCE.md``.  The
  ``pool_sweep`` section proves the real forked path bit-exact;
* ``state_parity`` — a uniform target sample scored by the serving path
  (:func:`~repro.network.sampling.computation_subgraphs_batch` +
  :meth:`~repro.core.hag.HAG.predict_subgraph`, one target at a time): the
  big sweep's scores and subgraph rows for those targets must be
  **byte-identical** (chunk/slice invariance at scale);
* ``pool_sweep`` — the same sweep forked into 8 slices
  (``executor=fork_map``; each child inherits the sweep's inputs by fork):
  byte-identical to the in-process sweep;
* ``incremental_refresh`` — a small random delta batch, then the same
  function with the big sweep's state as its prior: every state array
  must be byte-equal a fresh full pass while only the affected cone
  is recomputed (``incremental_s`` against ``fresh_fullpass_s``).

Run it either way::

    pytest -m slow benchmarks/bench_lambda_fullgraph.py          # slow test
    PYTHONPATH=src python benchmarks/bench_lambda_fullgraph.py   # script

Acceptance gates (uniform contract via ``_shared.check_gates``; both modes
exit nonzero when a gate regresses):

* covered users ≥ 100 000 (``covered_scale`` = covered / 100 000 ≥ 1);
* sweep-vs-scalar-path state parity == 1.0 (bit-for-bit);
* forked sweep parity == 1.0 (bit-for-bit);
* incremental work reduction ≥ 10× (covered rows / recomputed rows on the
  small delta);
* incremental parity == 1.0 (every state array byte-equal the fresh full
  pass).

Scale knobs (environment variables): ``REPRO_BENCH_LFG_USERS``,
``REPRO_BENCH_LFG_EDGES``, ``REPRO_BENCH_LFG_CHUNK``,
``REPRO_BENCH_LFG_REPLAY_SAMPLE``, ``REPRO_BENCH_LFG_POOL_TARGETS``,
``REPRO_BENCH_LFG_DELTA_EDGES``.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import HAG, materialize
from repro.datagen import ScaleConfig, edge_stream
from repro.features.pipeline import StandardScaler
from repro.network import BehaviorNetwork
from repro.network.sampling import computation_subgraphs_batch
from repro.system import fork_map

from _shared import Gate, check_gates, emit, emit_header

N_USERS = int(os.environ.get("REPRO_BENCH_LFG_USERS", "120000"))
N_EDGES = int(os.environ.get("REPRO_BENCH_LFG_EDGES", "600000"))
CHUNK_EDGES = int(os.environ.get("REPRO_BENCH_LFG_CHUNK", "200000"))
REPLAY_SAMPLE = int(os.environ.get("REPRO_BENCH_LFG_REPLAY_SAMPLE", "1024"))
POOL_TARGETS = int(os.environ.get("REPRO_BENCH_LFG_POOL_TARGETS", "2048"))
DELTA_EDGES = int(os.environ.get("REPRO_BENCH_LFG_DELTA_EDGES", "8"))
HOPS = 2
FANOUT = 10
FEATURE_DIM = 6
POOL_WORKERS = 4
POOL_SLICES = 8
#: the sweep must cover at least this many users for the gated run
COVERAGE_FLOOR = 100_000
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_lambda_fullgraph.json"


def workload_config() -> ScaleConfig:
    """The streamed workload under test (chunked, never materialized)."""
    return ScaleConfig(n_users=N_USERS, n_edges=N_EDGES, chunk_edges=CHUNK_EDGES)


def feature_matrix(config: ScaleConfig) -> np.ndarray:
    """Deterministic uid-indexed feature rows for the sweep."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 99]))
    return rng.standard_normal((config.n_users, FEATURE_DIM))


def model_bundle(config: ScaleConfig, features: np.ndarray) -> dict:
    """A seeded HAG + fitted scaler (inference cost equals a trained one)."""
    model = HAG(
        FEATURE_DIM,
        n_types=len(config.edge_types),
        rng=np.random.default_rng(0),
        hidden=(16, 8),
        att_dim=8,
        cfo_att_dim=8,
        cfo_out_dim=4,
        mlp_hidden=(8,),
    )
    scaler = StandardScaler().fit(features[: min(len(features), 50_000)])
    return {
        "model": model,
        "scaler": scaler,
        "edge_type_order": list(config.edge_types),
    }


def ingest(config: ScaleConfig) -> BehaviorNetwork:
    """Stream the workload into one BN."""
    bn = BehaviorNetwork()
    for chunk in edge_stream(config):
        bn.add_weights(
            chunk.lo,
            chunk.hi,
            chunk.codes,
            chunk.weights,
            chunk.timestamp,
            btype_table=config.edge_types,
        )
    return bn


class Sweep:
    """Everything one materialization call needs, bundled once."""

    def __init__(self, bn, config, bundle, features):
        self.bn = bn
        self.config = config
        self.model = bundle["model"]
        self.scaler = bundle["scaler"]
        self.types = bundle["edge_type_order"]
        self.features = features
        self.now = (config.span_days + 1.0) * 86_400.0

    def feature_fn(self, _k, nodes):
        return self.features[np.asarray(nodes, dtype=np.int64)]

    def ids(self, targets) -> tuple[list[int], list[int], list[float]]:
        targets = [int(t) for t in targets]
        return targets, [7 * t + 1 for t in targets], [self.now] * len(targets)

    def materialize(self, targets, **kwargs):
        """One pass over ``targets``: full by default, a cone refresh when
        ``prior`` / ``touched`` are passed."""
        uids, txn_ids, nows = self.ids(targets)
        return materialize(
            self.model, self.bn, uids, txn_ids, nows, self.feature_fn,
            hops=HOPS, fanout=FANOUT, edge_type_order=self.types,
            transform=self.scaler.transform,
            **kwargs,
        )


def timed_slice_executor(slice_s: list[float]):
    """Run each scoring slice in-process, timed individually.

    Executes exactly the work one forked child of :func:`fork_map` runs
    (the same ``score`` closure), appending each slice's seconds to
    ``slice_s`` so the harness can combine them as the modeled deployment
    clock (``max`` over slices = concurrent processes on otherwise-idle
    cores).
    """

    def executor(score, bounds):
        out = []
        for bound in bounds:
            start = time.perf_counter()
            out.append(score(bound))
            slice_s.append(time.perf_counter() - start)
        return out

    return executor


def state_mismatches(got, want) -> list[str]:
    """Names of HAGState arrays that are not byte-identical."""
    got_arrays, want_arrays = got.to_arrays(), want.to_arrays()
    if got_arrays.keys() != want_arrays.keys():
        return ["<array-set>"]
    return [
        name
        for name in want_arrays
        if got_arrays[name].tobytes() != want_arrays[name].tobytes()
    ]


def bench_state_parity(sweep: Sweep, big_state, targets) -> dict:
    """The big sweep's rows against the serving path, bit for bit."""
    rng = np.random.default_rng(np.random.SeedSequence([sweep.config.seed, 7]))
    sample = np.sort(
        rng.choice(targets, size=min(REPLAY_SAMPLE, len(targets)), replace=False)
    )
    mismatched = []
    for uid, row in zip(sample, np.searchsorted(big_state.node_ids, sample)):
        (subgraph,), _stats = computation_subgraphs_batch(
            sweep.bn.index(), [int(uid)], hops=HOPS, fanout=FANOUT
        )
        score = sweep.model.predict_subgraph(
            subgraph,
            sweep.scaler.transform(sweep.feature_fn(None, subgraph.nodes)),
            edge_type_order=sweep.types,
        )
        if big_state.scores[row] != score:
            mismatched.append(f"score of uid {uid}")
        if big_state.subgraph_of(row).tolist() != list(subgraph.nodes):
            mismatched.append(f"subgraph row of uid {uid}")
    return {
        "sample": int(len(sample)),
        "mismatched_arrays": mismatched[:8],
        "parity": 1.0 if not mismatched else 0.0,
    }


def bench_pool_sweep(sweep: Sweep, targets) -> dict:
    """Fork the sweep's slices into real processes; byte-equal in-process."""
    rng = np.random.default_rng(np.random.SeedSequence([sweep.config.seed, 13]))
    pool_targets = np.sort(
        rng.choice(targets, size=min(POOL_TARGETS, len(targets)), replace=False)
    )

    reference, reference_stats, _ = sweep.materialize(pool_targets)
    start = time.perf_counter()
    pooled, pooled_stats, mstats = sweep.materialize(
        pool_targets, executor=fork_map, slices=POOL_SLICES
    )
    pool_s = time.perf_counter() - start

    mismatched = state_mismatches(pooled, reference)
    assert pooled_stats == reference_stats, "pool sweep stats diverged"
    return {
        "targets": int(len(pool_targets)),
        "slices": mstats.slices,
        "pool_sweep_s": pool_s,
        "mismatched_arrays": mismatched,
        "parity": 1.0 if not mismatched else 0.0,
    }


def bench_incremental(sweep: Sweep, prior, targets) -> dict:
    """A small delta, then the incremental cone vs a fresh full pass."""
    config = sweep.config
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 21]))
    touched: dict[int, int] = {}
    delta_ts = (config.span_days + 0.5) * 86_400.0
    for _ in range(DELTA_EDGES):
        u = int(rng.integers(0, config.n_users))
        v = int(rng.integers(0, config.n_users - 1))
        v = v + 1 if v >= u else v
        btype = config.edge_types[int(rng.integers(0, len(config.edge_types)))]
        sweep.bn.add_weight(u, v, btype, float(rng.uniform(0.5, 2.0)), delta_ts)
        touched[u] = touched.get(u, 0) + 1
        touched[v] = touched.get(v, 0) + 1

    start = time.perf_counter()
    fresh, _, _ = sweep.materialize(targets)
    fresh_s = time.perf_counter() - start

    start = time.perf_counter()
    state, _, mstats = sweep.materialize(targets, prior=prior, touched=touched)
    incremental_s = time.perf_counter() - start

    mismatched = state_mismatches(state, fresh)
    work_reduction = mstats.total_rows / max(1, mstats.rows_computed)
    return {
        "delta_edges": DELTA_EDGES,
        "touched_uids": len(touched),
        "rows_computed": mstats.rows_computed,
        "total_rows": mstats.total_rows,
        "fresh_fullpass_s": fresh_s,
        "incremental_s": incremental_s,
        "time_reduction": fresh_s / max(1e-9, incremental_s),
        "work_reduction": work_reduction,
        "mismatched_arrays": mismatched,
        "parity": 1.0 if not mismatched else 0.0,
    }


def run_harness(result_path: Path = RESULT_PATH) -> dict:
    config = workload_config()
    emit_header(
        f"lambda full-graph materialization — {config.n_users:,} users, "
        f"{config.n_edges:,} edge contributions, hops={HOPS} fanout={FANOUT}"
    )
    features = feature_matrix(config)
    bundle = model_bundle(config, features)

    ingest_start = time.perf_counter()
    bn = ingest(config)
    emit(
        f"ingested {config.n_edges:,} contributions in "
        f"{time.perf_counter() - ingest_start:.1f}s"
    )
    sweep = Sweep(bn, config, bundle, features)
    targets = np.asarray(sorted(bn.nodes()), dtype=np.int64)
    covered = int(len(targets))

    # Cyclic GC off while measuring (timeit-style): the heap is acyclic,
    # refcounting reclaims everything.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        bn.index().selection(FANOUT)
        selection_s = time.perf_counter() - start
        slice_s: list[float] = []
        start = time.perf_counter()
        big_state, _, big_mstats = sweep.materialize(
            targets,
            executor=timed_slice_executor(slice_s),
            slices=POOL_WORKERS,
        )
        wall_s = time.perf_counter() - start
        # Modeled deployment clock: the 4 slices run concurrently on 4 cores
        # (bit-exactness of the forked path is pinned by pool_sweep); the
        # selection and the assemble (the splice) stay serial.
        assemble_s = max(0.0, wall_s - sum(slice_s))
        deploy_s = selection_s + max(slice_s) + assemble_s
        single_s = selection_s + wall_s

        sections = {
            "fullgraph_sweep": {
                "covered_users": covered,
                "selection_s": selection_s,
                "slice_s": slice_s,
                "assemble_s": assemble_s,
                "deploy_s": deploy_s,
                "single_process_s": single_s,
                "rows": big_mstats.rows_computed,
                "edges_touched": big_mstats.edges_touched,
                "rows_per_s": big_mstats.rows_computed / wall_s,
            }
        }
        emit(
            f"full sweep     {covered:,} users in {deploy_s:.1f}s modeled deploy "
            f"({single_s:.1f}s single-process, {selection_s:.1f}s index and "
            f"selection, {len(slice_s)} slices, "
            f"{sections['fullgraph_sweep']['rows_per_s']:,.0f} rows/s, "
            f"{big_mstats.edges_touched:,} induced entries)"
        )

        sections["state_parity"] = bench_state_parity(sweep, big_state, targets)
        emit(
            "parity         {sample} sampled targets vs the scalar serving "
            "path: {verdict}".format(
                sample=sections["state_parity"]["sample"],
                verdict=(
                    "bit-exact"
                    if sections["state_parity"]["parity"] == 1.0
                    else sections["state_parity"]["mismatched_arrays"]
                ),
            )
        )

        sections["pool_sweep"] = bench_pool_sweep(sweep, targets)
        emit(
            "pool sweep     {targets} targets forked into {slices} slices "
            "({pool_sweep_s:.1f}s) — "
            "{verdict}".format(
                verdict=(
                    "bit-exact"
                    if sections["pool_sweep"]["parity"] == 1.0
                    else sections["pool_sweep"]["mismatched_arrays"]
                ),
                **{
                    k: sections["pool_sweep"][k]
                    for k in ("targets", "slices", "pool_sweep_s")
                },
            )
        )
        sections["incremental_refresh"] = bench_incremental(
            sweep, big_state, targets
        )
        emit(
            "incremental    {delta_edges} delta edges ({touched_uids} uids) -> "
            "{rows_computed}/{total_rows} rows recomputed "
            "({work_reduction:.0f}x less work, {time_reduction:.0f}x faster, "
            "{incremental_s:.2f}s vs {fresh_fullpass_s:.1f}s)".format(
                **sections["incremental_refresh"]
            )
        )
    finally:
        if gc_was_enabled:
            gc.enable()

    result = {
        "n_users": config.n_users,
        "n_edges": config.n_edges,
        "hops": HOPS,
        "fanout": FANOUT,
        "coverage_floor": COVERAGE_FLOOR,
        "sections": sections,
    }
    gates = [
        Gate("covered_scale", covered / COVERAGE_FLOOR, 1.0),
        Gate("state_parity", sections["state_parity"]["parity"], 1.0),
        Gate("pool_sweep_parity", sections["pool_sweep"]["parity"], 1.0),
        Gate(
            "incremental_work_reduction",
            sections["incremental_refresh"]["work_reduction"],
            10.0,
        ),
        Gate(
            "incremental_parity", sections["incremental_refresh"]["parity"], 1.0
        ),
    ]
    check_gates(gates, result, result_path)
    return result


@pytest.mark.slow
@pytest.mark.sharding
def test_lambda_fullgraph_perf():
    result = run_harness()
    assert result["gates_met"], (
        "lambda full-graph gates failed — see gate lines above "
        f"(gates: {result['gates']})"
    )


if __name__ == "__main__":
    outcome = run_harness()
    if not outcome["gates_met"]:
        emit("FAIL: lambda full-graph gates not met")
        sys.exit(1)
    emit("OK")
