"""Batched serving perf harness: coalesced end-to-end micro-batching.

Times the batched serving pipeline (``Turbo.predict_batch`` — union-frontier
sampling, columnar feature assembly, packed HAG forward) against sequential
``Turbo.predict`` calls on the same deployment, and writes the results to
``BENCH_serving_batch.json`` in the repository root.  Three sections:

* ``end_to_end`` — serving the request stream in micro-batches of
  :data:`BATCH_SIZE` vs one request at a time, on two time bases: the
  **deployment clock** (the simulated time base every latency number in
  this repo lives on — a micro-batch completes at its critical path, the
  scalar server at the sum of its sequential totals), which carries the
  headline throughput gate, and **wall clock** (the Python compute cost of
  the pass), which carries a separate compute gate.  The responses must be
  **bit-for-bit identical** (probabilities, decisions, degradation tags)
  before anything is timed, every batched request must close a traced root
  span, and the per-request stage spans must reconcile with the
  ``LatencyBreakdown`` slots exactly;
* ``feature_assembly`` — the feature module alone: ``features_for_batch``
  vs a ``features_for`` loop on ring-heavy (strongly overlapping) node
  lists, with bit-exact matrix parity asserted first;
* ``scalar_path`` — the scalar path itself against its pinned reference
  (slice-materializing history counting vs the bisect fix): the batched PR
  must not have made the unbatched path slower.

The scalar side of the ``end_to_end`` and ``feature_assembly`` wall-clock
ratios is the **pinned pre-store path**: the feature server's context-row
store is dropped before each of its requests, so every node goes through
``FeatureManager.vector`` as it did when the floors were set and the ratios
keep guarding the batched side.  The live scalar path's wall time is
``scalar_path.vectorized_s``.

The workload is ring-heavy by construction: targets are drawn from the
highest-degree BN nodes, so their 2-hop neighbourhoods overlap heavily —
the regime the deposit-free leasing fraud rings create and the one
coalescing exploits.

Run it either way::

    pytest -m slow benchmarks/bench_serving_batch.py          # as a slow test
    PYTHONPATH=src python benchmarks/bench_serving_batch.py   # as a script

Acceptance gates (uniform contract via ``_shared.check_gates``; both modes
exit nonzero when a gate regresses):

* batched serving throughput ≥ 4× scalar at batch 32, measured in requests
  per simulated second on the deployment clock;
* batched end-to-end compute ≥ 2× scalar on wall clock (bit-exactness pins
  inference to per-request GEMM blocks, which bounds the raw compute win
  well below the system-level one — see docs/PERFORMANCE.md);
* coalesced feature assembly ≥ 5× the scalar loop on ring-heavy lists
  (wall clock);
* the scalar path not slower than its pinned reference (≥ 0.90× on the
  best of three interleaved rounds — identical passes swing ±15% under
  background load, so the tolerance covers the measured noise floor).

Scale knobs (environment variables):

* ``REPRO_BENCH_SERVING_REQUESTS`` — served requests (default 64);
* ``REPRO_BENCH_SERVING_BATCH`` — micro-batch size (default 32).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.obs import assert_all_traced
from repro.system import PredictRequest, TurboConfig, deploy_turbo

from _shared import WINDOWS, Gate, check_gates, d1_dataset, emit, emit_header

N_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVING_REQUESTS", "64"))
BATCH_SIZE = int(os.environ.get("REPRO_BENCH_SERVING_BATCH", "32"))
TRAIN_EPOCHS = 20
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving_batch.json"


def deploy():
    dataset = d1_dataset()
    turbo, _data = deploy_turbo(
        dataset,
        TurboConfig(
            windows=WINDOWS, train_epochs=TRAIN_EPOCHS, hidden=(32, 16), seed=0
        ),
    )
    return turbo


def ring_heavy_requests(turbo, count: int) -> list[PredictRequest]:
    """Requests from one dense BN neighbourhood — a fraud-ring burst.

    Seeds at the highest-degree user and greedily adds the candidate whose
    sampled frontier overlaps the cluster union most, which is the traffic
    shape rings produce (many users sharing devices/IPs arriving together)
    and the regime the coalesced batch path is built for.  Selection reads
    the BN directly (no serving state touched) and is fully deterministic.
    """
    from repro.network import computation_subgraphs_batch

    latest = {
        t.uid: t for t in turbo.feature_server.feature_manager.latest_transactions()
    }
    candidates = sorted(
        latest, key=lambda uid: turbo.bn_server.bn.degree(uid), reverse=True
    )
    subgraphs, _stats = computation_subgraphs_batch(
        turbo.bn_server.bn.index(),
        candidates,
        hops=turbo.hops,
        fanout=turbo.fanout,
        allowed=turbo.allowed_nodes,
    )
    node_sets = {uid: set(sg.nodes) for uid, sg in zip(candidates, subgraphs)}
    rank = {uid: i for i, uid in enumerate(candidates)}
    picked = [candidates[0]]
    union = set(node_sets[picked[0]])
    remaining = candidates[1:]
    while remaining and len(picked) < count:
        best = max(remaining, key=lambda uid: (len(node_sets[uid] & union), -rank[uid]))
        picked.append(best)
        union |= node_sets[best]
        remaining.remove(best)
    uids = (picked * (count // max(1, len(picked)) + 1))[:count]
    return [PredictRequest(txn=latest[uid], now=latest[uid].audit_at) for uid in uids]


def serve_scalar(turbo, requests) -> list:
    return [turbo.predict(r) for r in requests]


def serve_scalar_recompute(turbo, requests) -> list:
    """Pinned pre-store scalar serving: context rows recomputed per request.

    Dropping the store moves wall time only — scalar charges never read it.
    """
    responses = []
    for request in requests:
        turbo.feature_server._row_cache.clear()
        responses.append(turbo.predict(request))
    return responses


def serve_batched(turbo, requests) -> list:
    responses = []
    for k in range(0, len(requests), BATCH_SIZE):
        responses.extend(turbo.predict_batch(requests[k : k + BATCH_SIZE]))
    return responses


def assert_bit_exact(batched, scalar, what: str) -> None:
    assert len(batched) == len(scalar), f"{what}: response counts differ"
    for b, s in zip(batched, scalar):
        assert b.probability == s.probability, f"{what}: probabilities diverged"
        assert b.blocked == s.blocked, f"{what}: decisions diverged"
        assert b.degradation == s.degradation, f"{what}: degradation tags diverged"
        assert (
            b.degradation_reason == s.degradation_reason
        ), f"{what}: degradation reasons diverged"


def assert_spans_reconcile(responses) -> None:
    assert_all_traced(responses)
    for response in responses:
        by_name = {child.name: child for child in response.span.children}
        breakdown = response.breakdown
        assert by_name["bn_sample"].duration == breakdown.sampling
        assert by_name["feature_fetch"].duration == breakdown.features
        assert by_name["inference"].duration == breakdown.prediction
        assert response.span.duration == breakdown.total


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def bench_scalar_path(turbo, requests) -> dict:
    """The unbatched path vs its pinned reference history counting.

    Both variants run the same end-to-end pipeline except for how the
    feature server counts a user's history (pinned slice-materializing
    reference vs the bisect fix), so their wall times differ by a few
    percent at most.  The rounds are interleaved and the best of three is
    kept for each variant — identical passes here swing ±15% under
    background load, so a single ref/vec ordering lets a load spike on one
    half masquerade as a regression.
    """
    server = turbo.feature_server
    ref_times: list[float] = []
    vec_times: list[float] = []
    scalar: list = []
    for _ in range(3):
        server._count_logs = server._count_logs_reference  # pinned pre-fix counting
        try:
            start = time.perf_counter()
            reference = serve_scalar(turbo, requests)
            ref_times.append(time.perf_counter() - start)
        finally:
            del server._count_logs  # restore the bisect-counting method
        start = time.perf_counter()
        scalar = serve_scalar(turbo, requests)
        vec_times.append(time.perf_counter() - start)
        assert_bit_exact(scalar, reference, "scalar_path")
    ref_s, vec_s = min(ref_times), min(vec_times)
    return {
        "requests": len(requests),
        "reference_s": ref_s,
        "vectorized_s": vec_s,
        "speedup": ref_s / vec_s,
        "scalar_responses": scalar,
    }


def bench_end_to_end(turbo, requests, scalar_responses) -> dict:
    """Micro-batched serving vs the sequential pass, same deployment.

    Two time bases:

    * the **deployment clock** (``turbo.clock``) — the simulated time base
      the repo's latency economics live on (``LatencyModel`` charges, the
      Fig 8 response times).  ``predict_batch`` advances it by each batch's
      critical path — the slowest request's charged total, with shared
      charges paid once by their first toucher — while scalar serving
      advances it by every request's full total in sequence.  Requests per
      simulated second is the serving throughput of the modeled system and
      carries the headline ≥4x gate;
    * **wall clock** — the Python compute cost of the pass.  Bit-exact
      parity requires per-request GEMM blocks in the packed forward, so the
      shared matrix compute is irreducible and the wall win is structurally
      far smaller than the system-level one; its ≥2x gate guards the real
      CPU cost against regressions.
    """
    sim_start = turbo.clock.now()
    start = time.perf_counter()
    batched = serve_batched(turbo, requests)
    batched_s = time.perf_counter() - start
    batched_sim_s = turbo.clock.now() - sim_start
    assert_bit_exact(batched, scalar_responses, "end_to_end")
    assert all(r.degradation == "full" for r in batched), "healthy run degraded"
    assert_spans_reconcile(batched)

    sim_start = turbo.clock.now()
    start = time.perf_counter()
    scalar = serve_scalar_recompute(turbo, requests)
    scalar_s = time.perf_counter() - start
    scalar_sim_s = turbo.clock.now() - sim_start
    assert_bit_exact(batched, scalar, "end_to_end rerun")

    snapshot = turbo.metrics.snapshot()
    coalescing = snapshot["histograms"]["turbo.batch.coalescing"]["mean"]
    feature_coalescing = snapshot["histograms"]["turbo.batch.feature_coalescing"][
        "mean"
    ]
    n = len(requests)
    return {
        "requests": n,
        "batch_size": BATCH_SIZE,
        "scalar_sim_s": scalar_sim_s,
        "batched_sim_s": batched_sim_s,
        "scalar_req_per_sim_s": n / scalar_sim_s,
        "batched_req_per_sim_s": n / batched_sim_s,
        "throughput_speedup": scalar_sim_s / batched_sim_s,
        "reference_s": scalar_s,
        "vectorized_s": batched_s,
        "compute_speedup": scalar_s / batched_s,
        "sample_coalescing": coalescing,
        "feature_coalescing": feature_coalescing,
        "charged_total_ms_scalar": 1000.0
        * float(np.mean([r.breakdown.total for r in scalar])),
        "charged_total_ms_batched": 1000.0
        * float(np.mean([r.breakdown.total for r in batched])),
    }


def bench_feature_assembly(turbo, requests) -> dict:
    """Columnar ``features_for_batch`` vs the ``features_for`` loop."""
    from repro.network import computation_subgraphs_batch

    server = turbo.feature_server
    uids = [r.uid for r in requests[:BATCH_SIZE]]
    nows = [r.now for r in requests[:BATCH_SIZE]]
    txns = [r.txn for r in requests[:BATCH_SIZE]]
    subgraphs, _stats = computation_subgraphs_batch(
        turbo.bn_server.bn.index(),
        uids,
        hops=turbo.hops,
        fanout=turbo.fanout,
        allowed=turbo.allowed_nodes,
    )
    node_lists = [sg.nodes for sg in subgraphs]

    def cold() -> None:
        # Drop the context rows and the batched path's ledger of them: time
        # the cold columnar pass (not cache hits) against the pinned scalar
        # loop that recomputes every row per request.
        server._row_cache.clear()
        server._row_ledger.clear()

    scalar_rows = [
        server.features_for(nodes, txn, now)[0]
        for nodes, txn, now in zip(node_lists, txns, nows)
    ]
    cold()
    matrices, _seconds, errors, stats = server.features_for_batch(
        node_lists, txns, nows
    )
    assert errors == [None] * len(node_lists)
    for got, want in zip(matrices, scalar_rows):
        np.testing.assert_array_equal(got, want)

    ref_times: list[float] = []
    vec_times: list[float] = []
    for _ in range(2):  # interleaved best-of-two, same rationale as scalar_path
        start = time.perf_counter()
        for nodes, txn, now in zip(node_lists, txns, nows):
            server._row_cache.clear()
            server.features_for(nodes, txn, now)
        ref_times.append(time.perf_counter() - start)
        cold()
        start = time.perf_counter()
        server.features_for_batch(node_lists, txns, nows)
        vec_times.append(time.perf_counter() - start)
    ref_s, vec_s = min(ref_times), min(vec_times)
    return {
        "requests": len(node_lists),
        "node_touches": stats.node_touches,
        "unique_rows": stats.unique_rows,
        "coalescing": stats.coalescing,
        "reference_s": ref_s,
        "vectorized_s": vec_s,
        "speedup": ref_s / vec_s,
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_harness(result_path: Path = RESULT_PATH) -> dict:
    emit_header(
        f"Batched serving perf harness — {N_REQUESTS} ring-heavy requests, "
        f"batch size {BATCH_SIZE}"
    )
    turbo = deploy()
    requests = ring_heavy_requests(turbo, N_REQUESTS)
    emit(
        f"workload: {len(requests)} requests over "
        f"{len({r.uid for r in requests})} distinct high-degree users"
    )

    sections = {}
    scalar_section = bench_scalar_path(turbo, requests)
    scalar_responses = scalar_section.pop("scalar_responses")
    sections["scalar_path"] = scalar_section
    emit(
        "scalar path    ref {reference_s:.3f}s  vec {vectorized_s:.3f}s "
        "({speedup:.2f}x) — bisect history counting".format(**sections["scalar_path"])
    )
    sections["end_to_end"] = bench_end_to_end(turbo, requests, scalar_responses)
    emit(
        "throughput     scalar {scalar_req_per_sim_s:.2f} req/s  batched "
        "{batched_req_per_sim_s:.1f} req/s on the deployment clock "
        "({throughput_speedup:.1f}x)  charged {charged_total_ms_scalar:.0f}ms → "
        "{charged_total_ms_batched:.0f}ms/req".format(**sections["end_to_end"])
    )
    emit(
        "compute        scalar {reference_s:.3f}s  batched {vectorized_s:.3f}s "
        "wall ({compute_speedup:.1f}x)  "
        "coalescing {sample_coalescing:.1f}x/{feature_coalescing:.1f}x".format(
            **sections["end_to_end"]
        )
    )
    sections["feature_assembly"] = bench_feature_assembly(turbo, requests)
    emit(
        "features       loop {reference_s:.3f}s  columnar {vectorized_s:.3f}s "
        "({speedup:.1f}x)  {node_touches} touches → {unique_rows} unique rows "
        "({coalescing:.1f}x)".format(**sections["feature_assembly"])
    )

    result = {
        "n_requests": N_REQUESTS,
        "batch_size": BATCH_SIZE,
        "sections": sections,
    }
    gates = [
        Gate(
            "batched_throughput_speedup",
            sections["end_to_end"]["throughput_speedup"],
            4.0,
        ),
        Gate(
            "batched_compute_speedup",
            sections["end_to_end"]["compute_speedup"],
            2.0,
        ),
        Gate(
            "feature_assembly_speedup",
            sections["feature_assembly"]["speedup"],
            5.0,
        ),
        Gate("scalar_not_slower", sections["scalar_path"]["speedup"], 0.90),
    ]
    check_gates(gates, result, result_path)
    return result


@pytest.mark.slow
def test_serving_batch_perf():
    result = run_harness()
    assert result["gates_met"], (
        "batched serving perf gates failed — see gate lines above "
        f"(gates: {result['gates']})"
    )


if __name__ == "__main__":
    outcome = run_harness()
    if not outcome["gates_met"]:
        emit("FAIL: batched serving perf gates not met")
        sys.exit(1)
    emit("OK")
