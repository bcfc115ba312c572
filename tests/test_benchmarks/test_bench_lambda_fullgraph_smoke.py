"""Tiny-scale smoke run of the full-graph materialization benchmark.

The full harness is a slow-marked test over a 120k-user streamed workload;
this keeps its plumbing — the streamed ingest, the deployment-clock
slice executor, the scalar-path replay of a target sample, the
bit-exactness comparisons inside every section, the pool sweep through real
forked children (``fork_map``), the shared gate contract, JSON emission — covered by the
fast tier.  The work-reduction *value* at toy scale is noise (a 400-user
graph is dense enough that a 2-hop cone covers most of it), so that gate's
pass/fail outcome is deliberately not asserted here; the parity gates are
bit-exact at any scale and must hold.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).resolve().parents[2] / "benchmarks"

SECTIONS = (
    "fullgraph_sweep",
    "state_parity",
    "pool_sweep",
    "incremental_refresh",
)
GATES = (
    "covered_scale",
    "state_parity",
    "pool_sweep_parity",
    "incremental_work_reduction",
    "incremental_parity",
)

pytestmark = pytest.mark.sharding


def test_lambda_fullgraph_harness_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    bench = importlib.import_module("bench_lambda_fullgraph")

    monkeypatch.setattr(bench, "N_USERS", 400)
    monkeypatch.setattr(bench, "N_EDGES", 2400)
    monkeypatch.setattr(bench, "CHUNK_EDGES", 1000)
    monkeypatch.setattr(bench, "REPLAY_SAMPLE", 64)
    monkeypatch.setattr(bench, "POOL_TARGETS", 48)
    monkeypatch.setattr(bench, "DELTA_EDGES", 2)
    result_path = tmp_path / "BENCH_lambda_fullgraph.json"

    result = bench.run_harness(result_path=result_path)
    capsys.readouterr()  # keep the harness banner out of the test output

    assert set(SECTIONS) == set(result["sections"])
    sweep = result["sections"]["fullgraph_sweep"]
    assert sweep["covered_users"] == 400
    assert len(sweep["slice_s"]) == bench.POOL_WORKERS
    assert sweep["deploy_s"] <= sweep["single_process_s"]
    assert sweep["rows"] == 400

    # Bit-exactness is scale independent: every parity section must be
    # clean even at toy scale.
    parity = result["sections"]["state_parity"]
    assert parity["sample"] == 64
    assert parity["mismatched_arrays"] == []
    assert parity["parity"] == 1.0
    pool = result["sections"]["pool_sweep"]
    assert pool["slices"] == bench.POOL_SLICES
    assert pool["mismatched_arrays"] == []
    assert pool["parity"] == 1.0
    incremental = result["sections"]["incremental_refresh"]
    assert incremental["mismatched_arrays"] == []
    assert incremental["parity"] == 1.0
    assert 0 < incremental["rows_computed"] <= incremental["total_rows"]

    # The shared gate contract attached its verdicts and wrote the JSON.
    assert set(result["gates"]) == set(GATES)
    assert isinstance(result["gates_met"], bool)
    on_disk = json.loads(result_path.read_text())
    assert set(SECTIONS) <= set(on_disk["sections"])


def test_committed_lambda_fullgraph_result_meets_gates():
    """The committed BENCH_lambda_fullgraph.json was green when written."""
    committed = json.loads(
        (BENCHMARKS_DIR.parent / "BENCH_lambda_fullgraph.json").read_text()
    )
    assert committed["gates_met"] is True
    assert committed["sections"]["fullgraph_sweep"]["covered_users"] >= (
        committed["coverage_floor"]
    )
    for name, gate in committed["gates"].items():
        assert gate["value"] >= gate["minimum"], (name, gate)
