"""Tiny-scale smoke run of the sharded-BN benchmark harness.

The full harness is a slow-marked test at 1M users / 10M edge
contributions; this keeps its plumbing — the streamed workload generator,
snapshot-digest equality, serve parity, the shared gate contract, JSON emission — covered by the fast
tier.  Speedup *values* at toy scale are noise (routing overhead does not
amortize against micro per-shard applies), so the gates' pass/fail
outcome is deliberately not asserted here.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).resolve().parents[2] / "benchmarks"

GATES = (
    "ingest_speedup_2_shards",
    "serve_speedup_2_shards",
    "ingest_speedup_4_shards",
    "serve_speedup_4_shards",
)

pytestmark = pytest.mark.sharding


def test_sharding_harness_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    bench = importlib.import_module("bench_sharding")
    monkeypatch.setattr(bench, "N_USERS", 3000)
    monkeypatch.setattr(bench, "N_EDGES", 30000)
    monkeypatch.setattr(bench, "CHUNK_EDGES", 10000)
    monkeypatch.setattr(bench, "N_REQUESTS", 12)
    result_path = tmp_path / "BENCH_sharding.json"

    result = bench.run_harness(result_path=result_path)
    capsys.readouterr()  # keep the harness banner out of the test output

    # The sweep ran every shard count and passed its internal bit-exact
    # asserts (snapshot digest, serve parity — run_harness would have
    # raised otherwise).
    assert set(result["sweep"]) == {str(n) for n in bench.SHARD_COUNTS}
    for n in bench.SHARD_COUNTS:
        row = result["sweep"][str(n)]
        assert row["ingest"]["deploy_s"] > 0.0
        assert row["serve"]["deploy_s"] > 0.0
        assert sum(row["ingest"]["shard_rows"]) > 0
    assert result["n_requests"] == 12
    assert result["snapshot_digest"]

    # The shared gate contract attached its verdicts and wrote the JSON.
    assert set(result["gates"]) == set(GATES)
    assert isinstance(result["gates_met"], bool)
    on_disk = json.loads(result_path.read_text())
    assert on_disk["gates"] == result["gates"]

