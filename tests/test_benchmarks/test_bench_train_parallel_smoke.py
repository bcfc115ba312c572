"""Tiny-scale smoke run of the parallel training benchmark harness.

The full harness is a slow-marked test; this keeps its plumbing — both
training phases, the bit-exactness parity verdict, the deployment-clock
arithmetic, the shared gate contract, JSON emission — covered by the fast
tier.  Speedup *values* at toy scale are noise, so the perf gates'
pass/fail outcome is deliberately not asserted here (parity excepted:
bit-exactness is scale independent).
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

BENCHMARKS_DIR = Path(__file__).resolve().parents[2] / "benchmarks"

GATES = ("parallel_epoch_speedup_4w", "parallel_parity")


def test_train_parallel_harness_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    bench = importlib.import_module("bench_train_parallel")
    monkeypatch.setattr(bench, "N_NODES", 400)
    monkeypatch.setattr(bench, "AVG_DEGREE", 12)
    monkeypatch.setattr(bench, "EPOCHS", 1)
    monkeypatch.setattr(bench, "BATCH_A", 256)
    monkeypatch.setattr(bench, "BATCH_B", 64)
    monkeypatch.setattr(bench, "SYNC_B", 4)
    result_path = tmp_path / "BENCH_train_parallel.json"

    result = bench.run_harness(result_path=result_path)
    capsys.readouterr()  # keep the harness banner out of the test output

    # Phase A reports the in-process epoch in absolute terms; phase B
    # ran every worker count.
    assert result["presample_build_s"] > 0.0
    assert result["inprocess_phase"]["best_epoch_s"] > 0.0
    for stage in ("sampling", "induction", "prefetch", "forward", "backward"):
        assert stage in result["inprocess_phase"]["stage_totals_s"], stage
    assert set(result["parallel_phase"]) == {"0", "1", "2", "4"}
    for workers, row in result["parallel_phase"].items():
        assert row["best_deploy_s"] > 0.0
        if workers != "0":
            stages = row["stage_totals_s"]
            assert stages["workers_busy"] >= stages["workers_critical"] > 0.0

    # Bit-exactness holds at any scale.
    assert result["gates"]["parallel_parity"]["value"] == 1.0

    # The shared gate contract attached its verdicts and wrote the JSON.
    assert set(result["gates"]) == set(GATES)
    assert isinstance(result["gates_met"], bool)
    on_disk = json.loads(result_path.read_text())
    assert set(on_disk["gates"]) == set(GATES)


def test_committed_train_parallel_result_meets_gates():
    """The committed BENCH_train_parallel.json was green when written."""
    committed = json.loads(
        (BENCHMARKS_DIR.parent / "BENCH_train_parallel.json").read_text()
    )
    assert committed["gates_met"] is True
    for name, gate in committed["gates"].items():
        assert gate["value"] >= gate["minimum"], (name, gate)
