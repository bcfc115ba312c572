"""Tiny-scale smoke run of the sampled-training benchmark harness.

The full harness is a slow-marked test; this keeps its plumbing — the
profiled run and the figures it reports — covered by the fast tier.
"""

from __future__ import annotations

import importlib
from pathlib import Path

BENCHMARKS_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


def test_train_parallel_harness_smoke(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    bench = importlib.import_module("bench_train_parallel")
    monkeypatch.setattr(bench, "N_NODES", 400)
    monkeypatch.setattr(bench, "AVG_DEGREE", 12)
    monkeypatch.setattr(bench, "EPOCHS", 2)
    monkeypatch.setattr(bench, "BATCH", 128)

    result = bench.run_harness()
    capsys.readouterr()  # keep the harness banner out of the test output

    assert result["presample_build_s"] > 0.0
    assert len(result["epoch_s"]) == 2
    assert result["best_epoch_s"] == min(result["epoch_s"]) > 0.0
    for stage in ("sampling", "induction", "prefetch", "forward", "backward", "step"):
        assert stage in result["stage_totals_s"], stage
