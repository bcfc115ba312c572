"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The expensive
artifacts (datasets, BN, trained models) are prepared once per session and
memoized here so the per-bench timing reflects the operation being measured,
not repeated setup.

Scale knobs (environment variables):

* ``REPRO_BENCH_SCALE`` — dataset scale factor (default ``0.6`` ≈ 2 400
  users).  Raise toward ``1.0`` for tighter numbers, lower for speed.
* ``REPRO_BENCH_SEEDS`` — comma-separated seeds for multi-seed tables
  (default ``0,1,2``).

Output goes through :func:`emit`, which bypasses pytest's capture so the
regenerated tables always appear in ``pytest benchmarks/`` output.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datagen import Dataset, make_d1, make_d2
from repro.eval.runner import ExperimentData, prepare_experiment
from repro.network import FAST_WINDOWS

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.6"))
SEEDS = tuple(
    int(s) for s in os.environ.get("REPRO_BENCH_SEEDS", "0,1,2").split(",")
)

#: benchmarks build BN with the reduced hierarchy for speed; switch to
#: ``repro.network.PAPER_WINDOWS`` to match the paper's 13 windows exactly.
WINDOWS = FAST_WINDOWS


def emit(text: str = "") -> None:
    """Print to the real stdout, bypassing pytest capture."""
    sys.__stdout__.write(text + "\n")
    sys.__stdout__.flush()


@dataclass(frozen=True)
class Gate:
    """One acceptance ratio a perf benchmark must clear (``value >= minimum``)."""

    name: str
    value: float
    minimum: float

    @property
    def passed(self) -> bool:
        return self.value >= self.minimum


def load_previous_result(result_path: str | os.PathLike) -> dict | None:
    """Load the previously committed ``BENCH_*.json`` (None if absent/bad)."""
    path = Path(result_path)
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def check_gates(
    gates: list[Gate], result: dict, result_path: str | os.PathLike
) -> bool:
    """Evaluate acceptance gates, attach them to ``result``, write the JSON.

    The uniform regression contract for every gated perf benchmark:

    * the previously committed ``result_path`` (if any) is loaded so each
      gated ratio prints its delta against the last run;
    * one line is emitted per gate plus a PASS/FAIL summary line;
    * ``result`` gains a ``gates`` section (per-gate value/minimum/passed)
      and a top-level ``gates_met`` flag, then is written to
      ``result_path``;
    * returns True iff every gate cleared — callers ``sys.exit(1)`` /
      fail the test on False, so regressions exit nonzero everywhere.
    """
    previous = load_previous_result(result_path) or {}
    rows: dict[str, dict] = {}
    ok = True
    for gate in gates:
        prev = previous.get("gates", {}).get(gate.name, {}).get("value")
        delta = (
            f"  (prev {prev:.2f}x)" if isinstance(prev, (int, float)) else ""
        )
        status = "ok  " if gate.passed else "FAIL"
        emit(
            f"gate {status} {gate.name}: {gate.value:.2f}x"
            f" >= {gate.minimum:.2f}x{delta}"
        )
        rows[gate.name] = {
            "value": gate.value,
            "minimum": gate.minimum,
            "passed": gate.passed,
        }
        ok = ok and gate.passed
    result["gates"] = rows
    result["gates_met"] = ok
    Path(result_path).write_text(json.dumps(result, indent=2) + "\n")
    emit(f"wrote {result_path}")
    met = sum(1 for row in rows.values() if row["passed"])
    emit(f"gates {'PASS' if ok else 'FAIL'}: {met}/{len(rows)} met")
    return ok


def emit_header(title: str) -> None:
    emit()
    emit("=" * 72)
    emit(title)
    emit("=" * 72)


@functools.lru_cache(maxsize=4)
def d1_dataset(scale: float = SCALE, seed: int = 7) -> Dataset:
    return make_d1(scale=scale, seed=seed)


@functools.lru_cache(maxsize=4)
def d2_dataset(scale: float = SCALE, seed: int = 11) -> Dataset:
    return make_d2(scale=scale, seed=seed)


@functools.lru_cache(maxsize=4)
def d1_experiment(scale: float = SCALE, seed: int = 0) -> ExperimentData:
    return prepare_experiment(d1_dataset(scale), windows=WINDOWS, seed=seed)


@functools.lru_cache(maxsize=4)
def d2_experiment(scale: float = SCALE, seed: int = 0) -> ExperimentData:
    return prepare_experiment(d2_dataset(scale), windows=WINDOWS, seed=seed)


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def repeat_over_splits(name: str, method, seeds=SEEDS, experiment=d1_experiment):
    """Average a method over several train/test splits *and* training seeds.

    At laptop scale the test set holds only a few dozen positives, so
    split-to-split variance dwarfs the paper's 1–2-point gaps; averaging
    over full pipeline replicates (new split + new initialization per seed)
    is what makes the reported means meaningful.  Returns a
    :class:`repro.eval.runner.MethodResult`.
    """
    from repro.eval.metrics import ClassificationReport
    from repro.eval.runner import MethodResult, run_method

    reports = []
    scores = None
    for seed in seeds:
        data = experiment(seed=seed)
        report, scores = run_method(method, data, seed=seed)
        reports.append(report)
    aucs = np.asarray([r.auc for r in reports])
    mean = ClassificationReport(
        precision=float(np.mean([r.precision for r in reports])),
        recall=float(np.mean([r.recall for r in reports])),
        f1=float(np.mean([r.f1 for r in reports])),
        f2=float(np.mean([r.f2 for r in reports])),
        auc=float(aucs.mean()),
    )
    variance = float(aucs.var()) if len(aucs) > 1 else 0.0
    return MethodResult(name=name, report=mean, auc_variance=variance, scores=scores)
