"""One run of one workload in this process: what ``python -m bench one`` does.

Untraced (``--trace 0``): set up :data:`SETUP_REPEATS` times (``setup_s`` is
the median, so the first, cold set-up does not decide it), run the timed
section for ``--seconds`` (and to the end of the pass in progress), check
outputs, print every end-to-end metric, computed from the time each call of
a pass is credited with over the section's passes (``bench/workloads.py``).

Traced (``--trace 1``): set up once, run half of ``--seconds`` untraced and
the other half with span wrappers installed, print every per-layer metric
and write the spans to ``bench/out/trace-<workload>.jsonl``.  The untraced
half is the base of ``bench.trace.overhead_share``.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from typing import Any

from . import OUT, load_spec
from .layers import ALIASES, TARGETS
from .stats import supported_percentile
from .trace import Recorder, layer_metrics, patched, root_seconds, write_jsonl
from .workloads import WORKLOADS, Section

__all__ = ["SETUP_REPEATS", "run_one"]

SETUP_REPEATS = 3


def timed_setup(workload: Any, seed: int) -> tuple[Any, float]:
    gc.collect()
    start = time.perf_counter()
    state = workload.setup(seed)
    return state, time.perf_counter() - start


def timed_run(workload: Any, state: Any, seconds: float, recorder: Recorder) -> Section:
    gc.collect()
    return workload.run(state, seconds, recorder)


def end_to_end(workload: Any, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        del state
        state, elapsed = timed_setup(workload, seed)
        setups.append(elapsed)
    section = timed_run(workload, state, seconds, Recorder())
    checks, check_failures, sha = workload.check(state, [section])
    # A pass too short for a 95th percentile is a fault of the harness.
    samples = sum(section.samples)
    checks += 1
    check_failures += int(supported_percentile(samples) < 95)
    values = {
        "setup_s": statistics.median(setups),
        **section.figures(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    each = [section.figures(row) for row in section.passes]
    info = {
        "attempted": section.attempted + checks,
        "failed": section.failed + check_failures,
        "output_digest": sha,
        "op": workload.unit,
        "passes": len(section.passes),
        "samples_per_pass": samples,
        "setups_s": setups,
        "timed_busy_s": section.busy_s,
        **{f"pass_{name}": [figures[name] for figures in each] for name in each[0]},
    }
    return values, info


def per_layer(workload: Any, seed: int, seconds: float, names: list[str]) -> tuple[dict, dict]:
    state, _ = timed_setup(workload, seed)
    plain = timed_run(workload, state, seconds / 2, Recorder())
    recorder = Recorder()
    with patched(recorder, TARGETS) as missing:
        origin = time.perf_counter()
        traced = timed_run(workload, state, seconds / 2, recorder)
    checks, check_failures, sha = workload.check(state, [plain, traced])
    spans = recorder.spans

    measured = layer_metrics(spans, {ALIASES.get(name, name) for name in names})
    values = {name: measured[ALIASES.get(name, name)] for name in names}
    coverage = root_seconds(spans) / traced.busy_s
    values["bench.trace.coverage"] = coverage
    values["bench.trace.overhead_share"] = (
        plain.figures()["ops_per_s"] / traced.figures()["ops_per_s"] - 1.0
    )
    # The top-level spans must account for the whole timed section.
    checks += 1
    check_failures += int(not 0.95 <= coverage <= 1.05)
    # A target the program no longer has would read 0, the best value a
    # busy time can take: it fails the run until ``layers.py`` follows.
    checks += len(TARGETS)
    check_failures += len(missing)

    path = OUT / f"trace-{workload.name}.jsonl"
    write_jsonl(path, spans, origin)
    info = {
        "attempted": plain.attempted + traced.attempted + checks,
        "failed": plain.failed + traced.failed + check_failures,
        "output_digest": sha,
        "spans": len(spans),
        "trace_file": str(path),
        "targets_missing": missing,
    }
    return values, info


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Run one workload; print its metrics and, last, the result object."""
    spec = load_spec()
    if name not in WORKLOADS or name not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {name!r}")
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    started = time.perf_counter()
    if trace:
        values, info = per_layer(WORKLOADS[name], seed, seconds, names)
    else:
        values, info = end_to_end(WORKLOADS[name], seed, seconds)
    if set(values) != set(names):
        raise SystemExit(
            f"metrics measured and declared differ: {sorted(set(values) ^ set(names))}"
        )
    info["total_wall_s"] = time.perf_counter() - started

    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    for metric in declared:
        print(f"  {metric['name']:<58} {values[metric['name']]:>16.6f} {metric['unit']}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return {**result, "info": info}
