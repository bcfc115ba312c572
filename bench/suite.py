"""``python -m bench run``: every workload, each in a fresh child interpreter.

A child is exactly the command the driver runs (``BENCHMARK.json``'s
``command`` plus ``--workload/--seed/--seconds/--trace``), once untraced for
the end-to-end metrics and once traced for the per-layer ones, so
``setup_s``, ``peak_rss_mb`` and heap warm-up are per workload.  With
``--sets 2`` the suite runs twice and fails if any workload x end-to-end
metric moved by more than the metric's own bound between the two sets: one
run against one run, a smoke test (the driver compares medians of ten).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from typing import Any

from . import OUT, ROOT, load_spec

__all__ = ["run_suite", "compare_sets", "parse_result"]


def parse_result(stdout: str) -> dict[str, Any]:
    """The result object a run prints as the last line of its output."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_child(command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    if argv[0] == "python3":
        argv[0] = sys.executable
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "wall_s": wall}
    return {**parse_result(done.stdout), "wall_s": wall}


def compare_sets(
    first: dict[str, dict], second: dict[str, dict], end_to_end: list[dict]
) -> list[dict[str, Any]]:
    """Per workload x end-to-end metric: both values, the gap, the bound.

    The gap is the distance between the two values as a share of the
    smaller one, whichever set it came from.
    """
    rows = []
    for workload in first:
        for metric in end_to_end:
            a = first[workload]["metrics"][metric["name"]]["value"]
            b = second[workload]["metrics"][metric["name"]]["value"]
            gap = abs(a - b) / min(abs(a), abs(b))
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "first": a,
                    "second": b,
                    "gap": gap,
                    "bound": metric["bound"],
                    "within": gap <= metric["bound"],
                }
            )
    return rows


def run_suite(seed: int, seconds: float | None, sets: int, only: list[str] | None) -> int:
    spec = load_spec()
    seconds = spec["run_seconds"] if seconds is None else seconds
    names = [w["name"] for w in spec["workloads"]]
    if only:
        unknown = sorted(set(only) - set(names))
        if unknown:
            print(f"unknown workloads: {unknown}", file=sys.stderr)
            return 2
        names = [n for n in names if n in only]

    all_sets: list[dict[str, dict]] = []
    traced: dict[str, dict] = {}
    ok = True
    for index in range(sets):
        results: dict[str, dict] = {}
        for name in names:
            results[name] = run_child(spec["command"], name, seed, seconds, trace=0)
            if index == 0:
                traced[name] = run_child(spec["command"], name, seed, seconds, trace=1)
        all_sets.append(results)
        print(f"\nset {index + 1} of {sets}, seed {seed}, {seconds} s per timed section")
        print_table("end to end", spec["end_to_end"], results)
        if index == 0:
            print_table("per layer (traced run)", spec["per_layer"], traced)
        for name, result in {**results, **{f"{n} (traced)": r for n, r in traced.items()}}.items():
            if not result["correct"]:
                ok = False
                print(f"FAILED {name}: {result['failed']} of {result['attempted']} operations")

    gaps: list[dict] = []
    if sets >= 2:
        gaps = compare_sets(all_sets[0], all_sets[-1], spec["end_to_end"])
        print("\nset 1 against set %d" % sets)
        for row in gaps:
            flag = "" if row["within"] else "  OUT OF BOUND"
            print(
                f"  {row['workload']:<15} {row['metric']:<12} {row['first']:>14.4f} "
                f"{row['second']:>14.4f}  gap {row['gap']:>6.1%}  bound {row['bound']:.0%}{flag}"
            )
        ok = ok and all(row["within"] for row in gaps)

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "result.json").write_text(
        json.dumps(
            {
                "seed": seed,
                "seconds": seconds,
                "sets": all_sets,
                "traced": traced,
                "gaps": gaps,
            },
            indent=2,
        )
    )
    print(f"\nwrote {OUT / 'result.json'}; {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def print_table(title: str, metrics: list[dict], results: dict[str, dict]) -> None:
    print(f"{title}:")
    print("  " + " " * 56 + "".join(f"{name:>16}" for name in results))
    for metric in metrics:
        cells = []
        for result in results.values():
            value = result["metrics"].get(metric["name"], {}).get("value")
            cells.append(f"{value:>16.4f}" if value is not None else f"{'-':>16}")
        print(f"  {metric['name'] + ' [' + metric['unit'] + ']':<56}" + "".join(cells))
    print("  " + f"{'wall of the run [s]':<56}" + "".join(f"{r['wall_s']:>16.1f}" for r in results.values()))
