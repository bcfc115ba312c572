"""``BENCHMARK.json`` against the driver's contract and against what runs print."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench.layers import ALIASES, TARGETS
from bench.suite import parse_result

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_the_file_has_exactly_the_contract_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert len(SPEC["command"]) <= 32 and all(len(part) <= 200 for part in SPEC["command"])
    # 4 + 22 x workloads runs must fit in 3420 s.  Beside its timed section a
    # run spends 8-11 s on three set-ups, imports, checks and the last pass.
    budget = 3420 / (4 + 22 * len(SPEC["workloads"]))
    assert SPEC["run_seconds"] + 11 <= 0.85 * budget


def test_names_units_and_bounds_are_well_formed_and_unique():
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_per_layer_metric_has_a_span_to_read_it_from():
    spans = {target.name for target in TARGETS}
    for metric in SPEC["per_layer"]:
        name = ALIASES.get(metric["name"], metric["name"])
        if not name.startswith("bench."):
            assert name.rpartition(".")[0] in spans, metric["name"]


def test_no_file_outside_bench_tests_is_collected_as_a_test_or_bench():
    bench = ROOT / "bench"
    stray = [
        path
        for pattern in ("bench_*.py", "test_*.py")
        for path in bench.rglob(pattern)
        if bench / "tests" not in path.parents
    ]
    assert stray == []
    assert (bench / "out" / ".gitignore").read_text().split() == ["*", "!.gitignore"]


@pytest.mark.parametrize("trace", [0, 1])
def test_a_run_prints_exactly_the_declared_names(trace):
    """Two-way: nothing declared is missing, nothing undeclared is printed."""
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:],
         "--workload", "ingest_stream", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    result = parse_result(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    # every declared name is also printed for people, with its unit
    for metric in declared:
        assert re.search(
            rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$",
            done.stdout, re.MULTILINE,
        ), metric["name"]  # fmt: skip
    if trace:
        assert result["metrics"]["network.bn.add_weights.rows"]["value"] > 0
        assert (ROOT / "bench" / "out" / "trace-ingest_stream.jsonl").exists()


def test_a_directory_without_the_program_fails_without_printing_a_result(tmp_path):
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )  # fmt: skip
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:],
         "--workload", "ingest_stream", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={"PATH": "/usr/bin:/bin"},
    )  # fmt: skip
    assert done.returncode != 0
    assert "correct" not in done.stdout
