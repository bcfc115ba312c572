"""Output checks turn a wrong answer into a failed operation and a nonzero exit."""

import json
import types

import numpy as np
import pytest

from bench import runner, suite
from bench.trace import Target
from bench.workloads import Section, ServeScalar, bad_response


def response(probability=0.25, degradation="full", tier="sampled"):
    return types.SimpleNamespace(probability=probability, degradation=degradation, tier=tier)


def test_a_degraded_cached_or_non_finite_answer_is_a_failed_request():
    assert not bad_response(response())
    assert bad_response(response(degradation="scorecard"))
    assert bad_response(response(tier="lambda"))
    assert bad_response(response(probability=float("nan")))
    assert bad_response(response(probability=1.5))


def test_one_corrupted_probability_fails_the_serve_check():
    reference = [0.1, 0.2, 0.3, 0.4]
    dep = types.SimpleNamespace(reference=reference)
    clean = Section(outputs={"probabilities": reference * 3})
    assert ServeScalar().check(dep, [clean])[:2] == (4, 0)

    corrupted = list(reference * 3)
    corrupted[6] = np.nextafter(corrupted[6], 1.0)  # one ulp off, once
    dirty = Section(outputs={"probabilities": corrupted})
    assert ServeScalar().check(dep, [clean, dirty])[:2] == (4, 1)


class FakeWorkload:
    """Every operation takes 1 ms, except every twentieth, which takes 20."""

    name = "fake"
    unit = "ops"

    def __init__(self, samples):
        self.samples = samples

    def setup(self, seed):
        return None

    def run(self, state, seconds, recorder):
        section = Section(attempted=self.samples)
        for index in range(self.samples):
            section.record(0.020 if index % 20 == 19 else 0.001, units=1)
        section.cut()
        return section

    def check(self, state, sections):
        return 1, 0, "digest"


@pytest.mark.parametrize("samples, failed", [(200, 0), (199, 1)])
def test_a_pass_too_short_for_a_p95_fails_the_run(samples, failed):
    values, info = runner.end_to_end(FakeWorkload(samples), seed=0, seconds=0.0)
    assert values["p50_ms"] == 1.0
    assert values["p95_ms"] == pytest.approx(1.95 if samples == 200 else 1.0)
    assert (info["samples_per_pass"], info["passes"]) == (samples, 1)
    assert info["pass_p50_ms"] == [values["p50_ms"]]
    assert (info["attempted"], info["failed"]) == (samples + 2, failed)


def test_a_span_target_the_program_no_longer_has_fails_the_traced_run(monkeypatch, tmp_path):
    monkeypatch.setattr(runner, "OUT", tmp_path)
    here = Target("bench.fake.record", "bench.workloads", "Section", "record")
    gone = Target("bench.fake.gone", "bench.workloads", "Section", "no_longer_here")
    monkeypatch.setattr(runner, "TARGETS", (here,))
    _, base = runner.per_layer(FakeWorkload(40), 0, 0.0, ["bench.fake.record.calls"])
    # one failure already: the fake's spans do not cover the milliseconds it claims per call
    assert (base["attempted"], base["failed"]) == (2 * 40 + 1 + 1 + 1, 1)
    monkeypatch.setattr(runner, "TARGETS", (here, gone))
    values, info = runner.per_layer(FakeWorkload(40), 0, 0.0, ["bench.fake.record.calls"])
    assert info["failed"] == 2 and info["targets_missing"] == ["bench.fake.gone"]
    assert values["bench.fake.record.calls"] == 40.0


def test_the_suite_exits_nonzero_when_a_run_reports_a_failed_check(monkeypatch, tmp_path, capsys):
    spec = json.loads((suite.ROOT / "BENCHMARK.json").read_text())

    def child(failed):
        def run_child(command, workload, seed, seconds, trace):
            declared = spec["per_layer" if trace else "end_to_end"]
            return {
                "correct": not failed, "attempted": 10, "failed": int(failed), "wall_s": 0.0,
                "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in declared},
            }  # fmt: skip
        return run_child

    monkeypatch.setattr(suite, "OUT", tmp_path)
    monkeypatch.setattr(suite, "run_child", child(failed=False))
    assert suite.run_suite(0, 1.0, 2, ["serve_scalar"]) == 0
    assert json.loads((tmp_path / "result.json").read_text())["gaps"][0]["within"] is True
    monkeypatch.setattr(suite, "run_child", child(failed=True))
    assert suite.run_suite(0, 1.0, 1, ["serve_scalar"]) == 1
    assert "FAILED serve_scalar" in capsys.readouterr().out


def test_sets_are_compared_against_each_metrics_own_bound():
    metrics = [{"name": "p50_ms", "bound": 0.10}, {"name": "ops_per_s", "bound": 0.10}]
    first = {"w": {"metrics": {"p50_ms": {"value": 10.0}, "ops_per_s": {"value": 100.0}}}}
    second = {"w": {"metrics": {"p50_ms": {"value": 10.5}, "ops_per_s": {"value": 80.0}}}}
    rows = {row["metric"]: row for row in suite.compare_sets(first, second, metrics)}
    assert rows["p50_ms"]["within"] and abs(rows["p50_ms"]["gap"] - 0.05) < 1e-12
    assert not rows["ops_per_s"]["within"] and abs(rows["ops_per_s"]["gap"] - 0.25) < 1e-12
