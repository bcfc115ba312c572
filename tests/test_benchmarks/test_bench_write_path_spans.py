"""The write path's trace targets are *reached*, not merely present.

``test_bench_targets_resolve.py`` proves the names in ``bench/layers.py``
exist.  A target that exists but that the server path no longer calls would
read 0 — the best value a busy time can take — so this drives 48 hourly
ticks through a ``BNServer`` under ``bench.trace.patched`` and requires a
span from every write-path target, one ``run_window_job`` span per job the
server reports, and span counts that add up to the server's own counter.
"""

from __future__ import annotations

import numpy as np

from bench.layers import TARGETS
from bench.trace import COUNTS, NAME, Recorder, layer_metrics, patched
from repro.datagen import DAY, HOUR, BehaviorLog, BehaviorType
from repro.network import FAST_WINDOWS, BNBuilder
from repro.obs import MetricsRegistry
from repro.system import BNServer, LatencyModel

WRITE_PATH = (
    "system.bn_server.ingest",
    "system.bn_server.run_due_jobs",
    "network.builder.run_window_job",
    "network.bn.add_weights",
    "network.bn.prepare_weight_groups",
    "network.bn.apply_weight_groups",
    "network.bn.expire_edges",
)


def test_every_write_path_target_records_spans():
    rng = np.random.default_rng(0)
    types = (BehaviorType.DEVICE_ID, BehaviorType.IPV4, BehaviorType.GPS)
    registry = MetricsRegistry()
    # A TTL short enough that the second day's sweep has edges to expire.
    server = BNServer(
        BNBuilder(windows=FAST_WINDOWS, ttl=DAY / 2), LatencyModel(seed=0), metrics=registry
    )
    recorder = Recorder()
    targets = [target for target in TARGETS if target.name in WRITE_PATH]
    assert len(targets) == len(WRITE_PATH)
    with patched(recorder, targets) as missing:
        for hour in range(48):
            stamps = np.sort(rng.uniform(hour * HOUR, (hour + 1) * HOUR, size=12))
            server.ingest(
                [
                    BehaviorLog(
                        int(rng.integers(0, 30)),
                        types[int(rng.integers(0, 3))],
                        f"v{int(rng.integers(0, 4))}",
                        float(t),
                    )
                    for t in stamps
                ]
            )
            server.run_due_jobs((hour + 1) * HOUR)
    assert missing == []

    spans = recorder.spans
    calls = {name: sum(span[NAME] == name for span in spans) for name in WRITE_PATH}
    assert all(calls.values()), calls
    figures = layer_metrics(
        spans,
        [
            "system.bn_server.run_due_jobs.jobs",
            "network.builder.run_window_job.contributions",
            "network.bn.add_weights.rows",
            "network.bn.expire_edges.removed",
        ],
    )
    assert calls["network.builder.run_window_job"] == figures["system.bn_server.run_due_jobs.jobs"]
    assert figures["system.bn_server.run_due_jobs.jobs"] == server.jobs_run == 48 + 16 + 8 + 4 + 2
    contributions = registry.counter("bn.ingest.contributions").value
    assert figures["network.builder.run_window_job.contributions"] == contributions > 0
    assert figures["network.bn.add_weights.rows"] == contributions
    assert figures["network.bn.expire_edges.removed"] > 0
    # One add_weights (so one prepare, one apply) per contributing job, at most.
    assert (
        calls["network.bn.add_weights"]
        == calls["network.bn.prepare_weight_groups"]
        == calls["network.bn.apply_weight_groups"]
        == sum(
            1
            for span in spans
            if span[NAME] == "network.builder.run_window_job" and span[COUNTS]["contributions"]
        )
    )
