"""Exact work counts of a window job: decided without a clock.

The write-side twin of ``tests/test_system/test_serve_work_counts.py``.  A
contributing job of the hourly stream carries a few dozen pair
contributions, so what it costs is mostly per call, not per pair: the
numpy calls on arrays of a few dozen rows, and the Python walk that applies
the batch.  This drives the 48 hourly ticks of
``tests/test_benchmarks/test_bench_write_path_spans.py`` through a
``BNServer`` and counts the Python-level and C-level calls
(``sys.setprofile`` ``call`` + ``c_call`` events) made inside every
``BNBuilder.run_window_job`` that contributes — the figure a write-path PR
quotes as "calls per contributing job N → M".  The stream's jobs and
contributions are pinned too, so the ceiling always covers the same work.
Host-independent integers: the ceiling is asserted, the figure printed.
"""

from __future__ import annotations

import gc
import sys

import numpy as np

from repro.datagen import DAY, HOUR, BehaviorLog, BehaviorType
from repro.network import FAST_WINDOWS, BNBuilder
from repro.system import BNServer, LatencyModel

#: measured 252.7 with pairs taken from one triangular index and each typed
#: edge's weights folded in the apply walk (566.9 while every job enumerated
#: pairs with repeat/cumsum ramps and folded its weights twice in numpy); a
#: job of 65 contributions spends most of them in the walk's two dict
#: lookups per typed edge.  About 3 % of headroom.
CALLS_PER_JOB_CEILING = 260


def test_calls_per_contributing_window_job():
    rng = np.random.default_rng(0)
    types = (BehaviorType.DEVICE_ID, BehaviorType.IPV4, BehaviorType.GPS)
    server = BNServer(BNBuilder(windows=FAST_WINDOWS, ttl=DAY / 2), LatencyModel(seed=0))
    job = BNBuilder.run_window_job.__code__
    jobs: list[tuple[int, int]] = []  # (calls, contributions) per job
    inside: list = []  # the running job's frame and its call count

    def count(frame, event, arg):
        if inside:
            if event == "return" and frame is inside[0]:
                jobs.append((inside[1], arg))
                inside.clear()
            elif event in ("call", "c_call"):
                inside[1] += 1
        elif event == "call" and frame.f_code is job:
            inside[:] = [frame, 0]

    # No collection mid-count: a gc callback (hypothesis installs one) is a
    # Python call that would land in whichever job the collector interrupts.
    previous, collecting = sys.getprofile(), gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
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
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()

    contributing = [calls for calls, contributions in jobs if contributions]
    assert len(jobs) == server.jobs_run == 48 + 16 + 8 + 4 + 2
    assert (len(contributing), sum(n for _, n in jobs)) == (75, 4_858)
    per_job = sum(contributing) / len(contributing)
    print(
        f"\n{len(contributing)} contributing window jobs of {len(jobs)}: "
        f"{per_job:.1f} Python- and C-level calls per job"
    )
    assert per_job <= CALLS_PER_JOB_CEILING
