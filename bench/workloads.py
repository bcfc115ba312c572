"""The four pinned workloads.

Each workload has three parts: ``setup`` (data generation, deployment and
an untimed warm-up — all of it is ``setup_s``), ``run`` (the timed section)
and ``check`` (output checks, outside any timed section).  Only the calls
into the program are timed, never the harness code that prepares their
inputs.

A timed section is a sequence of *passes*.  A pass is a fixed piece of work
— the same 200 requests, the same 120 days of logs — made of the same timed
calls in the same order, with at least ``MIN_SAMPLES`` latency samples among
them.  A section runs for ``seconds`` and then to the end of the pass in
progress, so no metric depends on where the clock happened to stop.

Call ``k`` of a pass is therefore timed once per pass, and the time it is
*credited* with is the lower quartile of those times.  Every metric comes
from the credited times: throughput is a pass's work over their sum, the
latency percentiles are taken over a pass's operations.  This container
shares its host: for spells of milliseconds to minutes, a third of the time
and more, everything runs up to 1.45x slower.  A call does the same work in
every pass, so what differs between its times is the host; that noise only
ever adds time, so the lower times say what the call costs
(``bench/README.md`` has the spreads this and other statistics gave).  What
this hides is whatever slows a given call in fewer than three passes in
four, for one the cyclic GC's full collections; what slows it in every pass
shows in full.

``--seed`` drives what the harness asks for — which users, in which order,
which logs the stream leaves out — and the program only ever sees the
generated inputs.  The dataset itself is pinned (``make_d1(seed=7)``) so
that every seed measures the same deployment, and every draw is made so
that a pass costs the same whatever the seed.

Sizes are set by the driver's budget (about 37 s per run, set-ups
included), not by the paper's scale: see ``bench/README.md``.
"""

from __future__ import annotations

import hashlib
import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Sequence

import numpy as np

from repro.datagen.datasets import make_d1
from repro.datagen.entities import DAY, HOUR, BehaviorLog
from repro.network.bn import BehaviorNetwork
from repro.network.builder import BNBuilder
from repro.network.windows import FAST_WINDOWS
from repro.obs.metrics import MetricsRegistry
from repro.system import BNServer, LatencyModel, PredictRequest, TurboConfig, deploy_turbo

from .stats import quantile
from .trace import Recorder

__all__ = ["MIN_SAMPLES", "Section", "WORKLOADS"]

clock = time.perf_counter

#: population of the pinned D1 dataset (600 users, ~110k logs, 8 edge types).
SCALE = 0.15
DATASET_SEED = 7
#: the dataset's last ``HELD_OUT_DAYS`` days, re-stamped past its end, are the
#: write stream of ``serve_live``: as long as the edge TTL, so that what the
#: stream adds replaces what expires and the BN stays as large as deployed.
HELD_OUT_DAYS = 60

#: latency samples a pass holds at least, so that its 95th percentile has ten
#: samples beyond it.
MIN_SAMPLES = 200


@dataclass(slots=True)
class Section:
    """What one timed section measured: the wall of every timed call, pass by pass.

    Every pass makes the same calls in the same order, so call ``k`` has one
    wall time per pass; the time it is credited with is the lower quartile
    of those, and every metric is computed from the credited times.
    """

    #: wall seconds of the timed calls, one row per closed pass.
    passes: list[list[float]] = field(default_factory=list)
    #: work units and latency samples that call ``k`` of a pass stands for.
    units: list[float] = field(default_factory=list)
    samples: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outputs: dict[str, Any] = field(default_factory=dict)
    _row: list[float] = field(default_factory=list)

    def record(self, busy_s: float, units: float = 0.0, samples: int = 1) -> None:
        """Add one timed call, the latency of ``samples`` operations."""
        if not self.passes:
            self.units.append(units)
            self.samples.append(samples)
        self._row.append(busy_s)

    def cut(self) -> None:
        """Close the pass in progress."""
        if len(self._row) != len(self.units):
            raise RuntimeError("a pass made other calls than the first pass")
        self.passes.append(self._row)
        self._row = []

    @property
    def busy_s(self) -> float:
        return float(np.sum(self.passes))

    def call_seconds(self) -> np.ndarray:
        """The time each call of a pass is credited with."""
        return np.quantile(np.array(self.passes), 0.25, axis=0)

    def figures(self, seconds: Sequence[float] | None = None) -> dict[str, float]:
        """Throughput and latency of a pass whose calls took ``seconds``.

        By default the credited times; a row of ``passes`` gives that pass's
        own figures.
        """
        if seconds is None:
            seconds = self.call_seconds()
        ms = np.repeat(1e3 * np.asarray(seconds), self.samples)
        return {
            "ops_per_s": sum(self.units) / float(np.sum(seconds)),
            "p50_ms": quantile(ms, 0.50),
            "p95_ms": quantile(ms, 0.95),
        }


def digest(*arrays: np.ndarray) -> str:
    """sha256 over the raw bytes of the result arrays."""
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def hour_stream(
    logs: Sequence[BehaviorLog], start: float, span: float, shift: float = 0.0
) -> Iterator[tuple[float, list[BehaviorLog]]]:
    """``(hour_end, logs of that hour)`` for consecutive hours, without end.

    Covers the ``span`` seconds of the time-sorted ``logs`` after ``start``,
    with ``shift`` added to every emitted timestamp; when the span is used
    up it is replayed another ``span`` later, so time never runs backwards
    and a long run never runs out of input.
    """
    times = [log.timestamp for log in logs]
    first = bisect_right(times, start)
    while True:
        low = first
        for hour in range(1, int(span // HOUR) + 1):
            end = start + hour * HOUR
            high = bisect_right(times, end)
            batch = logs[low:high]
            if shift:
                batch = [replace(log, timestamp=log.timestamp + shift) for log in batch]
            yield end + shift, list(batch)
            low = high
        shift += span


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Deployment:
    turbo: Any
    #: one request candidate per user: their latest transaction, ordered by
    #: the user's BN degree at deployment.
    pool: list
    #: simulated time requests are observed at.
    now: float
    #: held-out hourly write stream, consumed in order.
    hours: Iterator[tuple[float, list[BehaviorLog]]]
    rng: np.random.Generator
    requests: list = field(default_factory=list)
    #: probability of each request as the warm-up pass answered it.
    reference: list[float] = field(default_factory=list)


def deploy(seed: int) -> Deployment:
    """The deployment every serve workload measures.

    After deploying, the epoch backlog is flushed and the TTL sweep run, so
    every workload starts from the same steady-state pruned BN.
    """
    dataset = make_d1(scale=SCALE, seed=DATASET_SEED)
    turbo, data = deploy_turbo(
        dataset,
        TurboConfig(windows=FAST_WINDOWS, train_epochs=2, hidden=(32, 16), seed=0),
    )
    turbo.bn_server.run_due_jobs(now=dataset.end_time)
    bn = turbo.bn_server.bn
    pool = sorted(
        data.feature_manager.latest_transactions(),
        key=lambda txn: (bn.degree(txn.uid), txn.txn_id),
    )
    span = HELD_OUT_DAYS * DAY
    hours = hour_stream(dataset.logs, dataset.end_time - span, span, shift=span)
    return Deployment(turbo, pool, dataset.end_time, hours, np.random.default_rng(seed))


def bad_response(response: Any) -> bool:
    """A serve response that counts as failed."""
    p = response.probability
    return not (
        response.degradation == "full"
        and response.tier == "sampled"
        and math.isfinite(p)
        and 0.0 <= p <= 1.0
    )


class ServeScalar:
    """Closed loop, one client, over a fixed set of users with warm caches."""

    name = "serve_scalar"
    unit = "requests"
    #: requests of a pass, one per user.
    USERS = MIN_SAMPLES

    def setup(self, seed: int) -> Deployment:
        dep = deploy(seed)
        dep.requests = [
            PredictRequest(txn=txn, now=dep.now) for txn in self.pick(dep, self.USERS)
        ]
        dep.reference = self.warm(dep)
        return dep

    @staticmethod
    def pick(dep: Deployment, count: int) -> list:
        """``count`` users: a different draw per seed but the same mix.

        A request costs what its subgraph holds, and subgraph sizes are
        heavy-tailed, so a plain random draw makes one seed's workload up
        to a fifth heavier than another's.  The draw is systematic over the
        pool ordered by BN degree instead (a seeded offset, then every
        ``len(pool) / count``-th user), in seeded order.
        """
        stride = len(dep.pool) / count
        offset = dep.rng.uniform(0.0, stride)
        picked = [dep.pool[int(offset + k * stride)] for k in range(count)]
        return [picked[i] for i in dep.rng.permutation(count)]

    def warm(self, dep: Deployment) -> list[float]:
        # One pass over every picked user: the BN is static afterwards, so
        # every version-keyed cache they touch stays warm.
        return [dep.turbo.predict(request).probability for request in dep.requests]

    def run(self, dep: Deployment, seconds: float, recorder: Recorder) -> Section:
        section = Section()
        responses = []
        deadline = clock() + seconds
        while True:
            for request in dep.requests:  # a pass is every picked user once
                recorder.op = len(responses)
                start = clock()
                response = dep.turbo.predict(request)
                end = clock()
                section.record(end - start, 1)
                responses.append(response)
            section.cut()
            if clock() >= deadline:
                break
        section.attempted = len(responses)
        section.outputs["probabilities"] = [r.probability for r in responses]
        section.failed = sum(bad_response(r) for r in responses)
        return section

    def check(self, dep: Deployment, sections: list[Section]) -> tuple[int, int, str]:
        """The BN is static, so every repeat of a request scores as in warm-up."""
        n = len(dep.reference)
        # Every section starts again at request 0.
        wrong = {
            i % n
            for section in sections
            for i, p in enumerate(section.outputs["probabilities"])
            if p != dep.reference[i % n]
        }
        return n, len(wrong), digest(np.array(dep.reference))


class ServeBatch(ServeScalar):
    """Closed loop of micro-batches through the coalescing path.

    A request is answered when its batch is, so the latency sample of each
    of a batch's requests is the wall time of the batch.
    """

    name = "serve_batch"
    BATCH = 8
    #: requests whose batched probability is compared with scalar ``predict``.
    PARITY = 32

    def warm(self, dep: Deployment) -> list[float]:
        return [
            response.probability
            for batch in self.batches(dep)
            for response in dep.turbo.predict_batch(batch)
        ]

    def batches(self, dep: Deployment) -> list[list]:
        return [
            dep.requests[i : i + self.BATCH]
            for i in range(0, len(dep.requests), self.BATCH)
        ]

    def run(self, dep: Deployment, seconds: float, recorder: Recorder) -> Section:
        section = Section()
        batches = self.batches(dep)
        responses = []
        deadline = clock() + seconds
        while True:
            for batch in batches:  # a pass is every batch once
                recorder.op = len(responses)
                start = clock()
                answered = dep.turbo.predict_batch(batch)
                end = clock()
                section.record(end - start, len(batch), samples=len(batch))
                responses.extend(answered)
            section.cut()
            if clock() >= deadline:
                break
        section.attempted = len(responses)
        section.outputs["probabilities"] = [r.probability for r in responses]
        section.failed = sum(bad_response(r) for r in responses)
        return section

    def check(self, dep: Deployment, sections: list[Section]) -> tuple[int, int, str]:
        """... and the batched path scores bit for bit what scalar predict does."""
        attempted, failed, sha = super().check(dep, sections)
        scalar = [dep.turbo.predict(r).probability for r in dep.requests[: self.PARITY]]
        failed += sum(a != b for a, b in zip(dep.reference, scalar))
        return attempted + self.PARITY, failed, sha


class ServeLive(ServeScalar):
    """Closed loop, one client, with BN writes running beside the reads.

    Before every ``WRITE_EVERY``-th request ``WRITE_HOURS`` held-out hours go
    through the BN server, and that request's latency sample includes the
    write it waited for: one request in ten pays for a write and for the
    caches its version bump invalidated (about 5 ms on top of a 7 ms read).
    """

    name = "serve_live"
    WRITE_EVERY = 10
    WRITE_HOURS = 6
    #: requests of the warm-up: a fifth of a pass, writes and all.
    WARM = 40

    def warm(self, dep: Deployment) -> list[float]:
        responses = self.one_pass(dep, dep.requests[: self.WARM], Section(), Recorder())
        return [r.probability for r in responses]

    def one_pass(
        self, dep: Deployment, requests: list, section: Section, recorder: Recorder
    ) -> list:
        bn_server = dep.turbo.bn_server
        responses = []
        for index, request in enumerate(requests):
            recorder.op += 1
            write = index % self.WRITE_EVERY == 0
            hours = [next(dep.hours) for _ in range(self.WRITE_HOURS if write else 0)]
            if hours:
                dep.now = hours[-1][0]
            request = replace(request, now=dep.now)
            start = clock()
            for end, logs in hours:
                bn_server.ingest(logs)
                bn_server.run_due_jobs(end)
            response = dep.turbo.predict(request)
            stop = clock()
            section.record(stop - start, 1)
            responses.append(response)
        return responses

    def run(self, dep: Deployment, seconds: float, recorder: Recorder) -> Section:
        section = Section()
        responses = []
        deadline = clock() + seconds
        while True:
            responses += self.one_pass(dep, dep.requests, section, recorder)
            section.cut()
            if clock() >= deadline:
                break
        section.attempted = len(responses)
        section.outputs["since_write"] = responses[-(self.WRITE_EVERY - 1) :]
        section.failed = sum(bad_response(r) for r in responses)
        return section

    def check(self, dep: Deployment, sections: list[Section]) -> tuple[int, int, str]:
        """The requests since the last write score the same when asked again."""
        last = sections[-1].outputs["since_write"]
        again = [
            dep.turbo.predict(replace(request, now=dep.now))
            for request in dep.requests[-len(last) :]
        ]
        failed = sum(a.probability != b.probability for a, b in zip(last, again))
        return len(last), failed, digest(np.array(dep.reference))


# ----------------------------------------------------------------------
# Ingest
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Stream:
    server: BNServer
    registry: MetricsRegistry
    steps: Iterator[tuple[float, list[BehaviorLog]]]
    #: the BN as the warm-up pass left it, and its edge count.
    digest: str
    edges: int
    steps_done: int = 0


class IngestStream:
    """Logs delivered hour by hour to a BN server in TTL steady state.

    A pass is the dataset's last ``PASS_DAYS`` days, replayed one span later
    each time.  The edge TTL is 60 days, half a pass: while one half of the
    span is delivered the edges of the other half expire, so every pass
    creates and expires every edge of the span once, and ends in the BN the
    pass before it ended in.
    """

    name = "ingest_stream"
    unit = "logs"
    PASS_DAYS = 120
    #: share of the logs, drawn by the seed, that the stream leaves out.
    DROPPED = 0.1

    def setup(self, seed: int) -> Stream:
        dataset = make_d1(scale=SCALE, seed=DATASET_SEED)
        kept = np.random.default_rng(seed).random(len(dataset.logs)) >= self.DROPPED
        logs = [log for log, keep in zip(dataset.logs, kept) if keep]
        registry = MetricsRegistry()
        server = BNServer(
            BNBuilder(windows=FAST_WINDOWS), LatencyModel(seed=0), metrics=registry
        )
        span = self.PASS_DAYS * DAY
        steps = hour_stream(logs, dataset.end_time - span, span)
        for _ in range(self.PASS_DAYS * 24):
            end, batch = next(steps)
            server.ingest(batch)
            server.run_due_jobs(end)
        return Stream(server, registry, steps, bn_digest(server.bn), server.bn.num_edges())

    def run(self, stream: Stream, seconds: float, recorder: Recorder) -> Section:
        section = Section()
        server = stream.server
        edges = []
        deadline = clock() + seconds
        while True:
            for _ in range(self.PASS_DAYS * 24):
                end, batch = next(stream.steps)
                recorder.op = stream.steps_done
                start = clock()
                try:
                    server.ingest(batch)
                except ValueError:  # the batch was rejected
                    section.failed += 1
                else:
                    server.run_due_jobs(end)
                stop = clock()
                section.record(stop - start, len(batch), samples=1 if batch else 0)
                section.attempted += 1
                stream.steps_done += 1
            section.cut()
            edges.append(server.bn.num_edges())
            if clock() >= deadline:
                break
        section.outputs["edges"] = edges
        return section

    def check(self, stream: Stream, sections: list[Section]) -> tuple[int, int, str]:
        """Every pass ends with as many edges as the warm-up pass did."""
        bn = stream.server.bn
        contributions = stream.registry.counter("bn.ingest.contributions").value
        ends = [count for section in sections for count in section.outputs["edges"]]
        failed = (
            int(bn.num_edges() != bn.num_edges_scan())
            + int(contributions <= 0)
            + sum(count != stream.edges for count in ends)
        )
        return 2 + len(ends), failed, stream.digest


def bn_digest(bn: BehaviorNetwork) -> str:
    snapshot = bn.to_arrays()
    arrays = [snapshot.node_ids]
    for btype in sorted(snapshot.edges, key=lambda t: t.value):
        typed = snapshot.edges[btype]
        arrays += [typed.rows, typed.cols, typed.weights, typed.last_update]
    return digest(*arrays)


WORKLOADS = {w.name: w for w in (IngestStream(), ServeScalar(), ServeBatch(), ServeLive())}
