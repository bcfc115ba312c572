"""The request lifecycle: side-effect order, the input boundary, the bound.

Three contracts of ``open -> admit -> stages -> settle -> record``
(DESIGN.md §5, "One request lifecycle, two stage runners"):

* **Side-effect order.**  The breaker, the monitor, the latency rng and
  the tracer see one literal call sequence per request mix — scalar and
  batched — whichever way the serving code is factored.  Outcomes are
  scripted at the fault gate (the one seam every server shares) and at
  ``breaker.allow``; every shim is restored in ``finally``.
* **Malformed input is not a component failure.**  A request for a user
  the feature module does not know is a ``ValueError`` at the boundary:
  before any span is opened, any node registered, any latency charged or
  the breaker consulted — scalar, batched (whole batch refused, position
  named) and through the queue front.
* **``trace_max`` bounds what a deployment retains.**  Responses pin
  their root spans, so ``Turbo.responses`` is trimmed with the tracer's
  rule; ``None`` keeps everything.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import replace

import pytest

from repro.network import FAST_WINDOWS
from repro.obs.tracing import Span
from repro.system import Arrival, PredictRequest, QueueConfig, TurboConfig, deploy_turbo
from repro.system.faults import InjectedFault

pytestmark = [pytest.mark.resilience, pytest.mark.obs]

#: a budget no healthy request reaches and one scripted 5 s spike blows.
TIGHT = 3.0
SPIKE = 5.0


def config(**overrides) -> TurboConfig:
    kwargs = dict(windows=FAST_WINDOWS, train_epochs=3, hidden=(8, 4), seed=0)
    kwargs.update(overrides)
    return TurboConfig(**kwargs)


@pytest.fixture(scope="module", params=["plain", "lambda"])
def deployed(request, tiny_dataset):
    return deploy_turbo(tiny_dataset, config(lambda_tier=request.param == "lambda"))


@pytest.fixture()
def turbo(deployed):
    turbo, _data = deployed
    turbo.faults.clear_plans()
    turbo.recover()
    yield turbo
    turbo.faults.clear_plans()
    turbo.recover()


def mixed_requests(turbo, data):
    """Eight requests, one per outcome the lifecycle distinguishes.

    0 is the user's latest application at its audit time — a lambda hit
    where the deployment has the tier, a plain served request where not;
    1–7 ask one second later, which no cached score covers.
    """
    latest = {t.uid: t for t in data.feature_manager.latest_transactions()}
    users = [int(u) for u in sorted(latest)][:8]
    if turbo.lambda_layer is not None:
        users = [int(u) for u in turbo.lambda_layer.state.node_ids[:8]]
    txns = [latest[uid] for uid in users]
    requests = [PredictRequest(txn=txns[0], now=txns[0].audit_at)]
    for k, txn in enumerate(txns[1:], start=1):
        budget = TIGHT if k in (3, 5) else None
        requests.append(PredictRequest(txn=txn, now=txn.audit_at + 1.0, budget=budget))
    return requests


class Recorder:
    """Recording shims over the lifecycle's collaborators (undo restores)."""

    def __init__(self, turbo):
        self.turbo = turbo
        self.calls: list[str] = []
        self.roots: list[Span] = []
        #: scripted answers of the shared fault gate, per component, in call
        #: order: "fault" raises, a float is charged as a latency spike.
        self.gate: dict[str, deque] = {}
        #: ordinals (0-based, over this recorder's life) ``allow`` denies.
        self.deny: set[int] = set()
        self._allowed = 0
        self._undo: list = []

    def _wrap(self, owner, name, shim):
        """Swap ``type(owner).name`` (slots classes have no instance dict);
        other instances of the class keep the original behaviour."""
        cls = type(owner)
        original = getattr(cls, name)

        def method(instance, *args, **kwargs):
            if instance is not owner:
                return original(instance, *args, **kwargs)
            return shim(lambda *a, **k: original(instance, *a, **k), *args, **kwargs)

        setattr(cls, name, method)
        self._undo.append(lambda: setattr(cls, name, original))

    def install(self):
        turbo = self.turbo
        calls = self.calls

        def allow(original):
            calls.append("allow")
            ordinal, self._allowed = self._allowed, self._allowed + 1
            answer = original()
            return False if ordinal in self.deny else answer

        def named(label):
            def shim(original, *args, **kwargs):
                calls.append(label)
                return original(*args, **kwargs)
            return shim

        def record_error(original, kind):
            calls.append(f"error:{kind}")
            return original(kind)

        def start_trace(original, name, *args, **kwargs):
            calls.append(f"trace:{name}")
            root = original(name, *args, **kwargs)
            self.roots.append(root)
            return root

        def before_call(original, component, now=None):
            plan = self.gate.get(component)
            action = plan.popleft() if plan else None
            if action == "fault":
                turbo.faults._record(component, "transient", turbo.clock.now())
                raise InjectedFault(f"{component} transient error (scripted)")
            return original(component, now=now) + (action or 0.0)

        self._wrap(turbo.breaker, "allow", allow)
        self._wrap(turbo.breaker, "record_success", named("success"))
        self._wrap(turbo.breaker, "record_failure", named("failure"))
        self._wrap(turbo.monitor, "record_error", record_error)
        self._wrap(turbo.prediction_server.latency, "charge_fallback", named("fallback"))
        self._wrap(turbo.tracer, "start_trace", start_trace)
        self._wrap(turbo.faults, "before_call", before_call)
        return self

    def undo(self):
        while self._undo:
            self._undo.pop()()


def outcome(response):
    return (response.tier, response.degradation, response.degradation_reason)


def child_names(root):
    return [child.name for child in root.children]


def test_micro_batch_side_effect_order(deployed, turbo):
    _, data = deployed
    lam = turbo.lambda_layer is not None
    requests = mixed_requests(turbo, data)
    recorder = Recorder(turbo).install()
    try:
        # Who enters each stage, hence which gate call belongs to whom.
        recorder.deny = {0 if lam else 1}  # request 1's allow()
        admitted = [i for i in range(8) if i != 1 and not (lam and i == 0)]
        sampled = [i for i in admitted if i != 2]
        featured = [i for i in sampled if i != 3]
        recorder.gate["bn_server"] = deque(
            "fault" if i == 2 else None for i in admitted
        )
        recorder.gate["feature_server"] = deque(
            SPIKE if i == 3 else None for i in sampled
        )
        recorder.gate["prediction_server"] = deque(
            {4: "fault", 5: SPIKE}.get(i) for i in featured
        )
        started = turbo.tracer.started
        responses = turbo.predict_batch(requests)
    finally:
        recorder.undo()

    assert [outcome(r) for r in responses] == [
        ("lambda" if lam else "sampled", "full", ""),
        ("sampled", "scorecard", "circuit_open"),
        ("sampled", "scorecard", "graph_path_down"),
        ("sampled", "scorecard", "over_budget"),
        ("sampled", "scorecard", "graph_path_down"),
        ("sampled", "scorecard", "over_budget"),
        ("sampled", "full", ""),
        ("sampled", "full", ""),
    ]
    assert recorder.calls == (
        ["trace:batch"] + ["trace:request"] * 8
        + ["allow"] * (7 if lam else 8)
        # bn_sample: request 2's gate fault
        + ["error:InjectedFault", "failure"]
        # feature_fetch: request 3 over budget (no error counted)
        + ["failure"]
        # inference: the gate pre-pass first (request 4), then per request in
        # order, failures and successes interleaved
        + ["error:InjectedFault", "failure"]
        + ([] if lam else ["success"])
        + ["failure", "success", "success"]
        # settle: the five unanswered requests degrade in request order
        + ["fallback"] * 5
    )
    # Span ids are allocation-ordered: the batch root, then every request
    # root in request order; each root's children in stage order.
    batch, roots = recorder.roots[0], recorder.roots[1:]
    assert batch.span_id == f"t{started + 1:08d}.0"
    assert [root.span_id for root in roots] == [
        f"{batch.span_id}.r{started + 2 + i}" for i in range(8)
    ]
    assert [response.span for response in responses] == roots
    assert child_names(batch) == ["bn_sample", "feature_fetch", "inference"]
    assert [child.span_id for child in batch.children] == [
        f"{batch.span_id}.{k}" for k in (1, 2, 3)
    ]
    assert [child_names(root) for root in roots] == [
        ["lambda_delta"] if lam else ["bn_sample", "feature_fetch", "inference"],
        ["fallback"],
        ["bn_sample", "fallback"],
        ["bn_sample", "feature_fetch", "fallback"],
        ["bn_sample", "feature_fetch", "inference", "fallback"],
        ["bn_sample", "feature_fetch", "inference", "fallback"],
        ["bn_sample", "feature_fetch", "inference"],
        ["bn_sample", "feature_fetch", "inference"],
    ]
    # The stage spans count who *entered* the stage, not the survivors.
    assert [child.attributes["requests"] for child in batch.children] == [
        len(admitted), len(sampled), len(featured),
    ]
    assert turbo.tracer.open_traces() == 0
    assert turbo.responses[-8:] == responses
    assert (turbo.breaker.state, turbo.breaker.consecutive_failures) == ("closed", 0)


def test_scalar_side_effect_order(deployed, turbo):
    _, data = deployed
    lam = turbo.lambda_layer is not None
    requests = mixed_requests(turbo, data)
    attempts = turbo.retry_policy.max_attempts
    plans = {
        2: {"bn_server": ["fault"] * attempts},
        3: {"feature_server": [SPIKE]},
        4: {"prediction_server": ["fault"] * attempts},
        5: {"prediction_server": [SPIKE]},
    }
    # A served request between the failures: three in a row would open the
    # breaker for real and turn the rest into ``circuit_open``.
    order = [0, 1, 2, 3, 6, 4, 5, 7]
    recorder = Recorder(turbo).install()
    responses, per_request = {}, {}
    try:
        recorder.deny = {0 if lam else 1}  # request 1's allow()
        for i in order:
            recorder.gate = {k: deque(v) for k, v in plans.get(i, {}).items()}
            mark = len(recorder.calls)
            responses[i] = turbo.predict(requests[i])
            per_request[i] = recorder.calls[mark:]
    finally:
        recorder.undo()

    fault = ["error:InjectedFault"] * attempts + ["failure", "fallback"]
    assert per_request == {
        0: ["trace:request"] if lam else ["trace:request", "allow", "success"],
        1: ["trace:request", "allow", "fallback"],
        2: ["trace:request", "allow"] + fault,
        3: ["trace:request", "allow", "failure", "fallback"],
        4: ["trace:request", "allow"] + fault,
        5: ["trace:request", "allow", "failure", "fallback"],
        6: ["trace:request", "allow", "success"],
        7: ["trace:request", "allow", "success"],
    }
    assert {i: outcome(r) for i, r in responses.items()} == {
        0: ("lambda" if lam else "sampled", "full", ""),
        1: ("sampled", "scorecard", "circuit_open"),
        2: ("sampled", "scorecard", "graph_path_down"),
        3: ("sampled", "scorecard", "over_budget"),
        4: ("sampled", "scorecard", "graph_path_down"),
        5: ("sampled", "scorecard", "over_budget"),
        6: ("sampled", "full", ""),
        7: ("sampled", "full", ""),
    }
    # ``retries`` counts replays of stages that went on to succeed; a stage
    # that exhausts its attempts raises before reporting its count.
    assert {r.retries for r in responses.values()} == {0}
    assert [responses[i].span for i in order] == recorder.roots
    assert {i: child_names(r.span) for i, r in responses.items()} == {
        0: ["lambda_delta"] if lam else ["bn_sample", "feature_fetch", "inference"],
        1: ["fallback"],
        2: ["bn_sample", "fallback"],
        3: ["bn_sample", "feature_fetch", "fallback"],
        4: ["bn_sample", "feature_fetch", "inference", "fallback"],
        5: ["bn_sample", "feature_fetch", "inference", "fallback"],
        6: ["bn_sample", "feature_fetch", "inference"],
        7: ["bn_sample", "feature_fetch", "inference"],
    }
    assert turbo.tracer.open_traces() == 0
    assert turbo.responses[-8:] == [responses[i] for i in order]


# ----------------------------------------------------------------------
# The input boundary: unknown users
# ----------------------------------------------------------------------
def observed(turbo):
    """Everything a refused request must leave as it was."""
    bn = turbo.bn_server.bn
    counters = dict(turbo.metrics.snapshot()["counters"])
    return (
        bn.version,
        bn.num_nodes(),
        turbo.tracer.started,
        turbo.tracer.open_traces(),
        len(turbo.responses),
        counters,
        turbo.clock.now(),
        turbo.breaker.short_circuited,
        turbo.prediction_server.latency._rng.bit_generator.state["state"]["state"],
    )


UNKNOWN = 10**9


def test_unknown_user_is_refused_before_the_lifecycle_opens(deployed, turbo):
    _, data = deployed
    good = data.dataset.transactions[0]
    bad = replace(good, uid=UNKNOWN)
    before = observed(turbo)
    with pytest.raises(ValueError, match=f"unknown user {UNKNOWN}"):
        turbo.predict(PredictRequest(txn=bad))
    with pytest.raises(ValueError, match=f"unknown user {UNKNOWN}"):
        turbo.handle_request(bad, now=good.audit_at)
    assert observed(turbo) == before
    assert UNKNOWN not in turbo.bn_server.bn


@pytest.mark.parametrize("position", [0, 2])
def test_unknown_user_refuses_the_whole_batch_up_front(deployed, turbo, position):
    _, data = deployed
    txns = list(data.dataset.transactions[:3])
    txns[position] = replace(txns[position], uid=UNKNOWN)
    before = observed(turbo)
    with pytest.raises(ValueError, match=rf"unknown user {UNKNOWN} \(request {position}\)"):
        turbo.predict_batch([PredictRequest(txn=txn) for txn in txns])
    assert observed(turbo) == before
    assert UNKNOWN not in turbo.bn_server.bn


def test_unknown_user_through_the_queue_front(deployed, turbo):
    _, data = deployed
    good = data.dataset.transactions[0]
    bad = replace(good, uid=UNKNOWN)
    start = turbo.clock.now()
    arrivals = [
        Arrival(at=start, txn=txn, uid=int(txn.uid), priority="standard",
                priority_rank=1, deadline=start + 30.0)
        for txn in (good, bad)
    ]
    frontend = turbo.frontend(QueueConfig(batch_size=2))
    before = observed(turbo)  # after the front registered its own series
    with pytest.raises(ValueError, match=rf"unknown user {UNKNOWN} \(arrival 1\)"):
        frontend.run(arrivals)
    assert observed(turbo) == before  # nothing offered, queued, opened or served
    assert UNKNOWN not in turbo.bn_server.bn
    assert not frontend.records and frontend.queue.depth == 0


# ----------------------------------------------------------------------
# The retention bound: trace_max
# ----------------------------------------------------------------------
def live_spans() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Span)


def test_trace_max_bounds_responses_and_their_spans(tiny_dataset):
    bound = 10
    baseline = live_spans()
    turbo, data = deploy_turbo(tiny_dataset, config(trace_max=bound, train_epochs=1))
    txns = data.dataset.transactions
    for txn in txns[:40]:
        turbo.predict(PredictRequest(txn=txn, now=txn.audit_at))
    for k in range(0, 40, 8):
        turbo.predict_batch(
            [PredictRequest(txn=txn, now=txn.audit_at) for txn in txns[k : k + 8]]
        )
    start = turbo.clock.now()
    arrivals = [
        Arrival(at=start, txn=txn, uid=int(txn.uid), priority="standard",
                priority_rank=1, deadline=start + 30.0)
        for txn in txns[:30]
    ]
    frontend = turbo.frontend(QueueConfig(max_depth=4, batch_size=4))
    records = frontend.run(arrivals)
    assert sum(1 for r in records if not r.served) > bound  # shed requests too
    served = int(turbo.metrics.snapshot()["counters"]["turbo.requests"])
    assert served == 40 + 40 + len(records)

    assert len(turbo.tracer.traces) == bound
    assert len(turbo.responses) == bound
    assert turbo.responses == [r.response for r in records][-bound:]
    del records, frontend, arrivals
    # A request's tree is at most 5 spans (root, three stages, fallback),
    # a batch root holds 3 more and a queued root 2: a small multiple.
    assert live_spans() - baseline <= 8 * bound


def test_trace_max_none_keeps_every_response(deployed, turbo):
    _, data = deployed
    assert turbo.tracer.max_traces is None
    kept = len(turbo.responses)
    for txn in data.dataset.transactions[:12]:
        turbo.predict(PredictRequest(txn=txn, now=txn.audit_at))
    assert len(turbo.responses) == kept + 12
