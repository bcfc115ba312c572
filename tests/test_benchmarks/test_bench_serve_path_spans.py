"""The serve path's trace targets are *reached*, not merely present.

The serve-side twin of ``test_bench_write_path_spans.py``: a target that
exists but that a request no longer calls would read 0 — the best value a
busy time can take.  This drives 20 ``Turbo.predict`` calls and 3
``predict_batch`` calls through a small deployment under
``bench.trace.patched`` and requires a span from every serve-path target,
and one ``core.hag.forward`` span per ``predict_subgraph(s)`` span — the
model's forward is still a call the harness can see, whichever spelling of
it runs.
"""

from __future__ import annotations

from bench.layers import TARGETS
from bench.trace import NAME, Recorder, patched
from repro.network import FAST_WINDOWS
from repro.system import PredictRequest, TurboConfig, deploy_turbo

SERVE_PATH = (
    "system.turbo.predict",
    "system.turbo.predict_batch",
    "system.bn_server.sample",
    "system.bn_server.sample_batch",
    "network.sampling.computation_subgraphs_batch",
    "system.feature_server.features_for",
    "system.feature_server.features_for_batch",
    "features.pipeline.vector",
    "features.pipeline.scaler_transform",
    "system.prediction_server.predict",
    "system.prediction_server.predict_batch",
    "core.hag.predict_subgraph",
    "core.hag.predict_subgraphs",
    "core.hag.forward",
)


def test_every_serve_path_target_records_spans(tiny_dataset):
    turbo, data = deploy_turbo(
        tiny_dataset,
        TurboConfig(windows=FAST_WINDOWS, train_epochs=1, hidden=(8, 4), seed=0),
    )
    requests = [
        PredictRequest(txn=txn, now=txn.audit_at) for txn in data.dataset.transactions[:44]
    ]
    recorder = Recorder()
    targets = [target for target in TARGETS if target.name in SERVE_PATH]
    assert len(targets) == len(SERVE_PATH)
    with patched(recorder, targets) as targets_missing:
        scalar = [turbo.predict(request) for request in requests[:20]]
        batched = [turbo.predict_batch(requests[20 + 8 * k : 28 + 8 * k]) for k in range(3)]
    assert targets_missing == []
    assert all(r.degradation == "full" for r in scalar + sum(batched, []))

    calls = {name: sum(span[NAME] == name for span in recorder.spans) for name in SERVE_PATH}
    assert all(calls.values()), calls
    assert calls["system.turbo.predict"] == calls["core.hag.predict_subgraph"] == 20
    assert calls["system.turbo.predict_batch"] == calls["core.hag.predict_subgraphs"] == 3
    assert calls["core.hag.forward"] == 20 + 3
