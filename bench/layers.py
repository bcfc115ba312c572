"""Which public callables of the program the traced pass wraps.

Span names are ``<package>.<module>.<function>`` of the callable's home
module.  ``module``/``owner`` say where the *caller* looks the name up: a
function imported ``from x import f`` into module ``y`` is wrapped in
``y``'s namespace, a method on its class.
"""

from __future__ import annotations

from typing import Any

from .trace import Target

__all__ = ["TARGETS", "ALIASES"]


def _sampling(result: Any) -> dict[str, float]:
    stats = result[3]
    return {"touches": stats.sampled_nodes, "unique": stats.unique_nodes}


def _features(result: Any) -> dict[str, float]:
    stats = result[3]
    return {"touches": stats.node_touches, "unique": stats.unique_rows}


_BN_SERVER = ("repro.system.bn_server", "BNServer")
_FEATURES = ("repro.system.feature_server", "FeatureServer")
_PREDICTION = ("repro.system.prediction_server", "PredictionServer")
_BN = ("repro.network.bn", "BehaviorNetwork")
_HAG = ("repro.core.hag", "HAG")

TARGETS: tuple[Target, ...] = (
    # serving
    Target("system.turbo.predict", "repro.system.turbo", "Turbo", "predict"),
    Target("system.turbo.predict_batch", "repro.system.turbo", "Turbo", "predict_batch"),
    Target("system.bn_server.sample", *_BN_SERVER, "sample",
           lambda r: {"nodes": r[0].num_nodes}),
    Target("system.bn_server.sample_batch", *_BN_SERVER, "sample_batch", _sampling),
    Target("network.sampling.computation_subgraphs_batch",
           "repro.system.bn_server", None, "computation_subgraphs_batch"),
    Target("system.feature_server.features_for", *_FEATURES, "features_for",
           lambda r: {"rows": r[0].shape[0]}),
    Target("system.feature_server.features_for_batch", *_FEATURES,
           "features_for_batch", _features),
    Target("features.pipeline.vector", "repro.features.pipeline", "FeatureManager", "vector"),
    Target("features.pipeline.scaler_transform",
           "repro.features.pipeline", "StandardScaler", "transform"),
    Target("system.prediction_server.predict", *_PREDICTION, "predict"),
    Target("system.prediction_server.predict_batch", *_PREDICTION, "predict_batch"),
    Target("core.hag.predict_subgraph", *_HAG, "predict_subgraph"),
    Target("core.hag.predict_subgraphs", *_HAG, "predict_subgraphs"),
    # BN write path
    Target("system.bn_server.ingest", *_BN_SERVER, "ingest"),
    Target("system.bn_server.run_due_jobs", *_BN_SERVER, "run_due_jobs",
           lambda r: {"jobs": r[0]}),
    Target("network.builder.run_window_job", "repro.network.builder", "BNBuilder",
           "run_window_job", lambda r: {"contributions": r}),
    Target("network.bn.add_weights", *_BN, "add_weights", lambda r: {"rows": r}),
    Target("network.bn.prepare_weight_groups", "repro.network.bn", None,
           "prepare_weight_groups"),
    Target("network.bn.apply_weight_groups", *_BN, "apply_weight_groups"),
    Target("network.bn.expire_edges", *_BN, "expire_edges", lambda r: {"removed": r}),
    Target("network.bn.to_arrays", *_BN, "to_arrays"),
    # model
    Target("core.hag.forward", *_HAG, "forward"),
)

#: metrics read off another span's counts: ``run_due_jobs`` returns its job
#: count but not the contributions its window jobs added.
ALIASES = {
    "system.bn_server.run_due_jobs.contributions":
        "network.builder.run_window_job.contributions",
}
