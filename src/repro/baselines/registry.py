"""Uniform method registry: every Table III competitor behind one signature.

Each entry is a callable ``(data: ExperimentData, seed: int) -> scores`` that
trains on ``data.train_idx`` (+ ``data.val_idx`` for early stopping) and
returns a fraud score for *every* node, so the runner can evaluate any subset.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core.hag import HAG, prepare_aggregators
from ..core.trainer import TrainConfig, train_node_classifier
from ..eval.runner import ExperimentData
from .blp import BLPClassifier
from .deeptrax import DeepTraxEmbedder
from .dnn import DNNClassifier
from .gat import GAT, gat_edges
from .gbdt import GradientBoostingClassifier
from .gcn import GCN, gcn_aggregator
from .graphsage import GraphSAGE, sage_aggregator
from .logistic import LogisticRegression
from .svm import LinearSVM

__all__ = ["METHODS", "method_names", "get_method", "hag_method"]

#: Shared GNN architecture settings.  ``paper`` matches Section VI-A
#: (hidden 128/64, MLP 32, attention 64); ``small`` is the default used by
#: the benchmarks to keep end-to-end runs fast at laptop scale.
GNN_SIZES: dict[str, dict] = {
    "paper": {"hidden": (128, 64), "mlp_hidden": (32,), "att_dim": 64},
    "small": {"hidden": (64, 32), "mlp_hidden": (16,), "att_dim": 32},
}

_SIZE = "small"
_EPOCHS = 200
_LR = 5e-3


def _gnn_kwargs() -> dict:
    return dict(GNN_SIZES[_SIZE])


def _train_config(data: ExperimentData, seed: int) -> TrainConfig:
    # All GNN-family methods share the same protocol: Adam, full-ratio
    # positive re-weighting (the paper's D1 is heavily imbalanced), and
    # validation-based early stopping.
    return TrainConfig(
        epochs=_EPOCHS,
        lr=_LR,
        patience=30,
        min_epochs=30,
        seed=seed,
        pos_weight=data.pos_weight() ** 2,
    )


# ----------------------------------------------------------------------
# Handcrafted-feature methods
# ----------------------------------------------------------------------
def lr_method(data: ExperimentData, seed: int) -> np.ndarray:
    model = LogisticRegression()
    idx = data.fit_idx
    model.fit(data.features[idx], data.labels[idx])
    return model.predict_proba(data.features)


def svm_method(data: ExperimentData, seed: int) -> np.ndarray:
    model = LinearSVM(seed=seed)
    idx = data.fit_idx
    model.fit(data.features[idx], data.labels[idx])
    return model.predict_proba(data.features)


def gbdt_method(data: ExperimentData, seed: int) -> np.ndarray:
    model = GradientBoostingClassifier(seed=seed)
    idx = data.fit_idx
    model.fit(data.features_raw[idx], data.labels[idx])
    return model.predict_proba(data.features_raw)


def dnn_method(data: ExperimentData, seed: int) -> np.ndarray:
    model = DNNClassifier(seed=seed)
    model.fit(
        data.features[data.train_idx],
        data.labels[data.train_idx],
        data.features[data.val_idx],
        data.labels[data.val_idx],
    )
    return model.predict_proba(data.features)


# ----------------------------------------------------------------------
# Homogeneous GNNs
# ----------------------------------------------------------------------
def gcn_method(data: ExperimentData, seed: int) -> np.ndarray:
    kwargs = _gnn_kwargs()
    kwargs.pop("att_dim")
    model = GCN(data.features.shape[1], np.random.default_rng(seed), **kwargs)
    aggregator = gcn_aggregator(data.merged)
    train_node_classifier(
        model,
        lambda x: model.forward(x, aggregator),
        data.features,
        data.labels,
        data.train_idx,
        data.val_idx,
        _train_config(data, seed),
    )
    return model.predict_proba(data.features, aggregator)


def graphsage_method(data: ExperimentData, seed: int) -> np.ndarray:
    kwargs = _gnn_kwargs()
    kwargs.pop("att_dim")
    model = GraphSAGE(data.features.shape[1], np.random.default_rng(seed), **kwargs)
    aggregator = sage_aggregator(data.merged)
    train_node_classifier(
        model,
        lambda x: model.forward(x, aggregator),
        data.features,
        data.labels,
        data.train_idx,
        data.val_idx,
        _train_config(data, seed),
    )
    return model.predict_proba(data.features, aggregator)


def gat_method(data: ExperimentData, seed: int) -> np.ndarray:
    kwargs = _gnn_kwargs()
    kwargs.pop("att_dim")
    model = GAT(data.features.shape[1], np.random.default_rng(seed), **kwargs)
    edges = gat_edges(data.merged)
    train_node_classifier(
        model,
        lambda x: model.forward(x, edges),
        data.features,
        data.labels,
        data.train_idx,
        data.val_idx,
        _train_config(data, seed),
    )
    return model.predict_proba(data.features, edges)


# ----------------------------------------------------------------------
# Graph-based fraud detection baselines
# ----------------------------------------------------------------------
def blp_method(data: ExperimentData, seed: int) -> np.ndarray:
    idx = data.fit_idx
    uids = [data.nodes[i] for i in idx]
    model = BLPClassifier(gbdt_params={"seed": seed})
    model.fit(data.dataset.logs, uids, data.labels[idx], data.features_raw[idx])
    return model.predict_proba(data.nodes, data.features_raw)


def _dtx_scores(data: ExperimentData, seed: int, with_features: bool) -> np.ndarray:
    embedder = DeepTraxEmbedder(seed=seed)
    embeddings = embedder.fit_transform(data.dataset.logs, data.nodes, data.edge_types)
    design = (
        np.hstack([embeddings, data.features_raw]) if with_features else embeddings
    )
    idx = data.fit_idx
    classifier = GradientBoostingClassifier(seed=seed)
    classifier.fit(design[idx], data.labels[idx])
    return classifier.predict_proba(design)


def dtx1_method(data: ExperimentData, seed: int) -> np.ndarray:
    return _dtx_scores(data, seed, with_features=False)


def dtx2_method(data: ExperimentData, seed: int) -> np.ndarray:
    return _dtx_scores(data, seed, with_features=True)


# ----------------------------------------------------------------------
# HAG and its Table V ablations
# ----------------------------------------------------------------------
def hag_method(
    use_sao: bool = True,
    use_cfo: bool = True,
    masked_types: Sequence = (),
) -> Callable[[ExperimentData, int], np.ndarray]:
    """Build a HAG method closure; ``masked_types`` supports Fig. 7."""

    def method(data: ExperimentData, seed: int) -> np.ndarray:
        masked = set(masked_types)
        types = [t for t in data.edge_types if t not in masked]
        kwargs = _gnn_kwargs()
        model = HAG(
            data.features.shape[1],
            n_types=len(types),
            rng=np.random.default_rng(seed),
            hidden=kwargs["hidden"],
            att_dim=kwargs["att_dim"],
            cfo_att_dim=kwargs["att_dim"],
            cfo_out_dim=8,
            mlp_hidden=kwargs["mlp_hidden"],
            use_sao=use_sao,
            use_cfo=use_cfo,
        )
        if use_cfo:
            adjacencies = [data.adjacencies[t] for t in types]
        else:
            merged = data.adjacencies[types[0]].copy()
            for t in types[1:]:
                merged = merged + data.adjacencies[t]
            adjacencies = [merged.tocsr()]
        aggregators = prepare_aggregators(adjacencies)
        train_node_classifier(
            model,
            lambda x: model.forward(x, aggregators),
            data.features,
            data.labels,
            data.train_idx,
            data.val_idx,
            _train_config(data, seed),
        )
        return model.predict_proba(data.features, aggregators)

    return method


#: Table III method table (name -> callable).
METHODS: dict[str, Callable[[ExperimentData, int], np.ndarray]] = {
    "LR": lr_method,
    "SVM": svm_method,
    "GBDT": gbdt_method,
    "DNN": dnn_method,
    "GCN": gcn_method,
    "GraphSAGE": graphsage_method,
    "GAT": gat_method,
    "BLP": blp_method,
    "DTX1": dtx1_method,
    "DTX2": dtx2_method,
    "HAG": hag_method(),
    "HAG-SAO(-)": hag_method(use_sao=False),
    "HAG-CFO(-)": hag_method(use_cfo=False),
    "HAG-Both(-)": hag_method(use_sao=False, use_cfo=False),
}


def method_names() -> list[str]:
    """Names of all registered detection methods."""
    return list(METHODS)


def get_method(name: str) -> Callable[[ExperimentData, int], np.ndarray]:
    """Look up a registered method by name (KeyError if unknown)."""
    try:
        return METHODS[name]
    except KeyError:
        raise KeyError(f"unknown method {name!r}; known: {sorted(METHODS)}") from None
