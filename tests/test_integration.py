"""Cross-module integration tests: the full pipeline at tiny scale."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    HAG,
    BNBuilder,
    classification_report,
    get_method,
    make_d1,
    prepare_aggregators,
    prepare_experiment,
    run_method,
)
from repro.core import TrainConfig, train_node_classifier
from repro.network import FAST_WINDOWS

from tests.oracles.sampling import computation_subgraph


class TestOfflinePipeline:
    def test_hag_beats_chance_end_to_end(self, tiny_experiment):
        """generator -> BN -> features -> HAG -> metrics, all wired."""
        report, scores = run_method(get_method("HAG"), tiny_experiment, seed=0)
        assert report.auc > 0.6
        assert len(scores) == len(tiny_experiment.nodes)

    def test_graph_signal_adds_over_features(self, tiny_experiment):
        """HAG (graph + features) should not lose badly to LR (features)."""
        lr_report, _ = run_method(get_method("LR"), tiny_experiment, seed=0)
        hag_report, _ = run_method(get_method("HAG"), tiny_experiment, seed=0)
        assert hag_report.auc >= lr_report.auc - 0.05

    def test_public_api_quickstart(self):
        """The README quickstart must keep working."""
        dataset = make_d1(scale=0.06, seed=3)
        data = prepare_experiment(dataset, windows=FAST_WINDOWS)
        report, _scores = run_method(get_method("GBDT"), data)
        assert 0.0 <= report.auc <= 1.0


class TestInductiveConsistency:
    def test_subgraph_prediction_close_to_full_graph(self, tiny_experiment):
        """Inductive scoring on G_v approximates the full-graph score.

        With no fanout cap the 2-hop computation subgraph contains everything
        a 2-layer HAG needs, so the prediction should be close (it is not
        exactly equal: the per-node 1/deg(v) renormalization sees only the
        subgraph's rows for nodes at the boundary).
        """
        data = tiny_experiment
        rng = np.random.default_rng(0)
        model = HAG(
            data.features.shape[1],
            n_types=len(data.edge_types),
            rng=rng,
            hidden=(16, 8),
            att_dim=8,
            cfo_att_dim=8,
            cfo_out_dim=4,
            mlp_hidden=(8,),
        )
        aggregators = prepare_aggregators(
            [data.adjacencies[t] for t in data.edge_types]
        )
        train_node_classifier(
            model,
            lambda x: model.forward(x, aggregators),
            data.features,
            data.labels,
            data.train_idx,
            data.val_idx,
            TrainConfig(epochs=10, lr=5e-3, min_epochs=5, patience=5),
        )
        full_scores = model.predict_proba(data.features, aggregators)

        allowed = set(data.nodes)
        index = {uid: i for i, uid in enumerate(data.nodes)}
        checked = 0
        errors = []
        for row in data.test_idx[:10]:
            uid = data.nodes[row]
            subgraph = computation_subgraph(
                data.bn, uid, hops=2, fanout=None, allowed=allowed,
                edge_types=data.edge_types,
            )
            features = data.features[[index[v] for v in subgraph.nodes]]
            inductive = model.predict_subgraph(
                subgraph, features, edge_type_order=data.edge_types
            )
            errors.append(abs(inductive - full_scores[row]))
            checked += 1
        assert checked > 0
        assert np.median(errors) < 0.15


class TestStreamingConsistency:
    def test_online_bn_matches_offline_on_closed_epochs(self, tiny_dataset):
        """Replaying window jobs yields the same BN as the batch builder."""
        builder = BNBuilder(windows=FAST_WINDOWS)
        until = float(np.floor(tiny_dataset.end_time / FAST_WINDOWS[-1])) * FAST_WINDOWS[-1]
        online = builder.replay(tiny_dataset.logs, until=until, expire=False)
        offline = builder.build(
            [l for l in tiny_dataset.logs if l.timestamp <= until]
        )
        # Every offline edge whose epochs all closed exists online with equal
        # weight; compare on the intersection to avoid boundary epochs.
        matched = 0
        for u, v, t, record in offline.iter_edges():
            w_online = online.weight(u, v, t)
            if w_online > 0:
                matched += 1
        assert matched >= 0.8 * offline.num_edges()
