"""A non-finite feature is refused, not served as a full-quality decision.

One ``nan`` (or ``inf``) in a feature row used to come back from
``PredictionServer.predict`` as ``(nan, seconds)`` and from ``Turbo.predict``
as ``probability=nan, degradation="full", tier="sampled"``.  The model now
raises ``ValueError("features must be finite ...")`` on the scaled (packed)
matrix before the forward, the latency charge and ``requests_served``; the
batched form names the request's position; ``Turbo.predict`` lets it
propagate.

A micro-batch whose ``gate_extras`` is not one per subgraph used to come
back with fewer ``seconds`` than probabilities, after the forward, the
jitter draw and the ``requests_served`` bump; it is refused the same way,
before any of them.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.network import FAST_WINDOWS
from repro.system import PredictRequest, TurboConfig, deploy_turbo


@pytest.fixture(scope="module")
def deployed(tiny_dataset):
    return deploy_turbo(
        tiny_dataset,
        TurboConfig(windows=FAST_WINDOWS, train_epochs=2, hidden=(8, 4), seed=0),
    )


@pytest.fixture()
def staged(deployed):
    """Three sampled requests with their (clean) feature matrices."""
    turbo, data = deployed
    bn_server, feature_server = turbo.bn_server, turbo.feature_server
    transactions = data.dataset.transactions[:3]
    subgraphs = [bn_server.sample(txn.uid, now=txn.audit_at)[0] for txn in transactions]
    features = [
        feature_server.features_for(subgraph.nodes, txn, txn.audit_at)[0]
        for subgraph, txn in zip(subgraphs, transactions)
    ]
    return turbo, subgraphs, features


def server_state(server):
    return server.requests_served, server.latency._rng.bit_generator.state


@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
class TestNonFiniteFeaturesAreRefused:
    def test_scalar_predict_raises_and_charges_nothing(self, staged, poison):
        turbo, subgraphs, features = staged
        server = turbo.prediction_server
        features[0][-1, 2] = poison
        before = server_state(server)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(ValueError, match="features must be finite"):
                server.predict(subgraphs[0], features[0])
            with pytest.raises(ValueError, match="features must be finite"):
                server.model.predict_subgraph(
                    subgraphs[0], features[0], edge_type_order=server.edge_type_order
                )
        assert server_state(server) == before

    def test_batch_predict_names_the_request(self, staged, poison):
        turbo, subgraphs, features = staged
        server = turbo.prediction_server
        features[1][0, 0] = poison
        before = server_state(server)
        with pytest.raises(ValueError, match=r"features must be finite .*request 1\b"):
            server.predict_batch(subgraphs, features)
        with pytest.raises(ValueError, match=r"features must be finite .*request 1\b"):
            server.model.predict_subgraphs(
                subgraphs, features, edge_type_order=server.edge_type_order
            )
        assert server_state(server) == before
        # the clean requests of the same batch are servable on their own
        probabilities, _ = server.predict_batch(subgraphs[:1], features[:1])
        assert np.isfinite(probabilities).all()

    def test_turbo_predict_lets_it_propagate(self, deployed, monkeypatch, poison):
        turbo, data = deployed
        feature_server = type(turbo.feature_server)
        features_for = feature_server.features_for

        def poisoned(self, *args, **kwargs):
            matrix, *rest = features_for(self, *args, **kwargs)
            matrix = matrix.copy()
            matrix[0, 0] = poison
            return (matrix, *rest)

        monkeypatch.setattr(feature_server, "features_for", poisoned)
        txn = data.dataset.transactions[0]
        served = turbo.prediction_server.requests_served
        with pytest.raises(ValueError, match="features must be finite"):
            turbo.predict(PredictRequest(txn=txn, now=txn.audit_at))
        assert turbo.prediction_server.requests_served == served


class TestMisSizedGateExtras:
    @pytest.mark.parametrize("extras", [[0.0, 0.0], [0.0] * 4, []], ids=["short", "long", "empty"])
    def test_batch_predict_raises_before_the_forward(self, staged, monkeypatch, extras):
        turbo, subgraphs, features = staged
        server = turbo.prediction_server
        before = server_state(server)
        forwards = []
        monkeypatch.setattr(
            server.model, "predict_subgraphs", lambda *args, **kw: forwards.append(args)
        )
        with pytest.raises(ValueError, match="one gate extra per subgraph"):
            server.predict_batch(subgraphs, features, gate_extras=extras)
        assert server_state(server) == before and forwards == []
