"""Unified service API: ``Service`` protocol, ``PredictRequest``, ``TurboConfig``.

Pins the PR 3 API-redesign satellites:

* all four online servers satisfy the :class:`~repro.system.Service`
  protocol (``name`` / ``ping`` / ``stats`` / ``handle``);
* ``Turbo.predict`` takes a frozen :class:`~repro.system.PredictRequest`
  and nothing else (the positional shapes are gone: ``TypeError``);
* ``deploy_turbo`` takes a validated :class:`~repro.system.TurboConfig`,
  not loose kwargs;
* the active sampling tier satisfies the :class:`~repro.system.Sampler`
  protocol (PR 8's unification).
"""

from __future__ import annotations

import warnings

import pytest

from repro.network import FAST_WINDOWS
from repro.system import (
    PredictRequest,
    Sampler,
    Service,
    TurboConfig,
    deploy_turbo,
)

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module")
def deployed(tiny_dataset):
    return deploy_turbo(
        tiny_dataset,
        TurboConfig(windows=FAST_WINDOWS, train_epochs=5, hidden=(8, 4), seed=0),
    )


@pytest.fixture()
def turbo(deployed):
    turbo, _data = deployed
    turbo.faults.clear_plans()
    turbo.recover()
    yield turbo
    turbo.faults.clear_plans()
    turbo.recover()


class TestServiceProtocol:
    def test_all_servers_satisfy_protocol(self, turbo):
        for service in turbo.services.values():
            assert isinstance(service, Service)

    def test_services_registry_covers_pipeline(self, turbo):
        assert set(turbo.services) == {
            "bn_server",
            "feature_server",
            "prediction_server",
            "model_manager",
        }
        for name, service in turbo.services.items():
            assert service.name == name

    def test_ping_all_healthy(self, turbo):
        assert turbo.ping_all() == {name: True for name in turbo.services}

    def test_ping_all_reports_sick_component(self, turbo):
        turbo.faults.add_transient("bn_server", rate=1.0)
        pings = turbo.ping_all()
        assert pings["bn_server"] is False
        assert pings["prediction_server"] is True

    def test_service_stats_are_numeric(self, turbo):
        stats = turbo.service_stats()
        assert set(stats) == set(turbo.services)
        for per_service in stats.values():
            assert per_service, per_service
            assert all(isinstance(v, float) for v in per_service.values())

    def test_active_sampler_satisfies_protocol(self, turbo):
        sampler = turbo.bn_server.sampler
        assert isinstance(sampler, Sampler)
        assert sampler.tier in {"local", "sharded", "lambda"}


class TestPredictRequest:
    def test_uid_defaults_to_txn_uid(self, deployed):
        _, data = deployed
        txn = data.dataset.transactions[0]
        request = PredictRequest(txn=txn)
        assert request.uid == int(txn.uid)
        assert request.budget is None

    def test_frozen(self, deployed):
        _, data = deployed
        request = PredictRequest(txn=data.dataset.transactions[0])
        with pytest.raises(AttributeError):
            request.uid = 99

    def test_budget_must_be_positive(self, deployed):
        _, data = deployed
        with pytest.raises(ValueError):
            PredictRequest(txn=data.dataset.transactions[0], budget=0.0)

    def test_txn_type_checked(self):
        with pytest.raises(TypeError):
            PredictRequest(txn="not a transaction")

    def test_budget_override_degrades_request(self, deployed, turbo):
        _, data = deployed
        txn = data.dataset.transactions[1]
        response = turbo.predict(PredictRequest(txn=txn, now=txn.audit_at, budget=1e-9))
        assert response.degradation != "full"
        assert response.degradation_reason == "over_budget"


class TestPredictShim:
    def test_request_object_emits_no_warning(self, deployed, turbo):
        _, data = deployed
        txn = data.dataset.transactions[2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            turbo.predict(PredictRequest(txn=txn, now=txn.audit_at))
            turbo.handle_request(txn, now=txn.audit_at)

    def test_positional_shapes_rejected(self, deployed, turbo):
        _, data = deployed
        txn = data.dataset.transactions[3]
        with pytest.raises(TypeError, match="PredictRequest"):
            turbo.predict(txn)
        with pytest.raises(TypeError):
            turbo.predict(txn.uid, txn, txn.audit_at)

    def test_unexpected_kwargs_rejected(self, deployed, turbo):
        _, data = deployed
        txn = data.dataset.transactions[0]
        with pytest.raises(TypeError):
            turbo.predict(PredictRequest(txn=txn), bogus=1)


class TestTurboConfig:
    def test_defaults_match_paper_deployment(self):
        config = TurboConfig()
        assert config.threshold == 0.85
        assert config.request_budget == 15.0
        assert config.hops == 2
        assert config.fanout == 10

    @pytest.mark.parametrize(
        "bad",
        [
            {"threshold": 0.0},
            {"threshold": 1.5},
            {"request_budget": -1.0},
            {"train_epochs": 0},
            {"hops": -1},
            {"trace_max": 0},
            {"windows": ()},
            {"hidden": ()},
            {"shards": 2.5},
            {"shards": float("nan")},
            {"shards": True},
            {"hops": 1.5},
            {"fanout": 2.5},
            {"trace_max": 2.5},
            {"train_epochs": 1.5},
            {"request_budget": float("nan")},
            {"request_budget": float("inf")},
            {"hidden": (0,)},
            {"hidden": (-3,)},
            {"hidden": (16, 2.5)},
            {"windows": (-1.0,)},
            {"windows": (float("nan"),)},
        ],
    )
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            TurboConfig(**bad)

    def test_mixing_config_and_kwargs_rejected(self, tiny_dataset):
        with pytest.raises(TypeError):
            deploy_turbo(tiny_dataset, TurboConfig(), threshold=0.9)

    @pytest.mark.parametrize(
        "bad",
        [
            {"lambda_refresh_period": 3600.0},
            {"lambda_staleness_budget": 4},
            {"lambda_tier": True, "lambda_refresh_period": -1.0},
            {"lambda_tier": True, "lambda_staleness_budget": -1},
            {"lambda_tier": True, "lambda_refresh_period": float("nan")},
            {"lambda_tier": True, "lambda_refresh_period": float("inf")},
            {"lambda_tier": True, "lambda_staleness_budget": 0.5},
        ],
    )
    def test_lambda_knobs_validated(self, bad):
        with pytest.raises(ValueError):
            TurboConfig(**bad)

    def test_deploy_with_config_object(self, tiny_dataset):
        config = TurboConfig(
            windows=FAST_WINDOWS, train_epochs=1, hidden=(4,), seed=0, trace_max=8
        )
        turbo, data = deploy_turbo(tiny_dataset, config)
        txn = data.dataset.transactions[0]
        response = turbo.handle_request(txn, now=txn.audit_at)
        assert response.span is not None and response.span.closed
        assert turbo.tracer.max_traces == 8
