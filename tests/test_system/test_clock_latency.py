"""SimulatedClock + LatencyModel tests."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.network import FAST_WINDOWS, BNBuilder
from repro.system import (
    BNServer,
    InMemoryCache,
    LatencyBreakdown,
    LatencyModel,
    LocalDatabase,
    SimulatedClock,
    StorageError,
)


class TestSimulatedClock:
    def test_advance(self):
        clock = SimulatedClock(start=10.0)
        assert clock.advance(5.0) == 15.0
        assert clock.now() == 15.0

    def test_advance_backwards_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1.0)

    def test_advance_to_is_monotone(self):
        clock = SimulatedClock(start=10.0)
        clock.advance_to(5.0)
        assert clock.now() == 10.0
        clock.advance_to(20.0)
        assert clock.now() == 20.0


class TestLatencyModel:
    def test_costs_positive_and_scale_with_rows(self):
        model = LatencyModel(jitter_sigma=0.0, seed=0)
        assert model.charge_db_query(1000) > model.charge_db_query(1)
        assert model.charge_cache_get() < model.charge_db_query(1)

    def test_no_jitter_deterministic(self):
        model = LatencyModel(jitter_sigma=0.0, seed=0)
        assert model.charge_db_query(5) == model.charge_db_query(5)

    def test_jitter_produces_spread(self):
        model = LatencyModel(seed=0)
        samples = [model.charge_db_query(10) for _ in range(200)]
        assert np.std(samples) > 0.0

    def test_model_forward_scales_with_nodes(self):
        model = LatencyModel(jitter_sigma=0.0)
        assert model.charge_model_forward(500) > model.charge_model_forward(10)

    def test_mem_scan_cheaper_than_db(self):
        model = LatencyModel(jitter_sigma=0.0)
        assert model.charge_mem_scan(200) < model.charge_db_query(200)


class TestBreakdown:
    def test_total_and_millis(self):
        breakdown = LatencyBreakdown(sampling=0.1, features=0.5, prediction=0.2)
        assert breakdown.total == pytest.approx(0.8)
        millis = breakdown.as_millis()
        assert millis["total_ms"] == pytest.approx(800.0)
        assert millis["feature_ms"] == pytest.approx(500.0)


class TestNonFiniteInputsAreRefused:
    """A NaN on the modeled clock is silent and permanent: no crash window,
    TTL or ledger-bucket comparison is ever true again."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
    @pytest.mark.parametrize("name", ["db_query", "cache_get", "mem_row", "jitter_sigma"])
    def test_latency_field(self, name, bad):
        with pytest.raises(ValueError, match=name):
            LatencyModel(**{name: bad})

    def test_every_cost_field_is_checked_and_zero_is_allowed(self):
        costs = [
            spec.name for spec in dataclasses.fields(LatencyModel)
            if spec.name not in ("seed", "_rng")
        ]
        assert len(costs) == 13
        for name in costs:
            LatencyModel(**{name: 0.0})
            with pytest.raises(ValueError, match=name):
                LatencyModel(**{name: float("nan")})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_clock(self, bad):
        clock = SimulatedClock(start=10.0)
        with pytest.raises(ValueError):
            clock.advance(bad)
        with pytest.raises(ValueError):
            clock.advance_to(bad)
        assert clock.now() == 10.0


class TestOneDrawPerWalk:
    """The stream contract plan -> draw once -> price rests on."""

    @pytest.mark.parametrize("sigma", [0.35, 1.2])
    def test_vector_draw_is_k_scalar_draws(self, sigma):
        scalar, vector = np.random.default_rng(5), np.random.default_rng(5)
        for k in [3, 0, 1, 200, 1, 0, 7, 45, 155, 2]:
            want = [float(scalar.lognormal(0.0, sigma)) for _ in range(k)]
            got = vector.lognormal(0.0, sigma, size=k).tolist()
            assert got == want
            assert vector.bit_generator.state == scalar.bit_generator.state

    def test_jitters_match_the_scalar_charges(self):
        scalar, vector = LatencyModel(seed=9), LatencyModel(seed=9)
        for k in [4, 0, 1, 23]:
            want = [scalar.charge_network() for _ in range(k)]
            got = [vector.network_rtt * j for j in vector.jitters(k)]
            assert got == want
            assert vector._rng.bit_generator.state == scalar._rng.bit_generator.state

    def test_without_jitter_nothing_is_drawn(self):
        model = LatencyModel(jitter_sigma=0.0, seed=4)
        before = model._rng.bit_generator.state
        assert model.jitters(5) == [1.0] * 5 and model.jitters(0) == []
        assert model.price(0.25, [[0.0, 0.5, 0.125], [0.5]]) == 0.25 + (0.5 + 0.125) + 0.5
        assert model._rng.bit_generator.state == before

    def test_price_folds_as_the_scalar_sums_did(self):
        """``start``, then ops left to right, then the term joins the total."""
        scalar, planned = LatencyModel(seed=2), LatencyModel(seed=2)
        gate, spike, probe = 0.3, 0.0123, 0.0456
        want = gate
        want += scalar.charge_network()
        want += probe
        for rows in (3, 0, 11):
            node = 0.0
            node += (scalar.charge_cache_get() + spike) + scalar.charge_cache_get()
            node += scalar.charge_db_query(rows) + spike
            for _ in range(2):
                node += scalar.charge_mem_scan(rows)
            want += node
        terms = [[0.0, planned.network_rtt, 0.0], [probe]]
        for rows in (3, 0, 11):
            scan = [planned.mem_scan_cost(rows), 0.0] * 2
            terms.append([
                0.0, planned.cache_get, spike, planned.cache_get, 0.0,
                planned.db_query_cost(rows), spike, *scan,
            ])
        assert planned.price(gate, terms) == want
        assert planned._rng.bit_generator.state == scalar._rng.bit_generator.state

    @pytest.mark.parametrize("cut", range(1, 9))
    def test_a_walk_cut_short_draws_for_the_ops_that_completed(self, cut):
        """A transient at the cache's ``cut``-th gate: the latency rng stands
        where the scalar charges completed before it would have left it."""

        class Gate:  # the one FaultInjector method a store calls
            calls = 0

            def before_call(self, component):
                self.calls += 1
                if self.calls == cut:
                    raise StorageError("transient")
                return 0.0

            def crashed(self, component):
                return False

        def play(walk):
            latency = LatencyModel(seed=6)
            cache = InMemoryCache(latency, faults=Gate())
            with pytest.raises(StorageError):
                walk(latency, cache, LocalDatabase(latency))
            return latency._rng.bit_generator.state

        nodes = [4, 5, 6, 7, 8]  # every lookup misses: get, query, set per node

        def scalar(latency, cache, database):
            latency.charge_network()
            for node in nodes:
                _value, hit, _cost = cache.get(("adj", node))
                latency.sample_per_node * latency._jitter()
                assert not hit
                database.query("edges", node)
                cache.set(("adj", node), True)

        def planned(latency, cache, database):
            server = BNServer(BNBuilder(windows=FAST_WINDOWS), latency, database, cache)
            server._charge_adjacency(0.0, nodes, 0.0, set())

        assert play(planned) == play(scalar)
