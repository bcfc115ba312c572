"""Feature server tests: assembly correctness + cache economics."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.features import FeatureManager
from repro.system import FeatureServer, InMemoryCache, LatencyModel
from repro.system.storage import StorageError

from tests.oracles.feature_charging import FeatureChargingOracle


def build(tiny_dataset, cache: bool):
    latency = LatencyModel(jitter_sigma=0.0, seed=0)
    manager = FeatureManager(tiny_dataset, include_stats=True)
    server = FeatureServer(
        manager,
        latency,
        cache=InMemoryCache(latency) if cache else None,
    )
    return server, manager


class TestFeatureServer:
    def test_rows_align_with_nodes(self, tiny_dataset):
        server, manager = build(tiny_dataset, cache=False)
        txn = tiny_dataset.transactions[0]
        nodes = [txn.uid] + [u.uid for u in tiny_dataset.users[:3] if u.uid != txn.uid]
        matrix, seconds = server.features_for(nodes, txn, now=txn.audit_at)
        assert matrix.shape == (len(nodes), manager.dim)
        assert seconds > 0

    def test_target_row_uses_target_transaction(self, tiny_dataset):
        server, manager = build(tiny_dataset, cache=False)
        by_user = tiny_dataset.transactions_by_user()
        uid, txns = next((u, t) for u, t in by_user.items() if len(t) >= 2)
        early, late = sorted(txns, key=lambda t: t.created_at)[:2]
        row_early, _ = server.features_for([uid], early, now=early.audit_at)
        row_late, _ = server.features_for([uid], late, now=late.audit_at)
        assert not np.allclose(row_early, row_late)

    def test_unknown_context_node_zero_row(self, tiny_dataset):
        server, manager = build(tiny_dataset, cache=False)
        txn = tiny_dataset.transactions[0]
        matrix, _ = server.features_for([txn.uid, 10**9], txn, now=txn.audit_at)
        np.testing.assert_allclose(matrix[1], 0.0)

    def test_cache_cuts_latency(self, tiny_dataset):
        cached, _ = build(tiny_dataset, cache=True)
        uncached, _ = build(tiny_dataset, cache=False)
        txn = tiny_dataset.transactions[0]
        nodes = [txn.uid] + [u.uid for u in tiny_dataset.users[:10] if u.uid != txn.uid]
        _, cold = cached.features_for(nodes, txn, now=txn.audit_at)
        _, warm = cached.features_for(nodes, txn, now=txn.audit_at)
        _, disk = uncached.features_for(nodes, txn, now=txn.audit_at)
        assert warm < disk
        assert warm <= cold


def request_nodes(tiny_dataset, txn, context=6, offset=0):
    users = tiny_dataset.users[offset : offset + context + 1]
    return [txn.uid] + [u.uid for u in users if u.uid != txn.uid][:context]


def fresh_matrix(manager, server, nodes, txn, now):
    """The matrix as a store-less server would assemble it, row by row."""
    rows = [manager.vector(txn, as_of=now)]
    for uid in nodes[1:]:
        latest = server.latest_transaction(uid)
        rows.append(np.zeros(manager.dim) if latest is None else manager.vector(latest))
    return np.stack(rows)


@pytest.fixture()
def vector_calls(monkeypatch):
    """``as_of`` of every ``FeatureManager.vector`` call (None = context row)."""
    calls: list[float | None] = []
    real = FeatureManager.vector

    def counted(self, txn, as_of=None):
        calls.append(as_of)
        return real(self, txn, as_of)

    monkeypatch.setattr(FeatureManager, "vector", counted)
    return calls


class TestContextRowStore:
    def test_warm_request_computes_only_the_target_row(self, tiny_dataset, vector_calls):
        server, _ = build(tiny_dataset, cache=True)
        txn = tiny_dataset.transactions[0]
        nodes = request_nodes(tiny_dataset, txn)
        server.features_for(nodes, txn, now=txn.audit_at)
        assert len(vector_calls) == len(nodes)  # cold: every row once
        del vector_calls[:]
        server.features_for(nodes, txn, now=txn.audit_at + 60.0)
        assert vector_calls == [txn.audit_at + 60.0]

    def test_bytes_across_observe_and_refresh(self, tiny_dataset, vector_calls):
        server, manager = build(tiny_dataset, cache=True)
        txn = tiny_dataset.transactions[0]
        nodes = request_nodes(tiny_dataset, txn) + [10**9]  # one unknown user
        now = txn.audit_at

        def request():
            del vector_calls[:]
            matrix, _ = server.features_for(nodes, txn, now)
            context_computes = vector_calls.count(None)
            np.testing.assert_array_equal(
                matrix, fresh_matrix(manager, server, nodes, txn, now)
            )
            return context_computes

        assert request() == len(nodes) - 2  # cold; the unknown user is zeros
        assert request() == 0
        old = server.latest_transaction(nodes[1])
        newer = replace(
            old, txn_id=10**6, created_at=old.created_at + 3600.0,
            item_value=old.item_value * 3,
        )
        assert server.observe([newer]) == 1
        assert request() == 1  # only that user's row
        assert server.observe([old]) == 0
        assert request() == 0  # an older transaction changes nothing
        server.refresh()
        assert request() == len(nodes) - 2

    def test_stored_rows_are_read_only_and_matrices_are_the_callers(self, tiny_dataset):
        server, _ = build(tiny_dataset, cache=True)
        txn = tiny_dataset.transactions[0]
        nodes = request_nodes(tiny_dataset, txn) + [10**9]
        first, _ = server.features_for(nodes, txn, now=txn.audit_at)
        want = first.copy()
        first[:] = -1.0
        second, _ = server.features_for(nodes, txn, now=txn.audit_at)
        np.testing.assert_array_equal(second, want)
        for uid in nodes[1:]:
            row = server.context_row(uid)
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 1.0
        assert server.stats()["row_cache_rows"] == len(nodes) - 2

    def test_context_row_of_unknown_user_is_zeros(self, tiny_dataset):
        server, manager = build(tiny_dataset, cache=False)
        row = server.context_row(10**9)
        assert row.shape == (manager.dim,) and not row.any()
        assert server.stats()["row_cache_rows"] == 0.0

    def test_empty_nodes_or_no_target_is_a_value_error_before_any_charge(
        self, tiny_dataset
    ):
        latency = LatencyModel(seed=5)
        manager = FeatureManager(tiny_dataset, include_stats=True)
        server = FeatureServer(manager, latency, cache=InMemoryCache(latency))
        txn = tiny_dataset.transactions[0]
        before = latency._rng.bit_generator.state
        with pytest.raises(ValueError, match="nodes"):
            server.features_for([], txn, now=0.0)
        with pytest.raises(ValueError, match="target_txn"):
            server.features_for([txn.uid], None, now=0.0)
        assert latency._rng.bit_generator.state == before


class CrashingCache(InMemoryCache):
    """Once armed, goes down in the middle of a request: on its third lookup."""

    countdown = 0

    def lookup(self, key, now=0.0):  # the half ``get`` and a charge walk both go through
        self.countdown -= 1
        if self.countdown == 0:
            self.crash()
        return super().lookup(key, now)


class TestModeledClock:
    """The store moves wall time only: seconds, hit/compute counts and the
    ``LatencyModel`` rng state equal the frozen pre-store charging loops."""

    REQUESTS = 50

    def script(self, tiny_dataset, crash):
        """50 mixed requests with observe / refresh / recover in between."""
        txns = tiny_dataset.transactions
        steps = []
        k = 0
        while k < self.REQUESTS:
            if k == {"scalar": 11, "batch": 14}.get(crash):
                steps.append(("arm",))
            if k % 10 < 4:  # four scalar requests ...
                txn = txns[k]
                nodes = request_nodes(tiny_dataset, txn, context=8, offset=k % 7)
                steps.append(("scalar", nodes + [10**9], txn, txn.audit_at))
                k += 1
            else:  # ... then a micro-batch of six over the same neighbourhood
                batch = txns[k : k + 6]
                lists = [
                    request_nodes(tiny_dataset, t, context=8, offset=k % 5) for t in batch
                ]
                lists[2] = None  # failed upstream
                # one shared clock, so later batches land in the ledger's bucket
                nows = [tiny_dataset.end_time + 60.0 * (k + j) for j in range(6)]
                steps.append(("batch", lists, batch, nows))
                k += 6
            if k == 20:
                old = FeatureManager(tiny_dataset).latest_transactions()[3]
                newer = replace(old, txn_id=10**6, created_at=old.created_at + 3600.0)
                steps += [("observe", [newer, old])]
            if k == 30:
                steps += [("refresh",), ("recover",)]
        return steps

    def play(self, subject, steps, scalar, batch):
        out = []
        for step in steps:
            kind, *args = step
            try:
                if kind == "scalar":
                    out.append((kind, scalar(*args)))
                elif kind == "batch":
                    out.append((kind, batch(*args)))
                elif kind == "observe":
                    out.append((kind, subject.observe(*args)))
                elif kind == "refresh":
                    subject.refresh()
                elif kind == "arm":
                    subject.cache.countdown = 3
                else:
                    subject.cache.recover()
            except StorageError as error:
                out.append(("raised", str(error)))  # a scalar request's failure
        return out

    @pytest.mark.parametrize("crash", [None, "scalar", "batch"])
    @pytest.mark.parametrize("store", ["cold", "prefilled"])
    def test_charges_equal_the_frozen_loops(self, tiny_dataset, store, crash):
        manager = FeatureManager(tiny_dataset, include_stats=True)

        def make(cls):
            latency = LatencyModel(seed=11)  # jittered: every draw moves the rng
            return cls(manager, latency, cache=CrashingCache(latency))

        server, oracle = make(FeatureServer), make(FeatureChargingOracle)
        if store == "prefilled":  # as a lambda batch pass leaves it
            for uid in server.known_users():
                server.context_row(uid)
        steps = self.script(tiny_dataset, crash)

        def server_batch(lists, txns, nows):
            _, seconds, errors, stats = server.features_for_batch(lists, txns, nows)
            return seconds, [str(e) for e in errors], stats.row_cache_hits, stats.computed_rows

        def oracle_batch(lists, _txns, nows):
            seconds, errors, hits, computed = oracle.features_for_batch(lists, nows)
            return seconds, [str(e) for e in errors], hits, computed

        got = self.play(server, steps, lambda *a: server.features_for(*a)[1], server_batch)
        want = self.play(oracle, steps, oracle.features_for, oracle_batch)
        assert got == want
        raised = [x for x in got if x[0] == "raised"]
        poisoned = [e for kind, x in got if kind == "batch" for e in x[1] if e != "None"]
        assert (len(raised), len(poisoned)) == {None: (0, 0), "scalar": (1, 0), "batch": (0, 1)}[crash]
        assert server.latency._rng.bit_generator.state == oracle.latency._rng.bit_generator.state
        assert (server.row_cache_hits, server.row_cache_misses) == (
            oracle.row_cache_hits, oracle.row_cache_misses
        )
        assert server.row_cache_hits > 0  # the script does reach ledger hits
