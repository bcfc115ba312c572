"""Batched feature assembly + latest-transaction visibility contracts.

Pins the feature-server half of the batched serving PR:

* ``features_for_batch`` matrices are bit-for-bit what per-request
  ``features_for`` calls return, while unique context rows are charged and
  computed once per batch (the coalescing economics);
* the ``(uid, time-bucket)`` feature-row cache serves bit-identical rows;
* the latest-transaction table is *not* frozen at construction:
  ``observe`` makes post-deploy transactions visible (and invalidates the
  affected cached rows), ``refresh`` rebuilds the table wholesale;
* the scan-pricing fix: ``_charge_node`` counts history via bisect and
  agrees exactly with the pinned slice-materializing reference.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.features import FeatureManager
from repro.system import FeatureServer, InMemoryCache, LatencyModel


@pytest.fixture()
def server(tiny_dataset):
    latency = LatencyModel(jitter_sigma=0.0, seed=0)
    manager = FeatureManager(tiny_dataset, include_stats=True)
    return FeatureServer(manager, latency, cache=InMemoryCache(latency))


def batch_inputs(tiny_dataset, count=8, context=6):
    """Overlapping node lists: every request shares most context nodes."""
    transactions = tiny_dataset.transactions[:count]
    shared = [u.uid for u in tiny_dataset.users[:context]]
    node_lists = [
        [t.uid] + [uid for uid in shared if uid != t.uid] for t in transactions
    ]
    nows = [t.audit_at for t in transactions]
    return node_lists, transactions, nows


class TestBatchParity:
    def test_matrices_bitexact_vs_scalar(self, tiny_dataset, server):
        node_lists, transactions, nows = batch_inputs(tiny_dataset)
        scalar = [
            server.features_for(nodes, txn, now)[0]
            for nodes, txn, now in zip(node_lists, transactions, nows)
        ]
        matrices, seconds, errors, stats = server.features_for_batch(
            node_lists, transactions, nows
        )
        assert errors == [None] * len(node_lists)
        for got, want in zip(matrices, scalar):
            np.testing.assert_array_equal(got, want)
        assert all(s > 0 for s in seconds)

    def test_row_cache_hits_stay_bitexact(self, tiny_dataset, server):
        node_lists, transactions, nows = batch_inputs(tiny_dataset)
        first, *_ = server.features_for_batch(node_lists, transactions, nows)
        assert server.row_cache_misses > 0
        hits_before = server.row_cache_hits
        second, *_ = server.features_for_batch(node_lists, transactions, nows)
        assert server.row_cache_hits > hits_before  # second pass reuses rows
        for got, want in zip(second, first):
            np.testing.assert_array_equal(got, want)

    def test_failed_upstream_requests_are_skipped(self, tiny_dataset, server):
        node_lists, transactions, nows = batch_inputs(tiny_dataset, count=4)
        node_lists[2] = None  # failed in the sampling stage
        matrices, seconds, errors, stats = server.features_for_batch(
            node_lists, transactions, nows
        )
        assert matrices[2] is None
        assert seconds[2] == 0.0
        assert errors[2] is None
        assert stats.requests == 3

    def test_coalescing_charges_unique_rows_once(self, tiny_dataset, server):
        node_lists, transactions, nows = batch_inputs(tiny_dataset)
        _, batch_seconds, _, stats = server.features_for_batch(
            node_lists, transactions, nows
        )
        assert stats.coalescing > 1.5  # shared context actually coalesced
        assert stats.unique_rows < stats.node_touches
        fresh_scalar, _ = (
            FeatureServer(
                server.feature_manager,
                server.latency,
                cache=InMemoryCache(server.latency),
            ),
            None,
        )
        scalar_total = sum(
            fresh_scalar.features_for(nodes, txn, now)[1]
            for nodes, txn, now in zip(node_lists, transactions, nows)
        )
        assert sum(batch_seconds) < scalar_total


class TestLatestTransactionVisibility:
    def test_observe_updates_latest_and_invalidates_rows(self, tiny_dataset, server):
        node_lists, transactions, nows = batch_inputs(tiny_dataset)
        server.features_for_batch(node_lists, transactions, nows)
        uid = next(uid for uid in server._row_cache)
        old = server._latest_txn[uid]
        newer = replace(old, txn_id=10**6, created_at=old.created_at + 3600.0)

        assert server.observe([newer]) == 1
        assert server._latest_txn[uid] is newer
        assert uid not in server._row_cache  # cached row invalidated
        # Older duplicates are ignored.
        assert server.observe([old]) == 0
        assert server._latest_txn[uid] is newer

    def test_observed_transaction_changes_context_rows(self, tiny_dataset, server):
        node_lists, transactions, nows = batch_inputs(tiny_dataset, count=2)
        uid = node_lists[0][1]
        before, *_ = server.features_for_batch(node_lists, transactions, nows)
        old = server._latest_txn[uid]
        newer = replace(
            old,
            txn_id=10**6,
            created_at=old.created_at + 3600.0,
            item_value=old.item_value * 3,
        )
        server.observe([newer])
        after, *_ = server.features_for_batch(node_lists, transactions, nows)
        position = node_lists[0].index(uid)
        assert not np.array_equal(after[0][position], before[0][position])

    def test_refresh_rebuilds_table(self, tiny_dataset, server):
        uid = next(iter(server._latest_txn))
        del server._latest_txn[uid]
        server.refresh()
        assert uid in server._latest_txn  # not frozen at construction
        assert server.refreshes == 1
        assert server._row_cache == {}
        assert server.stats()["row_cache_rows"] == 0.0


class TestScanPricing:
    def test_count_matches_reference(self, tiny_dataset, server):
        log_index = server.feature_manager.log_index
        nows = [t.audit_at for t in tiny_dataset.transactions[:10]]
        for uid in [u.uid for u in tiny_dataset.users[:20]]:
            for now in nows:
                assert server._count_logs(uid, now) == len(
                    log_index.logs_before(uid, now)
                )

    def test_charged_seconds_identical_to_reference_counting(self, tiny_dataset):
        latency_a = LatencyModel(jitter_sigma=0.0, seed=0)
        latency_b = LatencyModel(jitter_sigma=0.0, seed=0)
        manager = FeatureManager(tiny_dataset, include_stats=True)
        fast = FeatureServer(manager, latency_a, cache=InMemoryCache(latency_a))
        slow = FeatureServer(manager, latency_b, cache=InMemoryCache(latency_b))
        slow._count_logs = lambda uid, now: len(
            manager.log_index.logs_before(uid, now)
        )
        txn = tiny_dataset.transactions[0]
        nodes = [txn.uid] + [u.uid for u in tiny_dataset.users[:5] if u.uid != txn.uid]
        _, fast_seconds = fast.features_for(nodes, txn, now=txn.audit_at)
        _, slow_seconds = slow.features_for(nodes, txn, now=txn.audit_at)
        assert fast_seconds == slow_seconds


class TestContextRowStore:
    """The batched reader of the one context-row store (scalar reader:
    ``test_feature_server.py``)."""

    @pytest.fixture()
    def batch_rows(self, monkeypatch):
        """Rows computed per ``FeatureManager.vector_batch`` call."""
        computed: list[int] = []
        real = FeatureManager.vector_batch

        def counted(self, transactions, as_ofs):
            computed.append(len(transactions))
            return real(self, transactions, as_ofs)

        monkeypatch.setattr(FeatureManager, "vector_batch", counted)
        return computed

    def test_warm_batch_computes_only_target_rows(self, tiny_dataset, server, batch_rows):
        node_lists, transactions, nows = batch_inputs(tiny_dataset)
        contexts = len({uid for nodes in node_lists for uid in nodes[1:]})
        server.features_for_batch(node_lists, transactions, nows)
        # Another time bucket: the ledger charges fresh assemblies again, the
        # store still has every row.
        later = [now + 10 * server.cache_ttl for now in nows]
        *_, stats = server.features_for_batch(node_lists, transactions, later)
        assert batch_rows == [8 + contexts, 8]
        assert stats.computed_rows == contexts and stats.row_cache_hits == 0

    def test_store_warmed_by_scalar_path_is_not_a_ledger_hit(
        self, tiny_dataset, server, batch_rows
    ):
        node_lists, transactions, nows = batch_inputs(tiny_dataset)
        contexts = len({uid for nodes in node_lists for uid in nodes[1:]})
        for nodes, txn, now in zip(node_lists, transactions, nows):
            server.features_for(nodes, txn, now)
        *_, stats = server.features_for_batch(node_lists, transactions, nows)
        assert batch_rows == [8]  # real work: the target rows
        assert stats.computed_rows == contexts  # modeled: charged as before
        assert server.stats()["row_cache_misses"] == contexts

    def test_bytes_across_observe_and_refresh(self, tiny_dataset, server, batch_rows):
        node_lists, transactions, nows = batch_inputs(tiny_dataset)
        manager = server.feature_manager
        contexts = len({uid for nodes in node_lists for uid in nodes[1:]})

        def batch():
            del batch_rows[:]
            matrices, *_ = server.features_for_batch(node_lists, transactions, nows)
            for nodes, txn, now, matrix in zip(node_lists, transactions, nows, matrices):
                rows = [manager.vector(txn, as_of=now)] + [
                    manager.vector(server.latest_transaction(uid)) for uid in nodes[1:]
                ]
                np.testing.assert_array_equal(matrix, np.stack(rows))
            matrices[0][:] = -1.0  # the caller's copy, not the store's rows
            return batch_rows[0] - len(node_lists)

        assert batch() == contexts
        assert batch() == 0
        old = server.latest_transaction(node_lists[0][1])
        newer = replace(
            old, txn_id=10**6, created_at=old.created_at + 3600.0,
            item_value=old.item_value * 3,
        )
        server.observe([newer])
        assert batch() == 1
        server.observe([old])
        assert batch() == 0
        server.refresh()
        assert batch() == contexts
        assert all(not row.flags.writeable for row in server._row_cache.values())

    @pytest.mark.parametrize("short", ["target_txns", "nows"])
    def test_length_mismatch_is_a_value_error_before_any_charge(self, tiny_dataset, short):
        latency = LatencyModel(seed=5)
        manager = FeatureManager(tiny_dataset, include_stats=True)
        server = FeatureServer(manager, latency, cache=InMemoryCache(latency))
        node_lists, transactions, nows = batch_inputs(tiny_dataset)
        before = latency._rng.bit_generator.state
        with pytest.raises(ValueError, match=short):
            if short == "nows":
                server.features_for_batch(node_lists, transactions, nows[:-1])
            else:
                server.features_for_batch(node_lists, transactions + [transactions[0]], nows)
        with pytest.raises(ValueError, match="node_lists"):
            server.features_for_batch([[]] + node_lists[1:], transactions, nows)
        assert latency._rng.bit_generator.state == before
