"""The feature server's charging loops as they stood before the row store.

Copied from ``FeatureServer.features_for`` / ``features_for_batch`` /
``_charge_node`` / ``observe`` / ``refresh`` of the commit before the
context-row store landed, with the feature *computation* (and the row half
of the ``(bucket, row)`` cache entries) taken out: what is left is every
``LatencyModel`` draw, every cache/database call and every hit-vs-compute
decision, in the order that commit made them.  It is the definition of
"the modeled clock did not move": same seconds, same hit/compute counts,
same rng state afterwards — whatever the real row store holds.
"""

from __future__ import annotations

from repro.system.storage import LocalDatabase, StorageError


class FeatureChargingOracle:
    """Charges what the pre-store ``FeatureServer`` charged, computes nothing."""

    def __init__(
        self,
        feature_manager,
        latency,
        database=None,
        cache=None,
        stat_windows=5,
        cache_ttl=6 * 3600.0,
        faults=None,
        component="feature_server",
    ):
        self.feature_manager = feature_manager
        self.latency = latency
        self.database = database or LocalDatabase(latency)
        self.cache = cache
        self.stat_windows = stat_windows
        self.cache_ttl = cache_ttl
        self.faults = faults
        self.component = component
        self._latest_txn = {
            txn.uid: txn for txn in feature_manager.latest_transactions()
        }
        # uid -> bucket: the row half of the old ``(bucket, row)`` entries
        # never decided a charge.
        self._row_cache = {}
        self.row_cache_hits = 0
        self.row_cache_misses = 0

    def observe(self, transactions):
        updated = 0
        for txn in transactions:
            current = self._latest_txn.get(txn.uid)
            if current is None or txn.created_at > current.created_at:
                self._latest_txn[txn.uid] = txn
                self._row_cache.pop(txn.uid, None)
                updated += 1
        return updated

    def refresh(self):
        self._latest_txn = {
            txn.uid: txn for txn in self.feature_manager.latest_transactions()
        }
        self._row_cache.clear()

    def features_for(self, nodes, target_txn, now):
        """Seconds the scalar path charged for one request."""
        seconds = self.faults.before_call(self.component) if self.faults else 0.0
        seconds += self.latency.charge_network()
        if self.cache is None or not self.cache.available:
            seconds += self.database.ping()
        for position, uid in enumerate(nodes):
            txn = target_txn if position == 0 else self._latest_txn.get(uid)
            if txn is None:
                continue
            seconds += self._charge_node(uid, now)
        return seconds

    def _charge_node(self, uid, now):
        seconds = 0.0
        n_logs = self.feature_manager.log_index.count_before(uid, now)
        if self.cache is not None and self.cache.available:
            _value, hit, cost = self.cache.get(("logs", uid), now)
            seconds += cost + self.latency.charge_cache_get()
            if not hit:
                _rows, query_cost = self.database.query("logs", uid)
                seconds += query_cost
                seconds += self.cache.set(("logs", uid), True, now, ttl=self.cache_ttl)
            for _ in range(self.stat_windows):
                seconds += self.latency.charge_mem_scan(n_logs)
        else:
            seconds += self.latency.charge_db_query(1) * 2
            for _ in range(self.stat_windows):
                seconds += self.latency.charge_db_query(max(1, n_logs))
        return seconds

    def _bucket(self, now):
        return int(now // self.cache_ttl) if self.cache_ttl > 0 else 0

    def features_for_batch(self, node_lists, nows):
        """``(seconds, errors, row_cache_hits, computed_rows)`` of one batch."""
        n = len(node_lists)
        seconds = [0.0] * n
        errors = [None] * n
        alive = []
        charged = set()
        batch_hits = 0
        for i in range(n):
            nodes = node_lists[i]
            if nodes is None:
                continue
            try:
                charge = self.faults.before_call(self.component) if self.faults else 0.0
                charge += self.latency.charge_network()
                if self.cache is None or not self.cache.available:
                    charge += self.database.ping()
                for position, uid in enumerate(nodes):
                    if position == 0:
                        charge += self._charge_node(uid, nows[i])
                        charged.add(uid)
                        continue
                    if self._latest_txn.get(uid) is None or uid in charged:
                        continue
                    cached = self._row_cache.get(uid)
                    if cached is not None and cached == self._bucket(nows[i]):
                        charge += self.latency.charge_cache_get()
                        batch_hits += 1
                    else:
                        charge += self._charge_node(uid, nows[i])
                    charged.add(uid)
            except StorageError as exc:
                errors[i] = exc
                continue
            seconds[i] = charge
            alive.append(i)

        plan = {}
        bucket_of = {}
        for i in alive:
            for uid in node_lists[i][1:]:
                if uid in plan or self._latest_txn.get(uid) is None:
                    continue
                bucket = self._bucket(nows[i])
                cached = self._row_cache.get(uid)
                plan[uid] = "hit" if cached is not None and cached == bucket else "compute"
                bucket_of[uid] = bucket
        compute_uids = [uid for uid, decision in plan.items() if decision == "compute"]
        self.row_cache_hits += batch_hits
        self.row_cache_misses += len(compute_uids)
        for uid in compute_uids:
            self._row_cache[uid] = bucket_of[uid]
        return seconds, errors, batch_hits, len(compute_uids)
