"""Bit-exact parity contracts for the vectorized BN write path.

Every vectorized ingest component has a pinned ``*_reference`` twin (the
original Python loops, ``tests/oracles/bn_builder.py``); these tests assert
the two produce *identical* networks — same edge sets, bit-for-bit equal
weights and timestamps — plus the batch-mutation contracts (single version bump, all-or-nothing
validation, O(1) edge counter) that the online system depends on.
"""

import copy

import numpy as np
import pytest

from repro.datagen import DAY, HOUR, BehaviorLog, BehaviorType
from repro.network import BehaviorNetwork, BNBuilder
from tests.oracles.bn_builder import (
    build_reference,
    expire_edges_scan,
    replay_reference,
    run_window_job_reference,
)

TYPES = tuple(BehaviorType)[:3]
WINDOWS = (HOUR, DAY)


def edge_state(bn: BehaviorNetwork) -> dict:
    return {
        (u, v, t): (record.weight, record.last_update)
        for u, v, t, record in bn.iter_edges()
    }


def make_logs(n: int = 3000, n_users: int = 90, span: float = 3 * DAY, seed: int = 2):
    rng = np.random.default_rng(seed)
    logs = [
        BehaviorLog(
            int(rng.integers(0, n_users)),
            TYPES[int(rng.integers(0, len(TYPES)))],
            f"v{int(rng.integers(0, 18))}",
            float(rng.uniform(0.0, span)),
        )
        for _ in range(n)
    ]
    logs.sort(key=lambda log: log.timestamp)
    return logs


@pytest.fixture(scope="module")
def logs():
    return make_logs()


@pytest.fixture(scope="module")
def builder():
    return BNBuilder(windows=WINDOWS, edge_types=TYPES, ttl=2 * DAY)


class TestBuildParity:
    def test_build_bit_exact(self, builder, logs):
        vec = builder.build(logs)
        ref = build_reference(builder, logs)
        assert edge_state(vec) == edge_state(ref)
        assert sorted(vec.nodes()) == sorted(ref.nodes())

    def test_window_job_bit_exact_cold_and_warm(self, builder, logs):
        epoch_logs = [log for log in logs if log.timestamp <= HOUR]
        for warm in (False, True):
            vec, ref = BehaviorNetwork(), BehaviorNetwork()
            if warm:
                for bn in (vec, ref):
                    bn.add_weight(1, 2, TYPES[0], 0.125, 10.0)
                    bn.add_weight(3, 7, TYPES[1], 0.5, 20.0)
            n_vec = builder.run_window_job(vec, epoch_logs, HOUR, job_end=HOUR)
            n_ref = run_window_job_reference(builder, ref, epoch_logs, HOUR, job_end=HOUR)
            assert n_vec == n_ref
            assert edge_state(vec) == edge_state(ref)

    def test_replay_bit_exact(self, builder, logs):
        vec = builder.replay(logs, until=3 * DAY)
        ref = replay_reference(builder, logs, until=3 * DAY)
        assert edge_state(vec) == edge_state(ref)

    def test_adversarial_uid_span_parity(self):
        """Huge uid spans force the lexicographic fallback; results match."""
        big = 2**40
        logs = [
            BehaviorLog(0, TYPES[0], "shared", 100.0),
            BehaviorLog(big, TYPES[0], "shared", 200.0),
            BehaviorLog(3 * big, TYPES[0], "shared", 300.0),
            BehaviorLog(0, TYPES[1], "other", 400.0),
            BehaviorLog(2 * big, TYPES[1], "other", 500.0),
        ]
        builder = BNBuilder(windows=WINDOWS, edge_types=TYPES)
        assert edge_state(builder.build(logs)) == edge_state(
            build_reference(builder, logs)
        )

    def test_negative_epoch_parity(self):
        """Logs before the origin (negative epochs) stay exact."""
        logs = [
            BehaviorLog(1, TYPES[0], "x", -5 * DAY + 7.0),
            BehaviorLog(2, TYPES[0], "x", -5 * DAY + 9.0),
            BehaviorLog(3, TYPES[0], "x", 11.0),
            BehaviorLog(1, TYPES[0], "x", 13.0),
        ]
        builder = BNBuilder(windows=WINDOWS, edge_types=TYPES)
        assert edge_state(builder.build(logs)) == edge_state(
            build_reference(builder, logs)
        )


class TestAddWeightsContract:
    def test_scalar_loop_vs_one_batch(self):
        """One batch with duplicate typed edges == the scalar call sequence.

        Cold (every record created by the batch) and warm (the batch applied
        again onto the records it created), on both network classes; once
        with rows spread over many typed edges and once with 60 typed edges
        of 1–64 contributions each, rows shuffled.
        """
        rng = np.random.default_rng(9)
        n = 1500
        edges = 60
        rows = rng.permutation(np.repeat(np.arange(edges), rng.integers(1, 65, size=edges)))
        inputs = [
            (
                rng.integers(0, 40, size=n),
                rng.integers(40, 80, size=n),
                rng.integers(0, len(TYPES), size=n),
            ),
            (
                rng.integers(0, 40, size=edges)[rows],
                rng.integers(40, 80, size=edges)[rows],
                rng.integers(0, len(TYPES), size=edges)[rows],
            ),
        ]
        for u, v, codes in inputs:
            scalar, batch, precoded = BehaviorNetwork(), BehaviorNetwork(), BehaviorNetwork()
            for _ in ("cold", "warm"):
                w = rng.uniform(0.01, 1.0, size=len(u))
                ts = rng.uniform(0.0, 1e6, size=len(u))
                for i in range(len(u)):
                    scalar.add_weight(
                        int(u[i]), int(v[i]), TYPES[codes[i]], float(w[i]), float(ts[i])
                    )
                batch.add_weights(u, v, [TYPES[c] for c in codes], w, ts)
                precoded.add_weights(u, v, codes, w, ts, btype_table=TYPES)
                assert edge_state(scalar) == edge_state(batch) == edge_state(precoded)

    def test_scalar_timestamp_broadcast(self):
        """A scalar timestamp applies to every contribution, bit-exactly."""
        scalar, batch = BehaviorNetwork(), BehaviorNetwork()
        u = np.array([1, 2, 1, 5])
        v = np.array([2, 3, 2, 6])
        w = np.array([0.1, 0.2, 0.3, 0.4])
        for ts in (-4.0, 0.0, 123.5):
            for i in range(4):
                scalar.add_weight(int(u[i]), int(v[i]), TYPES[i % 2], float(w[i]), ts)
            batch.add_weights(u, v, np.array([0, 1, 0, 1]), w, ts, btype_table=TYPES)
        assert edge_state(scalar) == edge_state(batch)

    def test_single_version_bump_per_batch(self):
        bn = BehaviorNetwork()
        before = bn.version
        bn.add_weights([1, 2, 1], [2, 3, 2], TYPES[0], [0.5, 0.25, 0.5], [1.0, 2.0, 3.0])
        assert bn.version == before + 1

    def test_empty_batch_is_noop(self):
        bn = BehaviorNetwork()
        before = bn.version
        assert bn.add_weights([], [], TYPES[0], [], []) == 0
        assert bn.version == before

    def test_all_or_nothing_validation(self):
        bn = BehaviorNetwork()
        bn.add_weight(1, 2, TYPES[0], 1.0, 5.0)
        snapshot = edge_state(bn)
        version = bn.version
        with pytest.raises(ValueError):
            bn.add_weights([3, 4], [4, 4], TYPES[0], [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            bn.add_weights([3, 4], [4, 5], TYPES[0], [1.0, -1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            bn.add_weights([3, 4], [4, 5], TYPES[0], [1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            bn.add_weights([3], [4], np.array([len(TYPES)]), [1.0], 1.0, btype_table=TYPES)
        assert edge_state(bn) == snapshot
        assert bn.version == version

    @pytest.mark.parametrize(
        "entrance,field",
        [
            ("add_weights", "weight"),
            ("add_weights", "row_timestamp"),
            ("add_weights", "scalar_timestamp"),
            ("add_weight", "weight"),
            ("add_weight", "timestamp"),
        ],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected_before_mutation(self, entrance, field, bad):
        bn = BehaviorNetwork()
        bn.add_weights([1, 3], [2, 4], TYPES[0], [1.0, 0.5], [5.0, 6.0])
        version, edges, index, state = bn.version, bn.num_edges(), bn.index(), edge_state(bn)
        weight = bad if field == "weight" else 0.5
        stamp = 7.0 if field == "weight" else bad
        with pytest.raises(ValueError):
            if entrance == "add_weight":
                bn.add_weight(1, 5, TYPES[1], weight, stamp)
            elif field == "row_timestamp":
                bn.add_weights([1, 5], [5, 6], TYPES[1], [0.5, 0.5], [7.0, stamp])
            else:
                bn.add_weights([1, 5], [5, 6], TYPES[1], [0.5, weight], stamp)
        assert (bn.version, bn.num_edges(), edge_state(bn)) == (version, edges, state)
        assert bn.index() is index

    def test_non_canonical_order_normalized(self):
        bn = BehaviorNetwork()
        bn.add_weights([9, 2], [1, 5], TYPES[0], [0.5, 0.25], 3.0)
        assert set(edge_state(bn)) == {(1, 9, TYPES[0]), (2, 5, TYPES[0])}


class TestEdgeCounter:
    def test_counter_matches_scan_through_mutations(self, builder, logs):
        bn = builder.replay(logs, until=3 * DAY)
        assert bn.num_edges() == bn.num_edges_scan()
        bn.add_weight(100001, 100002, TYPES[0], 1.0, 3 * DAY)
        assert bn.num_edges() == bn.num_edges_scan()
        bn.expire_edges(4 * DAY)
        assert bn.num_edges() == bn.num_edges_scan()


class TestExpiryParity:
    def test_indexed_vs_scan_after_mixed_history(self, builder, logs):
        base = builder.replay(logs, until=3 * DAY, expire=False)
        indexed, scanned = copy.deepcopy(base), copy.deepcopy(base)
        indexed.index(), scanned.index()  # both logs start empty
        for now in (3 * DAY, 3 * DAY + HOUR, 4 * DAY, 6 * DAY):
            assert indexed.expire_edges(now) == expire_edges_scan(scanned, now)
            assert edge_state(indexed) == edge_state(scanned)
            assert indexed._changed == scanned._changed
            want, got = scanned.index().to_payload()[0], indexed.index().to_payload()[0]
            assert {k: a.tobytes() for k, a in got.items()} == {
                k: a.tobytes() for k, a in want.items()
            }
            assert indexed.num_edges() == indexed.num_edges_scan()

    def test_refreshed_edge_survives_sweep(self):
        bn = BehaviorNetwork(ttl=100.0)
        bn.add_weight(1, 2, TYPES[0], 1.0, 10.0)
        bn.add_weight(1, 2, TYPES[0], 1.0, 95.0)  # refresh before expiry
        assert bn.expire_edges(105.0) == 0
        assert bn.num_edges() == 1
        assert bn.expire_edges(300.0) == 1
        assert bn.num_edges() == 0


class TestOrderingProperty:
    """Satellite: batch build, per-window replay, and the references agree
    for both weightings on shuffled log orderings."""

    @pytest.mark.parametrize("weighting", ["inverse", "uniform"])
    def test_shuffled_orderings(self, weighting):
        logs = make_logs(n=1200, n_users=50, span=2 * DAY, seed=4)
        builder = BNBuilder(
            windows=WINDOWS, edge_types=TYPES, ttl=30 * DAY, weighting=weighting
        )
        until = (int(max(log.timestamp for log in logs) // DAY) + 1) * DAY
        baseline_build = builder.build(logs)
        baseline_replay = builder.replay(logs, until=until)

        rng = np.random.default_rng(0)
        for _ in range(3):
            shuffled = list(logs)
            rng.shuffle(shuffled)
            # Vectorized vs pinned reference: bit-exact on every ordering.
            build_vec = builder.build(shuffled)
            assert edge_state(build_vec) == edge_state(
                build_reference(builder, shuffled)
            )
            replay_vec = builder.replay(shuffled, until=until)
            assert edge_state(replay_vec) == edge_state(
                replay_reference(builder, shuffled, until=until)
            )
            # Batch build is ordering-invariant outright (grouping sorts).
            assert edge_state(build_vec) == edge_state(baseline_build)

            # Replay covers the same closed epochs: identical edge sets and
            # timestamps; weights identical up to summation order (exact
            # for uniform weighting, approx for inverse).
            state_r = edge_state(replay_vec)
            state_b = edge_state(baseline_replay)
            assert set(state_r) == set(state_b)
            for key, (weight, stamp) in state_r.items():
                base_weight, base_stamp = state_b[key]
                assert stamp == base_stamp
                if weighting == "uniform":
                    assert weight == base_weight
                else:
                    assert weight == pytest.approx(base_weight, rel=1e-12)

    @pytest.mark.parametrize("weighting", ["inverse", "uniform"])
    def test_replay_matches_build_on_closed_epochs(self, weighting):
        logs = make_logs(n=800, n_users=40, span=2 * DAY, seed=6)
        builder = BNBuilder(
            windows=WINDOWS, edge_types=TYPES, ttl=30 * DAY, weighting=weighting
        )
        until = (int(max(log.timestamp for log in logs) // DAY) + 1) * DAY
        built = edge_state(builder.build(logs))
        replayed = edge_state(builder.replay(logs, until=until))
        assert set(built) == set(replayed)
        for key, (weight, stamp) in replayed.items():
            build_weight, build_stamp = built[key]
            assert stamp == build_stamp
            if weighting == "uniform":
                assert weight == build_weight
            else:
                assert weight == pytest.approx(build_weight, rel=1e-12)
