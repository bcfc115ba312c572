"""The one materializer: full-pass and cone-refresh parity (lambda batch tier).

Pinned contracts (see ``docs/LAMBDA.md`` — The materializer):

* :func:`~repro.core.lambda_infer.materialize` without a prior produces a
  :class:`~repro.core.lambda_infer.HAGState` whose scores and subgraph
  rows are **byte-identical** to the scalar serving path
  (:func:`~repro.network.sampling.computation_subgraph` +
  :meth:`~repro.core.hag.HAG.predict_subgraph` per target) — at any chunk
  size and any slice split, with or without an executor (a dead executor slot is recomputed
  in-process) — including :func:`~repro.system.fork_pool.fork_map` with a
  child that ``SIGKILL``s itself mid-score — for CFO and CFO(-) models
  alike;
* with a prior it recomputes only the delta's affected cone: at zero delta
  the refreshed state is a byte copy of the prior, under randomized delta
  batches the scores and subgraph rows are byte-equal to a fresh full
  pass, and provenance changes (new transaction / as-of) force a
  recompute of exactly those targets;
* a prior that shares nothing with the request degenerates to the full
  pass byte for byte; the executor is consulted only when the cone is the
  whole target range; zero targets is an empty state;
* an incompatible prior (hops/fanout/allowed drift, a version the
  network has not reached) raises ``ValueError``.

Features depend on the sorted-target index ``k`` the sweep hands
``feature_fn`` (the target's row carries it, as a transaction's features
would), so a sweep that hands the wrong target's ``k`` fails here.

Every class runs twice: as written (CFO model) and through its ``NoCFO``
subclass (the CFO(-) ablation, whose single merged tower takes the other
branch of the packed scoring).
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.core import HAG, lambda_infer, materialize
from repro.datagen import BehaviorType
from repro.network import BehaviorNetwork
from repro.network.sampling import computation_subgraphs_batch
from repro.system.fork_pool import fork_map

from tests.oracles.sampling import computation_subgraph

TYPES = (BehaviorType.DEVICE_ID, BehaviorType.IPV4, BehaviorType.WIFI_MAC)
HOPS, FANOUT = 2, 6
IN_DIM = 5


def build_bn(seed=0, n_users=140, n_edges=700):
    rng = np.random.default_rng(seed)
    bn = BehaviorNetwork()
    u = rng.integers(0, n_users, size=n_edges)
    v = rng.integers(0, n_users, size=n_edges)
    for uu, vv, code, w, ts in zip(
        u,
        v,
        rng.integers(0, len(TYPES), size=n_edges),
        rng.uniform(0.1, 3.0, size=n_edges),
        rng.uniform(0.0, 500.0, size=n_edges),
    ):
        if uu != vv:
            bn.add_weight(int(uu), int(vv), TYPES[int(code)], float(w), float(ts))
    return bn


def add_delta(bn, seed, count, n_users=140):
    """Apply one random delta batch; returns the touched uids."""
    rng = np.random.default_rng(seed)
    touched = set()
    for _ in range(count):
        uu = int(rng.integers(0, n_users))
        vv = int(rng.integers(0, n_users))
        if uu == vv:
            continue
        bn.add_weight(
            uu, vv, TYPES[int(rng.integers(0, len(TYPES)))],
            float(rng.uniform(0.5, 2.0)), 600.0,
        )
        touched |= {uu, vv}
    return touched


def build_model(n_types, use_cfo):
    return HAG(
        IN_DIM, n_types, np.random.default_rng(5),
        hidden=(8, 4), cfo_out_dim=2, mlp_hidden=(4,), use_cfo=use_cfo,
    )


@pytest.fixture(scope="class")
def setup(request):
    """``(bn, model, features, types, targets)`` for the requesting class's
    model shape (``USE_CFO``)."""
    bn = build_bn()
    types = tuple(sorted(bn.edge_types(), key=lambda t: t.value))
    model = build_model(len(types), request.cls.USE_CFO)
    features = np.random.default_rng(7).normal(size=(200, IN_DIM))
    targets = sorted(int(t) for t in np.random.default_rng(6).choice(
        sorted(bn.nodes()), size=60, replace=False
    ))
    return bn, model, features, types, targets


def feature_fn_for(features):
    """``feature_fn(k, nodes)``: the nodes' rows, the target's shifted by ``k``."""

    def feature_fn(k, nodes):
        rows = features[np.asarray(nodes, dtype=np.int64)]
        rows[0] += 0.01 * k
        return rows

    return feature_fn


def run(setup_tuple, **kwargs):
    """One :func:`materialize` call over the setup (full pass by default)."""
    bn, model, features, types, targets = setup_tuple
    kwargs.setdefault("txn_ids", [10 * t for t in targets])
    return materialize(
        model, bn, targets, kwargs.pop("txn_ids"), [float(t) for t in targets],
        feature_fn_for(features),
        hops=kwargs.pop("hops", HOPS), fanout=FANOUT, edge_type_order=types,
        **kwargs,
    )


def scalar_oracle(setup_tuple):
    """What the serving path computes, one target at a time.

    Scores and subgraph rows from ``computation_subgraph`` +
    ``HAG.predict_subgraph``; sampling stats from the union batch sampler
    the live server runs.
    """
    bn, model, features, types, targets = setup_tuple
    feature_fn = feature_fn_for(features)
    scores, nodes = [], []
    for k, uid in enumerate(targets):
        subgraph = computation_subgraph(bn, uid, hops=HOPS, fanout=FANOUT)
        scores.append(model.predict_subgraph(
            subgraph, feature_fn(k, subgraph.nodes), edge_type_order=types
        ))
        nodes.append(np.asarray(subgraph.nodes, dtype=np.int64))
    _, stats = computation_subgraphs_batch(
        bn.index(), targets, hops=HOPS, fanout=FANOUT
    )
    return np.asarray(scores), nodes, stats


def assert_matches_oracle(state, oracle):
    scores, nodes, _ = oracle
    assert state.scores.tobytes() == scores.tobytes()
    assert state.subgraph_nodes.tobytes() == np.concatenate(nodes).tobytes()
    assert np.diff(state.subgraph_indptr).tolist() == [len(n) for n in nodes]


def assert_states_bitexact(got, want):
    got_arrays, want_arrays = got.to_arrays(), want.to_arrays()
    assert got_arrays.keys() == want_arrays.keys()
    for name in want_arrays:
        assert got_arrays[name].tobytes() == want_arrays[name].tobytes(), name


class TestFullGraphParity:
    USE_CFO = True

    @pytest.fixture(scope="class")
    def oracle(self, setup):
        return scalar_oracle(setup)

    def test_bitexact_vs_replay(self, setup, oracle):
        got, got_stats, mstats = run(setup)
        assert_matches_oracle(got, oracle)
        assert got_stats == oracle[2]
        assert mstats.mode == "full"
        assert mstats.rows_computed == len(setup[4])
        assert mstats.edges_touched > 0

    def test_full_pass_builds_no_cone(self, setup, oracle, monkeypatch):
        """Every target of a full pass is a seed, so the cone cannot add a
        row: the pass runs without it and its state is the replay's."""
        monkeypatch.setattr(
            lambda_infer, "_score_cone", lambda *a: pytest.fail("_score_cone")
        )
        got, got_stats, mstats = run(setup)
        assert_matches_oracle(got, oracle)
        assert got_stats == oracle[2]
        assert mstats.rows_computed == len(setup[4])

    def test_scalar_packed_and_materialized_scores_agree(self, setup, oracle):
        """``predict_subgraph`` == ``predict_subgraphs`` == ``materialize``,
        bit for bit, on one graph — the three ways a score is computed."""
        bn, model, features, types, targets = setup
        subgraphs, _ = computation_subgraphs_batch(
            bn.index(), targets, hops=HOPS, fanout=FANOUT
        )
        feature_fn = feature_fn_for(features)
        packed = model.predict_subgraphs(
            subgraphs,
            [feature_fn(k, s.nodes) for k, s in enumerate(subgraphs)],
            edge_type_order=types,
        )
        assert np.asarray(packed).tobytes() == oracle[0].tobytes()
        assert run(setup)[0].scores.tobytes() == oracle[0].tobytes()

    @pytest.mark.parametrize("chunk", (1, 7, 256))
    def test_chunking_does_not_change_bits(self, setup, oracle, chunk, monkeypatch):
        monkeypatch.setattr(lambda_infer, "SCORE_CHUNK", chunk)
        got, _, _ = run(setup)
        assert_matches_oracle(got, oracle)

    def test_dense_multi_typed_pairs(self, monkeypatch):
        """Most pairs carry all three types and rows run past 16 entries:
        the regime where the CFO(-) merge sums three duplicates per
        coordinate, which must not depend on what shares the chunk."""
        bn = build_bn(seed=3, n_users=40, n_edges=3000)
        types = tuple(sorted(bn.edge_types(), key=lambda t: t.value))
        local = (
            bn, build_model(len(types), self.USE_CFO),
            np.random.default_rng(7).normal(size=(40, IN_DIM)),
            types, sorted(bn.nodes()),
        )
        oracle = scalar_oracle(local)
        for chunk in (7, 256):
            monkeypatch.setattr(lambda_infer, "SCORE_CHUNK", chunk)
            assert_matches_oracle(run(local)[0], oracle)

    def test_slices_and_dead_executor_slots(self, setup):
        """Executor results splice bit-exactly; dead (None) slots recompute."""
        calls = []

        def executor(score, bounds):
            # Serve even slices, drop odd ones.
            calls.append(list(bounds))
            return [None if i % 2 else score(b) for i, b in enumerate(bounds)]

        want, want_stats, _ = run(setup)
        got, got_stats, mstats = run(setup, executor=executor, slices=5)
        assert_states_bitexact(got, want)
        assert got_stats == want_stats
        assert mstats.slices == 5
        assert len(calls) == 1 and len(calls[0]) == 5

    @pytest.mark.parametrize("slices", (2, 3, 5, 8))
    def test_fork_map_sweep_survives_a_killed_child(self, setup, slices):
        """Slices scored in forked children splice bit-exactly; the child
        scoring the last slice ``SIGKILL``s itself on that slice's last
        target, and its slice is recomputed in-process."""
        bn, model, features, types, targets = setup
        parent = os.getpid()
        last = len(targets) - 1
        plain = feature_fn_for(features)

        def feature_fn(k, nodes):
            if k == last and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return plain(k, nodes)

        forked = []

        def executor(score, bounds):
            forked.extend(bounds)
            return fork_map(score, bounds)

        want, want_stats, _ = run(setup)
        got, got_stats, mstats = materialize(
            model, bn, targets, [10 * t for t in targets],
            [float(t) for t in targets], feature_fn,
            hops=HOPS, fanout=FANOUT, edge_type_order=types,
            executor=executor, slices=slices,
        )
        assert_states_bitexact(got, want)
        assert got_stats == want_stats
        assert mstats.slices == slices == len(forked)

    def test_version_mismatch_rejected(self, setup):
        """A prior of a version the network has not reached is no ancestor."""
        prior, _, _ = run(setup)
        prior.bn_version = int(setup[0].version) + 1
        with pytest.raises(ValueError, match="bn_version"):
            run(setup, prior=prior, touched={})

    def test_zero_targets(self, setup):
        bn, model, features, types, _ = setup
        consulted = []
        state, stats, mstats = run(
            (bn, model, features, types, []),
            executor=lambda score, bounds: consulted.append(bounds), slices=4,
        )
        assert state.num_nodes == 0
        assert state.subgraph_indptr.tolist() == [0]
        assert stats.requests == stats.sampled_nodes == 0
        assert mstats.rows_computed == 0
        assert consulted == []


class TestFullGraphParityNoCFO(TestFullGraphParity):
    USE_CFO = False


class TestIncremental:
    USE_CFO = True

    def test_zero_delta_is_byte_noop(self, setup):
        prior, _, _ = run(setup)
        state, _, mstats = run(setup, prior=prior, touched={})
        assert mstats.mode == "incremental"
        assert mstats.rows_computed == 0
        assert_states_bitexact(state, prior)

    @pytest.mark.parametrize("delta_seed", (1, 2, 3))
    def test_randomized_delta_cone(self, delta_seed):
        """Cone property: scores and subgraph rows byte-equal a fresh full
        pass while only the cone is rescored."""
        # Sparse on purpose: with mean degree ~2 a two-hop reverse cone
        # around a couple of touched edges stays far from covering the
        # whole target set, so the O(affected) claim is actually exercised.
        bn = build_bn(seed=delta_seed + 50, n_users=800, n_edges=800)
        types = tuple(sorted(bn.edge_types(), key=lambda t: t.value))
        model = build_model(len(types), self.USE_CFO)
        features = np.random.default_rng(7).normal(size=(900, IN_DIM))
        targets = sorted(bn.nodes())[:300]
        local = (bn, model, features, types, targets)

        prior, _, _ = run(local)
        touched_uids = add_delta(bn, seed=delta_seed, count=2, n_users=800)
        touched = {uid: 1 for uid in touched_uids}

        consulted = []
        fresh, _, _ = run(local)
        state, _, mstats = run(
            local, prior=prior, touched=touched,
            executor=lambda score, bounds: consulted.append(bounds), slices=4,
        )

        # Scores and subgraphs: byte-equal the fresh full pass everywhere.
        assert state.scores.tobytes() == fresh.scores.tobytes()
        assert state.subgraph_indptr.tobytes() == fresh.subgraph_indptr.tobytes()
        assert state.subgraph_nodes.tobytes() == fresh.subgraph_nodes.tobytes()
        assert 0 < mstats.rows_computed < len(targets)
        # A partial cone is not a contiguous range: never handed to the
        # executor, scored in-process as one slice.
        assert consulted == [] and mstats.slices == 1

    def test_provenance_change_recomputes_target(self, setup):
        targets = setup[4]
        prior, _, _ = run(setup)
        txn_ids = [10 * t for t in targets]
        txn_ids[3] += 1  # one target has a newer transaction
        state, _, mstats = run(setup, prior=prior, touched={}, txn_ids=txn_ids)
        assert mstats.rows_computed >= 1
        assert state.txn_ids[3] == txn_ids[3]
        # The graph did not change, so the recomputed score matches the prior.
        assert state.scores.tobytes() == prior.scores.tobytes()

    def test_disjoint_prior_is_the_full_pass(self, setup):
        """A prior covering none of the targets leaves nothing to copy: the
        cone is everything, the executor is consulted, and the state is the
        ``prior=None`` pass byte for byte."""
        bn, model, features, types, targets = setup
        others = sorted(set(bn.nodes()) - set(targets))[:20]
        prior, _, _ = run((bn, model, features, types, others))
        calls = []

        def executor(score, bounds):
            calls.append(list(bounds))
            return [None] * len(bounds)

        want, want_stats, want_mstats = run(setup)
        got, got_stats, mstats = run(
            setup, prior=prior, touched={}, executor=executor, slices=3
        )
        assert_states_bitexact(got, want)
        assert got_stats == want_stats
        assert mstats.mode == "incremental"
        assert mstats.rows_computed == want_mstats.rows_computed == len(targets)
        assert len(calls) == 1 and len(calls[0]) == 3

    def test_hops_mismatch_rejected(self, setup):
        prior, _, _ = run(setup)
        with pytest.raises(ValueError):
            run(setup, prior=prior, hops=HOPS + 1)

    def test_allowed_mismatch_rejected(self, setup):
        """A prior scored over every node is no ancestor of a restricted sweep."""
        prior, _, _ = run(setup)
        with pytest.raises(ValueError, match="allowed"):
            run(setup, prior=prior, touched={}, allowed=set(setup[4]))


class TestIncrementalNoCFO(TestIncremental):
    USE_CFO = False
