"""One forward, two spellings, bit for bit.

While autograd records, ``HAG.forward`` is the per-type tape forward — the
definition.  Under ``no_grad`` it runs the same float operations on ndarrays
with every tower in one batched kernel.  This suite pins ``np.array_equal``
between the two over random typed graphs (``n = 1``, an isolated target,
empty types, every ablation, ``activation=False``), over what
``predict_subgraph(s)`` adds on top (a type the sampler does not have, a
permuted ``edge_type_order``, packs of 1–8 requests under ``row_blocks``,
subgraphs built from a dict and from entries), ``forward(rows=)``
against the full forward indexed, the numpy / scipy facts the equality
rests on (``docs/PERFORMANCE.md``) — among them the two that let CFO's
attention run on the read rows only — the lazy
``ComputationSubgraph.adjacency`` against the frozen scipy oracle, and the
stacked weights against everything that can rebind a parameter.
"""

from __future__ import annotations

import pickle
from contextlib import nullcontext

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core import HAG, prepare_aggregators
from repro.network import ComputationSubgraph
from repro.nn import Tensor
from repro.nn.sparse import stacked_symmetric_csr
from repro.nn.tensor import stacked_matmul
from tests.oracles.sparse import assert_same_csr, typed_symmetric_csr_oracle

TYPES = tuple(f"type{t}" for t in range(8))

seeds = st.integers(0, 2**32 - 1)
ablations = dict(use_sao=st.booleans(), use_cfo=st.booleans())


def typed_entries(rng, n, n_types, density):
    """Duplicate-free typed edges; every third type empty, node 0 isolated
    half the time."""
    isolated = rng.random() < 0.5
    parts = []
    for t in range(n_types):
        if t % 3 == 2:
            continue
        u, v = np.nonzero(np.triu(rng.random((n, n)) < density, 1))
        if isolated:
            u, v = u[u > 0], v[u > 0]
        parts.append((u, v, np.full(len(u), t)))
    iu, iv, codes = (
        np.concatenate([p[k] for p in parts]) if parts else np.empty(0, np.int64)
        for k in range(3)
    )
    return iu, iv, rng.uniform(0.05, 3.0, size=len(iu)), codes, n_types, n


def make_model(rng, in_dim, n_types, use_sao=True, use_cfo=True, activation=True):
    model = HAG(
        in_dim, n_types, rng,
        hidden=tuple(int(w) for w in rng.integers(1, 7, size=rng.integers(1, 4))),
        att_dim=int(rng.integers(1, 6)), cfo_att_dim=int(rng.integers(1, 6)),
        cfo_out_dim=int(rng.integers(1, 4)), mlp_hidden=(int(rng.integers(1, 5)),),
        use_sao=use_sao, use_cfo=use_cfo,
    )
    for tower in model.towers:
        for layer in tower:
            layer.activation = activation
    return model


def both_forwards(model, x, aggregators):
    """Logits of the recording forward and of the ``no_grad`` forward."""
    tape = model.forward(Tensor(x), aggregators).numpy()
    with nn.no_grad():
        kernels = model.forward(Tensor(x), aggregators).numpy()
    return tape, kernels


def tape_probability(model, subgraph, features, order):
    """The parent's ``predict_subgraph``: per-type matrices, tape forward."""
    n = subgraph.num_nodes
    if model.use_cfo:
        empty = sp.csr_matrix((n, n))
        adjacencies = [subgraph.adjacency.get(btype, empty) for btype in order]
    else:
        adjacencies = [subgraph.merged()]
    logits = model.forward(Tensor(features), prepare_aggregators(adjacencies)).numpy()
    return float((1.0 / (1.0 + np.exp(-logits)))[0])


def subgraph_pair(rng, n, types, density):
    """The same sampled subgraph built from entries and from a dict."""
    iu, iv, w, codes, n_types, _ = typed_entries(rng, n, len(types), density)
    stacked = stacked_symmetric_csr(iu, iv, w, codes, n_types, n)
    nodes = list(range(n))
    from_stack = ComputationSubgraph(0, nodes, types=types, entries=(iu, iv, w, codes))
    from_dict = ComputationSubgraph(0, nodes, dict(zip(types, stacked.split())))
    return from_stack, from_dict


class TestForwardParity:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=seeds, n=st.integers(1, 12), n_types=st.sampled_from([1, 3, 8]),
        density=st.floats(0.0, 1.0), activation=st.booleans(), **ablations,
    )
    def test_recording_equals_no_grad(
        self, seed, n, n_types, density, activation, use_sao, use_cfo
    ):
        rng = np.random.default_rng(seed)
        in_dim = int(rng.integers(1, 9))
        model = make_model(rng, in_dim, n_types, use_sao, use_cfo, activation)
        stacked = stacked_symmetric_csr(*typed_entries(rng, n, model.n_types, density))
        x = rng.normal(size=(n, in_dim))
        aggregators = prepare_aggregators(stacked.split())
        tape, kernels = both_forwards(model, x, aggregators)
        assert np.array_equal(tape, kernels)
        # ... and from the stacked aggregators
        with nn.no_grad():
            assert np.array_equal(tape, model.forward(Tensor(x), stacked.row_mean()).numpy())
        # the tape forward reads the same bits off the re-homed weights
        assert np.array_equal(tape, model.forward(Tensor(x), aggregators).numpy())

    def test_rejects_wrong_tower_count_and_shape(self, rng):
        model = make_model(rng, 3, 3)
        square = [sp.identity(4, format="csr")] * 3
        with nn.no_grad():
            with pytest.raises(ValueError, match="expected 3 aggregators, got 2"):
                model.forward(Tensor(np.zeros((4, 3))), square[:2])
            with pytest.raises(ValueError, match=r"not all \(5, 5\)"):
                model.forward(Tensor(np.zeros((5, 3))), square)


class TestPredictSubgraphParity:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=seeds, n_types=st.sampled_from([1, 3, 8]), density=st.floats(0.0, 1.0),
        batch=st.integers(1, 8), **ablations,
    )
    def test_scalar_and_packed_equal_the_tape(
        self, seed, n_types, density, batch, use_sao, use_cfo
    ):
        rng = np.random.default_rng(seed)
        in_dim = int(rng.integers(1, 9))
        model = make_model(rng, in_dim, n_types, use_sao, use_cfo)
        # the model's towers: a permutation of the sampler's types, one of
        # them (when there are several) a type no sampler has
        order = [TYPES[t] for t in rng.permutation(n_types)]
        sampler_types = TYPES[:n_types]
        if n_types > 1:
            order[0] = "absent"
        pairs = [
            subgraph_pair(rng, int(rng.integers(1, 10)), sampler_types, density)
            for _ in range(batch)
        ]
        features = [rng.normal(size=(pair[0].num_nodes, in_dim)) for pair in pairs]
        expected = [
            tape_probability(model, pair[1], rows, order)
            for pair, rows in zip(pairs, features)
        ]
        for which in (0, 1):  # built from the stack, built from a dict
            subgraphs = [pair[which] for pair in pairs]
            scalar = [
                model.predict_subgraph(subgraph, rows, edge_type_order=order)
                for subgraph, rows in zip(subgraphs, features)
            ]
            assert scalar == expected
            assert model.predict_subgraphs(subgraphs, features, edge_type_order=order) == expected

    def test_default_order_is_the_subgraphs_sorted_types(self, rng):
        model = make_model(rng, 4, 3)
        types = ("b", "c", "a")
        from_stack, from_dict = subgraph_pair(rng, 6, types, 0.5)
        features = rng.normal(size=(6, 4))
        expected = tape_probability(model, from_dict, features, sorted(types))
        assert model.predict_subgraph(from_stack, features) == expected
        assert model.predict_subgraph(from_dict, features) == expected

    def test_rejects_non_square_blocks(self, rng):
        model = make_model(rng, 4, 1)
        wide = ComputationSubgraph(0, [0, 1], {TYPES[0]: sp.csr_matrix((2, 3))})
        with pytest.raises(ValueError, match=r"not all \(2, 2\)"):
            model.predict_subgraph(wide, np.zeros((2, 4)), edge_type_order=TYPES[:1])


class TestTheThreeFacts:
    """What bit-equality of the two spellings rests on."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=seeds, towers=st.integers(1, 8), n=st.integers(1, 40),
        d=st.integers(1, 70), k=st.integers(1, 130),
    )
    def test_batched_matmul_is_one_blas_call_per_slice(self, seed, towers, n, d, k):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((towers, n, d))
        x = rng.standard_normal((n, d))
        w = rng.standard_normal((towers, d, k))
        p = rng.standard_normal((towers, d))
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo + 1, n + 1))
        batched = np.matmul(a, w)
        shared = np.matmul(x, w)  # a broadcast left operand
        matvec = np.matmul(a, p[:, :, None])[..., 0]  # gemv for a (k, 1) right operand
        block = np.matmul(a[:, lo:hi], w)  # one request block of a pack
        block_matvec = np.matmul(a[:, lo:hi], p[:, :, None])[..., 0]
        for t in range(towers):
            assert np.array_equal(batched[t], a[t] @ w[t])
            assert np.array_equal(shared[t], x @ w[t])
            assert np.array_equal(matvec[t], a[t] @ p[t])
            assert np.array_equal(block[t], a[t][lo:hi] @ w[t])
            assert np.array_equal(block_matvec[t], a[t][lo:hi] @ p[t])

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, n=st.integers(1, 14), n_types=st.integers(1, 8), density=st.floats(0.0, 1.0))
    def test_csr_product_rows_do_not_depend_on_other_rows(self, seed, n, n_types, density):
        rng = np.random.default_rng(seed)
        stacked = stacked_symmetric_csr(*typed_entries(rng, n, n_types, density)).row_mean()
        x = rng.standard_normal((n, 5))
        h = rng.standard_normal((n_types, n, 5))
        first = (stacked.matrix() @ x).reshape(n_types, n, 5)
        later = (stacked.matrix(block_diagonal=True) @ h.reshape(-1, 5)).reshape(n_types, n, 5)
        for t, matrix in enumerate(stacked.split()):
            assert np.array_equal(first[t], matrix @ x)
            assert np.array_equal(later[t], matrix @ h[t])

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, towers=st.integers(1, 8), n=st.integers(1, 30), d=st.integers(1, 20))
    def test_the_rest_is_elementwise_or_a_last_axis_reduction(self, seed, towers, n, d):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((towers, n, d)) * 3
        b = rng.standard_normal((towers, n, d)) * 3
        # tanh once per projection == tanh of the concatenation
        assert np.array_equal(
            np.tanh(np.concatenate([a, b], axis=-1)),
            np.concatenate([np.tanh(a), np.tanh(b)], axis=-1),
        )
        # softmax over the last axis
        shifted = np.exp(a - a.max(axis=-1, keepdims=True))
        soft = shifted / shifted.sum(axis=-1, keepdims=True)
        for t in range(towers):
            e = np.exp(a[t] - a[t].max(axis=1, keepdims=True))
            assert np.array_equal(soft[t], e / e.sum(axis=1, keepdims=True))

    # What computing CFO's attention for ``rows`` only rests on: the products
    # that keep the full shape give a row the same bits whatever the other
    # rows hold, and the ones cut to ``rows`` are per node.

    @settings(max_examples=60, deadline=None)
    @given(
        seed=seeds, n=st.integers(1, 128), d=st.integers(1, 70), k=st.integers(1, 130),
        blocked=st.booleans(),
    )
    def test_a_fixed_shape_product_row_ignores_the_other_rows(self, seed, n, d, k, blocked):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, d))
        w = rng.standard_normal((d, k))
        kept = np.unique(rng.integers(0, n, size=int(rng.integers(1, n + 1))))
        zeroed = np.zeros_like(a)
        zeroed[kept] = a[kept]
        cuts = np.unique(rng.integers(1, n, size=int(rng.integers(0, 8)))) if n > 1 else []
        blocks = nn.row_blocks(np.concatenate(([0], cuts, [n])).astype(np.int64))
        with blocks if blocked else nullcontext():
            full, mostly_zero = stacked_matmul(a, w), stacked_matmul(zeroed, w)
        assert np.array_equal(full[kept], mostly_zero[kept])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=seeds, n=st.integers(1, 128), n_types=st.sampled_from([1, 3, 8]),
        d_k=st.integers(1, 70), d_a=st.integers(1, 70),
    )
    def test_cfo_per_node_products_ignore_the_node_count(self, seed, n, n_types, d_k, d_a):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((n, n_types, d_k))
        w = rng.standard_normal((d_k, d_a))
        v = rng.standard_normal(d_a)
        rows = rng.integers(0, n, size=int(rng.integers(1, n + 1)))
        projected = np.tanh(np.matmul(h, w))
        scores = np.matmul(projected, v)
        alpha = rng.random((n, n_types))
        mixed = (alpha[..., None] * h).sum(axis=1)
        for picked in (rows, rows[:1]):  # among some nodes, and alone
            part = np.ascontiguousarray(h[picked])
            part_projected = np.tanh(np.matmul(part, w))
            assert np.array_equal(part_projected, projected[picked])
            assert np.array_equal(np.matmul(part_projected, v), scores[picked])
            assert np.array_equal((alpha[picked][..., None] * part).sum(axis=1), mixed[picked])


class TestRows:
    """``forward(rows=...)`` is the full forward indexed by ``rows``, in both
    spellings and bit for bit; anything but a 1-D in-range integer array is
    refused."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=seeds, n=st.integers(1, 12), n_types=st.sampled_from([1, 3, 8]),
        density=st.floats(0.0, 1.0), **ablations,
    )
    def test_rows_are_the_full_forward_indexed(self, seed, n, n_types, density, use_sao, use_cfo):
        rng = np.random.default_rng(seed)
        in_dim = int(rng.integers(1, 9))
        model = make_model(rng, in_dim, n_types, use_sao, use_cfo)
        stacked = stacked_symmetric_csr(*typed_entries(rng, n, model.n_types, density))
        x = rng.normal(size=(n, in_dim))
        aggregators = prepare_aggregators(stacked.split())
        rows = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))  # repeats, any order
        full, _ = both_forwards(model, x, aggregators)
        assert np.array_equal(model.forward(Tensor(x), aggregators, rows).numpy(), full[rows])
        with nn.no_grad():
            assert np.array_equal(model.forward(Tensor(x), aggregators, rows).numpy(), full[rows])
            assert np.array_equal(
                model.forward(Tensor(x), stacked.row_mean(), list(rows)).numpy(), full[rows]
            )
        assert np.array_equal(
            model.predict_proba(x, aggregators, rows), model.predict_proba(x, aggregators)[rows]
        )

    @pytest.mark.parametrize(
        "rows", [[[0]], [0.0], [True], [-1], [4], np.array(0)],
        ids=["2-D", "float", "bool", "negative", "past the end", "0-D"],
    )
    def test_rejects_rows_that_are_not_in_range_integers(self, rng, rows):
        model = make_model(rng, 3, 3)
        x = Tensor(rng.normal(size=(4, 3)))
        aggregators = [sp.identity(4, format="csr")] * 3
        with pytest.raises(ValueError, match=r"rows must be a 1-D integer array in \[0, 4\)"):
            model.forward(x, aggregators, rows)
        with nn.no_grad(), pytest.raises(ValueError, match="rows must be"):
            model.forward(x, aggregators, rows)


class TestLazyAdjacency:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, n=st.integers(1, 14), n_types=st.integers(1, 8), density=st.floats(0.0, 1.0))
    def test_split_equals_the_per_type_scipy_build(self, seed, n, n_types, density):
        args = typed_entries(np.random.default_rng(seed), n, n_types, density)
        types = TYPES[:n_types]
        subgraph = ComputationSubgraph(0, list(range(n)), types=types, entries=args[:4])
        assert tuple(subgraph.adjacency) == types
        assert subgraph.adjacency is subgraph.adjacency  # split once
        for actual, expected in zip(
            subgraph.adjacency.values(), typed_symmetric_csr_oracle(*args)
        ):
            assert_same_csr(actual, expected)
            assert actual.has_canonical_format and actual.has_sorted_indices
            assert expected.has_canonical_format

    def test_dict_built_subgraph_keeps_its_dict(self):
        matrix = sp.identity(3, format="csr")
        subgraph = ComputationSubgraph(target=7, nodes=[7, 8, 9], adjacency={"a": matrix})
        assert subgraph.adjacency["a"] is matrix
        types, stacked = subgraph.typed_stack()
        assert types == ("a",) and stacked.shapes == [(3, 3)]
        assert ComputationSubgraph(target=7, nodes=[7]).adjacency == {}

    def test_pickles_in_either_form(self, rng):
        for subgraph in subgraph_pair(rng, 5, TYPES[:3], 0.6):
            clone = pickle.loads(pickle.dumps(subgraph))
            assert (clone.target, clone.nodes) == (subgraph.target, subgraph.nodes)
            for btype, matrix in subgraph.adjacency.items():
                assert_same_csr(clone.adjacency[btype], matrix)


class TestStackedWeightsNeverStale:
    """``HAG._stacked_weights`` makes the stack the parameters' storage; whatever
    rebinds a parameter must be seen by the next ``no_grad`` forward."""

    @pytest.fixture()
    def setup(self, rng):
        model = make_model(rng, 5, 3)
        stacked = stacked_symmetric_csr(*typed_entries(rng, 7, 3, 0.6))
        return model, rng.normal(size=(7, 5)), prepare_aggregators(stacked.split())

    def assert_forwards_agree(self, model, x, aggregators):
        tape, kernels = both_forwards(model, x, aggregators)
        assert np.array_equal(tape, kernels)
        return tape

    def step(self, model, x, aggregators, optimizer):
        optimizer.zero_grad()
        model.forward(Tensor(x), aggregators).sum().backward()
        optimizer.step()

    def test_the_five_mutations(self, setup):
        model, x, aggregators = setup
        seen = [self.assert_forwards_agree(model, x, aggregators)]  # stacks now exist

        def moved():
            seen.append(self.assert_forwards_agree(model, x, aggregators))
            assert not np.array_equal(seen[-1], seen[-2])

        # Adam updates param.data in place: the write lands in the stack
        self.step(model, x, aggregators, nn.Adam(model.parameters(), lr=0.05))
        assert all(p.data.base is not None for p in model.towers[0][0].parameters())
        moved()
        # SGD rebinds param.data
        self.step(model, x, aggregators, nn.SGD(model.parameters(), lr=0.05))
        moved()
        # load_state_dict rebinds it to a copy
        state = {k: v + 0.01 for k, v in model.state_dict().items()}
        model.load_state_dict(state)
        moved()
        # a pickle round-trip arrives with parameters that own their arrays
        clone = pickle.loads(pickle.dumps(model))
        assert clone._weights is None
        assert np.array_equal(self.assert_forwards_agree(clone, x, aggregators), seen[-1])
        # a plain rebind: ``param.data = np.asarray(array)``
        for param in model.parameters():
            param.data = np.asarray(param.data * 1.5, dtype=np.float64)
        moved()

    def test_parameters_and_state_dict_are_untouched(self, setup):
        model, x, aggregators = setup
        params = model.parameters()
        state = model.state_dict()
        self.assert_forwards_agree(model, x, aggregators)
        assert [id(p) for p in model.parameters()] == [id(p) for p in params]
        after = model.state_dict()
        assert list(after) == list(state)
        for key, value in state.items():
            assert np.array_equal(after[key], value) and after[key].base is None
