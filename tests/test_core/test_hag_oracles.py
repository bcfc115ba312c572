"""The forward's one-sort pack and one-kernel CFO against what they replaced.

``HAG._request_aggregators`` builds a pack's Eq. 6 aggregator from the
requests' stored entries with one ``StackedCSR.from_entries``; it promises
the bytes (``data``, ``indices``, ``indptr``, dtypes, shapes) of the pack it
replaced — every request's type-stacked CSR re-ordered to tower order and
placed down the diagonal (``tests/oracles/sparse.py::block_diagonal``),
then ``row_mean``.  ``cfo_forward_stacked`` attends over every type in one
kernel; it promises the bits of the per-type loop
(``tests/oracles/cfo.py``).  Inputs are drawn by hypothesis: packs of 1–8
requests with one-node subgraphs, types missing from some requests and
from the model's order, dict-built subgraphs (the identity matrix among
them), CFO(-); attention over ``rows`` or every row across the row-chunk
boundary, ``d_a = d_m = 1``, inside and outside ``row_blocks``.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core import HAG, prepare_aggregators
from repro.core.cfo import ROW_CHUNK, cfo_forward_stacked
from repro.network import ComputationSubgraph
from repro.nn.sparse import StackedCSR, stacked_symmetric_csr
from tests.oracles.cfo import cfo_forward_stacked_loop
from tests.oracles.sparse import block_diagonal

TYPES = tuple(f"type{t}" for t in range(8))

seeds = st.integers(0, 2**32 - 1)


def random_subgraph(rng, density):
    """Entries- or dict-built, over a random subset of the types in a random
    order; one node a third of the time, the identity dict now and then."""
    n = 1 if rng.random() < 1 / 3 else int(rng.integers(2, 10))
    if rng.random() < 0.1:
        return ComputationSubgraph(0, list(range(n)), {"a": sp.identity(n, format="csr")})
    types = tuple(rng.permutation(TYPES)[: int(rng.integers(0, len(TYPES) + 1))])
    parts = []
    for t in range(len(types)):
        u, v = np.nonzero(np.triu(rng.random((n, n)) < density, 1))
        parts.append((u, v, np.full(len(u), t)))
    iu, iv, codes = (
        np.concatenate([p[k] for p in parts]) if parts else np.empty(0, np.int64)
        for k in range(3)
    )
    entries = (iu, iv, rng.uniform(0.05, 3.0, size=len(iu)), codes)
    if rng.random() < 0.5:
        return ComputationSubgraph(0, list(range(n)), types=types, entries=entries)
    stacked = stacked_symmetric_csr(*entries, len(types), n)
    return ComputationSubgraph(0, list(range(n)), dict(zip(types, stacked.split())))


def packed_by_slicing(use_cfo, subgraphs, order):
    """The pack as it was built before: each request's stack re-ordered and
    placed down the diagonal by slicing, then normalised."""
    stacks, blocks = [], []
    for subgraph in subgraphs:
        if use_cfo:
            types, stack = subgraph.typed_stack()
            block_of = {btype: k for k, btype in enumerate(types)}
            tower_types = sorted(types) if order is None else order
            blocks.append([block_of.get(btype, -1) for btype in tower_types])
        else:
            stack = StackedCSR.from_matrices([subgraph.merged()])
            blocks.append([0])
        stacks.append(stack)
    sizes = [subgraph.num_nodes for subgraph in subgraphs]
    return block_diagonal(stacks, blocks, sizes).row_mean()


def assert_same_stack(actual: StackedCSR, expected: StackedCSR) -> None:
    assert actual.shapes == expected.shapes
    for name in ("data", "indices", "indptr"):
        a, e = getattr(actual, name), getattr(expected, name)
        if name == "indices" and not len(e):
            # a sliced pack with no block at all shifted its indices by an
            # empty float ``np.repeat([], [])``: float64, which the product
            # then refused (``test_a_request_without_the_models_types_scores``)
            e = e.astype(np.int64)
        assert a.dtype == e.dtype, (name, a.dtype, e.dtype)
        assert a.tobytes() == e.tobytes(), name


class TestPackAggregator:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=seeds, batch=st.integers(1, 8), density=st.floats(0.0, 1.0),
        use_cfo=st.booleans(), own_order=st.booleans(),
    )
    def test_one_sort_equals_the_sliced_pack(self, seed, batch, density, use_cfo, own_order):
        rng = np.random.default_rng(seed)
        model = HAG(3, 4, rng, hidden=(2,), use_cfo=use_cfo)
        subgraphs = [random_subgraph(rng, density) for _ in range(batch)]
        # the model's towers: some of the sampler's types, "a" now and then,
        # and a type no request has
        order = list(rng.permutation(TYPES)[: int(rng.integers(1, 6))]) + ["absent"]
        if rng.random() < 0.5:
            order.insert(int(rng.integers(0, len(order))), "a")
        if own_order:  # one request, its own types sorted
            subgraphs, order = subgraphs[:1], None
        assert_same_stack(
            model._request_aggregators(subgraphs, order),
            packed_by_slicing(use_cfo, subgraphs, order),
        )

    def test_the_identity_dict_alone_and_in_a_pack(self):
        model = HAG(3, 1, np.random.default_rng(0), hidden=(2,))
        identity = ComputationSubgraph(7, [7, 8, 9], {"a": sp.identity(3, format="csr")})
        single = ComputationSubgraph(1, [1])
        for subgraphs in ([identity], [identity, single, identity]):
            assert_same_stack(
                model._request_aggregators(subgraphs, ["a"]),
                packed_by_slicing(True, subgraphs, ["a"]),
            )

    def test_a_request_without_the_models_types_scores(self):
        """Its towers are all empty: the sliced pack's indices came out
        float64 and the product raised ``unsupported data types``."""
        rng = np.random.default_rng(0)
        model = HAG(3, 2, rng, hidden=(2,))
        subgraph = ComputationSubgraph(0, [0, 1], {"a": sp.identity(2, format="csr")})
        features = rng.standard_normal((2, 3))
        empty = [sp.csr_matrix((2, 2))] * 2
        logits = model.forward(nn.Tensor(features), prepare_aggregators(empty)).numpy()
        expected = float(1.0 / (1.0 + np.exp(-logits[0])))
        assert model.predict_subgraph(subgraph, features, ["b", "c"]) == expected


class TestCFOKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=seeds, n_types=st.integers(1, 8), d_k=st.integers(1, 9),
        d_a=st.integers(1, 9), d_m=st.integers(1, 4), every_row=st.booleans(),
        across_chunks=st.booleans(), blocked=st.booleans(),
    )
    def test_one_kernel_equals_the_per_type_loop(
        self, seed, n_types, d_k, d_a, d_m, every_row, across_chunks, blocked
    ):
        rng = np.random.default_rng(seed)
        if across_chunks:  # straddles one or two chunk boundaries
            n = int(rng.integers(ROW_CHUNK - 2, 2 * ROW_CHUNK + 3))
        else:
            n = int(rng.integers(1, 40))
        if rng.random() < 0.25:
            d_a = d_m = 1
        h = rng.standard_normal((n_types, n, d_k)) * 2
        w = rng.standard_normal((n_types, d_k, d_a))
        v = rng.standard_normal((n_types, d_a))
        m = rng.standard_normal((n_types, d_k, d_m))
        rows = None if every_row else rng.integers(0, n, size=int(rng.integers(1, 2 * n + 2)))
        cuts = np.unique(rng.integers(1, n, size=int(rng.integers(0, 6)))) if n > 1 else []
        bounds = np.concatenate(([0], cuts, [n])).astype(np.int64)
        with nn.row_blocks(bounds) if blocked else nullcontext():
            kernel = cfo_forward_stacked(h, w, v, m, rows)
            loop = cfo_forward_stacked_loop(h, list(w), list(v), list(m), rows)
        assert kernel.shape == loop.shape == (n, d_m * n_types)
        assert kernel.flags.c_contiguous
        assert kernel.tobytes() == loop.tobytes()
