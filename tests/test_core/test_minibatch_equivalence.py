"""Vectorized sampler/induction equivalence against the pinned references.

The vectorized k-hop sampler promises *bit-exact* equality with the
per-node reference loops of ``tests/oracles/minibatch.py`` — same node sets, same ordering, and (for weighted draws)
the same rng stream consumption.  These property-style tests sweep graph
shapes chosen to stress the fanout rank-select and the weighted draws:

* hub graphs → few wide rows far over the fanout;
* clique-like graphs with tied integer weights → many narrow rows with
  heavy ties at the fanout boundary;
* uniform wide-degree graphs → every row over the fanout, ties included.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import induced_adjacencies, sample_khop_nodes
from tests.oracles.minibatch import (
    induced_adjacencies_reference,
    sample_khop_nodes_reference,
)

N_TYPES = 3


def random_adjacencies(
    n: int,
    density: float,
    hubs: int = 0,
    hub_degree: int = 0,
    zero_fraction: float = 0.0,
    integer_weights: bool = False,
    seed: int = 0,
) -> list[sp.csr_matrix]:
    rng = np.random.default_rng(seed)
    matrices = []
    for _ in range(N_TYPES):
        m = int(density * n)
        rows = rng.integers(0, n, size=m)
        cols = rng.integers(0, n, size=m)
        if integer_weights:  # heavy ties exercise stable tie-breaking
            weights = rng.integers(1, 4, size=m).astype(float)
        else:
            weights = rng.random(m) + 0.01
        if zero_fraction > 0:
            weights[rng.random(m) < zero_fraction] = 0.0
        if hubs:
            hub_rows = np.repeat(rng.choice(n, size=hubs, replace=False), hub_degree)
            hub_cols = rng.integers(0, n, size=hubs * hub_degree)
            hub_weights = rng.random(hubs * hub_degree) + 0.01
            rows = np.concatenate([rows, hub_rows])
            cols = np.concatenate([cols, hub_cols])
            weights = np.concatenate([weights, hub_weights])
        a = sp.coo_matrix((weights, (rows, cols)), shape=(n, n)).tocsr()
        a.sum_duplicates()
        matrices.append(a)
    return matrices


GRAPH_CASES = {
    # name: (n, density, hubs, hub_degree, zero_fraction, integer_weights)
    "sparse": (120, 2.0, 0, 0, 0.0, False),
    "hubs": (300, 1.0, 3, 120, 0.0, False),  # few wide rows
    "zero_weights": (200, 3.0, 0, 0, 0.4, False),
    "narrow_tied": (400, 6.0, 0, 0, 0.0, True),  # narrow rows, boundary ties
    "wide_tied": (300, 40.0, 0, 0, 0.0, True),  # every row capped, ties
}


def seed_variants(n: int, rng: np.random.Generator):
    plain = rng.choice(n, size=16, replace=False)
    dup = np.concatenate([plain[:8], plain[:4]])
    return {"plain": plain, "dup": dup, "empty": np.array([], dtype=np.int64)}


@pytest.mark.parametrize("graph", sorted(GRAPH_CASES))
@pytest.mark.parametrize("fanout", [None, 0, 1, 3, 10])
class TestSamplerEquivalence:
    def test_topk_matches_reference(self, graph, fanout):
        n, *params = GRAPH_CASES[graph]
        for seed in (0, 1):
            adjacencies = random_adjacencies(n, *params, seed=seed)
            variants = seed_variants(n, np.random.default_rng(seed + 50))
            for hops in (0, 1, 2, 3):
                for name, seeds in variants.items():
                    vectorized = sample_khop_nodes(
                        adjacencies, seeds, hops, fanout, None
                    )
                    reference = sample_khop_nodes_reference(
                        adjacencies, seeds, hops, fanout, None
                    )
                    np.testing.assert_array_equal(
                        vectorized, reference, err_msg=f"{graph}/{name}/hops={hops}"
                    )

    def test_weighted_draws_match_reference_and_rng_stream(self, graph, fanout):
        if fanout is None:
            pytest.skip("weighted draws need a finite fanout")
        n, *params = GRAPH_CASES[graph]
        adjacencies = random_adjacencies(n, *params, seed=3)
        seeds = seed_variants(n, np.random.default_rng(99))["plain"]
        for hops in (1, 2):
            rng_vec = np.random.default_rng(42)
            rng_ref = np.random.default_rng(42)
            vectorized = sample_khop_nodes(adjacencies, seeds, hops, fanout, rng_vec)
            reference = sample_khop_nodes_reference(
                adjacencies, seeds, hops, fanout, rng_ref
            )
            np.testing.assert_array_equal(vectorized, reference)
            # Both paths must leave the generator at the same position, or
            # training runs would diverge after the first batch.
            assert rng_vec.integers(0, 1 << 30) == rng_ref.integers(0, 1 << 30)


class TestInductionEquivalence:
    @pytest.mark.parametrize("graph", sorted(GRAPH_CASES))
    def test_induced_matrices_identical(self, graph):
        n, *params = GRAPH_CASES[graph]
        adjacencies = random_adjacencies(n, *params, seed=5)
        nodes = sample_khop_nodes(
            adjacencies, np.random.default_rng(7).choice(n, 16), 2, 10
        )
        for vec, ref in zip(
            induced_adjacencies(adjacencies, nodes),
            induced_adjacencies_reference(adjacencies, nodes),
        ):
            assert vec.shape == ref.shape == (len(nodes), len(nodes))
            assert (vec != ref).nnz == 0

    def test_induction_preserves_row_order_of_nodes(self):
        adjacencies = random_adjacencies(50, 4.0, seed=11)
        nodes = np.array([30, 4, 17, 8])
        sub = induced_adjacencies(adjacencies, nodes)[0]
        dense = adjacencies[0].toarray()[np.ix_(nodes, nodes)]
        np.testing.assert_allclose(sub.toarray(), dense)


class TestSharedScratch:
    """A training run passes one ``[marks, stamp]`` pair to every weighted
    draw: the results stay the references', and a warm pair leaves nothing
    the size of the graph to allocate."""

    def test_one_scratch_across_calls_matches_reference(self):
        scratch = [np.empty(0, dtype=np.int64), 0]
        rng_vec, rng_ref = np.random.default_rng(42), np.random.default_rng(42)
        for graph in sorted(GRAPH_CASES):
            n, *params = GRAPH_CASES[graph]
            adjacencies = random_adjacencies(n, *params, seed=3)
            for seeds in seed_variants(n, np.random.default_rng(99)).values():
                nodes = sample_khop_nodes(adjacencies, seeds, 2, 3, rng_vec, scratch)
                reference = sample_khop_nodes_reference(adjacencies, seeds, 2, 3, rng_ref)
                np.testing.assert_array_equal(nodes, reference, err_msg=graph)
                assert rng_vec.bit_generator.state == rng_ref.bit_generator.state

    def test_warm_weighted_draw_allocates_nothing_graph_sized(self):
        n = 200_000  # a bool per node alone would be 200 KB
        degree = np.where(np.arange(n) % 50 == 0, 4, 1)
        rows = np.repeat(np.arange(n), degree)
        steps = np.concatenate([np.arange(1, d + 1) for d in degree])
        rng = np.random.default_rng(0)
        weights = rng.random(len(rows)) + 0.1
        adjacency = sp.csr_matrix((weights, (rows, (rows + 7919 * steps) % n)), shape=(n, n))
        seeds = rng.choice(n, 256, replace=False)
        scratch = [np.empty(0, dtype=np.int64), 0]
        sample_khop_nodes([adjacency], seeds, 2, 2, np.random.default_rng(1), scratch)
        draw, reference_draw = np.random.default_rng(2), np.random.default_rng(2)
        tracemalloc.start()
        try:
            nodes = sample_khop_nodes([adjacency], seeds, 2, 2, draw, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        reference = sample_khop_nodes_reference([adjacency], seeds, 2, 2, reference_draw)
        np.testing.assert_array_equal(nodes, reference)
        assert draw.bit_generator.state == reference_draw.bit_generator.state
        assert peak < 64 * 1024, peak


class TestEdgeCases:
    def test_zero_weight_support_smaller_than_fanout(self):
        # One segment whose nonzero support is below the fanout: the draw
        # must keep the whole support and top up with zero-weight entries
        # in index order — on both paths, consuming the same stream.
        weights = np.array([0.0, 2.0, 0.0, 0.0, 0.0])
        star = sp.csr_matrix(
            (weights, (np.zeros(5, dtype=int), np.arange(1, 6))), shape=(7, 7)
        )
        rng_vec = np.random.default_rng(0)
        rng_ref = np.random.default_rng(0)
        vectorized = sample_khop_nodes([star], np.array([0]), 1, 3, rng_vec)
        reference = sample_khop_nodes_reference([star], np.array([0]), 1, 3, rng_ref)
        np.testing.assert_array_equal(vectorized, reference)
        assert rng_vec.integers(0, 1 << 30) == rng_ref.integers(0, 1 << 30)

    def test_all_weights_zero_with_fanout_zero(self):
        star = sp.csr_matrix(
            (np.zeros(4), (np.zeros(4, dtype=int), np.arange(1, 5))), shape=(5, 5)
        )
        rng = np.random.default_rng(0)
        nodes = sample_khop_nodes([star], np.array([0]), 1, 0, rng)
        np.testing.assert_array_equal(nodes, [0])

    def test_empty_adjacency_list_of_empty_matrices(self):
        empties = [sp.csr_matrix((20, 20)) for _ in range(2)]
        seeds = np.array([3, 1])
        for fanout in (None, 2):
            np.testing.assert_array_equal(
                sample_khop_nodes(empties, seeds, 2, fanout),
                sample_khop_nodes_reference(empties, seeds, 2, fanout),
            )
