"""DeepWalk / skip-gram substrate tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import DeepWalk, SkipGramEmbedder
from repro.baselines.deepwalk import random_walks


class TestRandomWalks:
    def test_walk_shape_and_connectivity(self, rng):
        adjacency = {0: [1], 1: [0, 2], 2: [1]}
        walks = random_walks(adjacency, walk_length=4, walks_per_node=2, rng=rng)
        assert len(walks) == 6
        for walk in walks:
            assert 1 <= len(walk) <= 4
            for a, b in zip(walk, walk[1:]):
                assert b in adjacency[a]

    def test_isolated_nodes_skipped(self, rng):
        walks = random_walks({0: [], 1: [2], 2: [1]}, 3, 1, rng)
        assert all(walk[0] != 0 for walk in walks)

    def test_invalid_length(self, rng):
        with pytest.raises(ValueError):
            random_walks({0: [1]}, 0, 1, rng)


class TestSkipGram:
    def test_cooccurring_items_embed_closer(self):
        # Two groups; pairs only within groups.
        centers, contexts = [], []
        rng = np.random.default_rng(0)
        for _ in range(2000):
            group = rng.integers(2)
            a, b = rng.choice([0, 1, 2] if group == 0 else [3, 4, 5], 2, replace=False)
            centers.append(a)
            contexts.append(b)
        embedder = SkipGramEmbedder(6, dim=16, epochs=5, seed=0)
        embedder.train(np.asarray(centers), np.asarray(contexts))
        emb = embedder.embedding()

        def cosine(a, b):
            return a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12)

        within = cosine(emb[0], emb[1])
        across = cosine(emb[0], emb[3])
        assert within > across

    def test_empty_corpus_is_noop(self):
        embedder = SkipGramEmbedder(4, dim=8)
        before = embedder.embedding().copy()
        embedder.train(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        np.testing.assert_allclose(embedder.embedding(), before)

    def test_mismatched_pairs_rejected(self):
        embedder = SkipGramEmbedder(4)
        with pytest.raises(ValueError):
            embedder.train(np.array([0]), np.array([0, 1]))

    def test_invalid_n_items(self):
        with pytest.raises(ValueError):
            SkipGramEmbedder(0)


class TestDeepWalk:
    def test_embedding_shape(self):
        adjacency = {i: [(i + 1) % 6, (i - 1) % 6] for i in range(6)}
        emb = DeepWalk(dim=8, walk_length=5, walks_per_node=3, seed=0).fit(adjacency, 6)
        assert emb.shape == (6, 8)
        assert np.isfinite(emb).all()
