"""DeepWalk-style skip-gram embeddings with negative sampling.

Substrate for the DeepTrax baseline: random walks over an adjacency-list
graph feed a skip-gram model trained with SGNS (mini-batched numpy SGD).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = ["SkipGramEmbedder", "DeepWalk"]


def random_walks(
    adjacency: Mapping[int, Sequence[int]],
    walk_length: int,
    walks_per_node: int,
    rng: np.random.Generator,
) -> list[list[int]]:
    """Uniform random walks from every node with at least one neighbour."""
    if walk_length < 1:
        raise ValueError("walk_length must be >= 1")
    walks: list[list[int]] = []
    nodes = [n for n in adjacency if len(adjacency[n]) > 0]
    for _ in range(walks_per_node):
        for start in nodes:
            walk = [start]
            current = start
            for _ in range(walk_length - 1):
                neighbors = adjacency.get(current)
                if not neighbors:
                    break
                current = neighbors[int(rng.integers(len(neighbors)))]
                walk.append(current)
            walks.append(walk)
    return walks


class SkipGramEmbedder:
    """Skip-gram with negative sampling over (center, context) index pairs."""

    def __init__(
        self,
        n_items: int,
        dim: int = 64,
        negatives: int = 5,
        lr: float = 0.05,
        epochs: int = 3,
        batch_size: int = 1024,
        seed: int = 0,
    ) -> None:
        if n_items < 1:
            raise ValueError("n_items must be >= 1")
        self.n_items = n_items
        self.dim = dim
        self.negatives = negatives
        self.lr = lr
        self.epochs = epochs
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        scale = 1.0 / dim
        self.in_vectors = self.rng.uniform(-scale, scale, size=(n_items, dim))
        self.out_vectors = np.zeros((n_items, dim))

    def train(self, centers: np.ndarray, contexts: np.ndarray) -> None:
        """SGNS over the pair corpus; vectorized mini-batches."""
        centers = np.asarray(centers, dtype=np.int64)
        contexts = np.asarray(contexts, dtype=np.int64)
        if centers.shape != contexts.shape:
            raise ValueError("centers and contexts must align")
        n = len(centers)
        if n == 0:
            return
        for _ in range(self.epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = order[start : start + self.batch_size]
                self._step(centers[batch], contexts[batch])

    def _step(self, centers: np.ndarray, contexts: np.ndarray) -> None:
        b = len(centers)
        v_in = self.in_vectors[centers]  # (b, d)
        # Positive examples.
        v_pos = self.out_vectors[contexts]
        score_pos = 1.0 / (1.0 + np.exp(-np.sum(v_in * v_pos, axis=1)))
        coef_pos = (score_pos - 1.0)[:, None]  # d loss / d score
        grad_in = coef_pos * v_pos
        grad_pos = coef_pos * v_in
        # Negative examples.
        negs = self.rng.integers(self.n_items, size=(b, self.negatives))
        v_neg = self.out_vectors[negs]  # (b, k, d)
        score_neg = 1.0 / (1.0 + np.exp(-np.einsum("bd,bkd->bk", v_in, v_neg)))
        grad_in += np.einsum("bk,bkd->bd", score_neg, v_neg)
        grad_neg = score_neg[..., None] * v_in[:, None, :]

        self.in_vectors[centers] -= self.lr * grad_in
        np.add.at(self.out_vectors, contexts, -self.lr * grad_pos)
        np.add.at(
            self.out_vectors, negs.ravel(), -self.lr * grad_neg.reshape(-1, self.dim)
        )

    def embedding(self) -> np.ndarray:
        """The learned input-side embedding matrix."""
        return self.in_vectors


class DeepWalk:
    """Classic DeepWalk: walks + windowed skip-gram pairs + SGNS."""

    def __init__(
        self,
        dim: int = 64,
        walk_length: int = 8,
        walks_per_node: int = 5,
        window: int = 2,
        negatives: int = 5,
        epochs: int = 3,
        lr: float = 0.05,
        seed: int = 0,
    ) -> None:
        self.dim = dim
        self.walk_length = walk_length
        self.walks_per_node = walks_per_node
        self.window = window
        self.negatives = negatives
        self.epochs = epochs
        self.lr = lr
        self.seed = seed

    def fit(self, adjacency: Mapping[int, Sequence[int]], n_items: int) -> np.ndarray:
        """Return an ``(n_items, dim)`` embedding matrix."""
        rng = np.random.default_rng(self.seed)
        walks = random_walks(adjacency, self.walk_length, self.walks_per_node, rng)
        centers: list[int] = []
        contexts: list[int] = []
        for walk in walks:
            for i, center in enumerate(walk):
                lo = max(0, i - self.window)
                hi = min(len(walk), i + self.window + 1)
                for j in range(lo, hi):
                    if j != i:
                        centers.append(center)
                        contexts.append(walk[j])
        embedder = SkipGramEmbedder(
            n_items,
            dim=self.dim,
            negatives=self.negatives,
            lr=self.lr,
            epochs=self.epochs,
            seed=self.seed,
        )
        embedder.train(np.asarray(centers), np.asarray(contexts))
        return embedder.embedding()
