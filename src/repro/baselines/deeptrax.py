"""DeepTrax (DTX) baseline — Bruss et al., Capital One.

Poses the behavior logs as a user–entity bipartite graph and applies a
simplified *two-hop* DeepWalk: a walk step goes user -> shared entity ->
user, so skip-gram pairs are co-occurring users.  The resulting user
embeddings feed a GBDT classifier: DTX1 classifies on the embedding alone,
DTX2 on the concatenation of embedding and original features — the paper
uses the gap between the two to show the value of the original features.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..datagen.behavior_types import EDGE_TYPES, BehaviorType
from ..datagen.entities import BehaviorLog
from .deepwalk import SkipGramEmbedder

__all__ = ["DeepTraxEmbedder"]


def build_bipartite(
    logs: Sequence[BehaviorLog],
    users: Sequence[int],
    edge_types: Sequence[BehaviorType] = EDGE_TYPES,
    max_entity_degree: int = 100,
) -> dict[int, list[int]]:
    """Entity -> user-index adjacency for the bipartite co-occurrence graph.

    Entities shared by more than ``max_entity_degree`` users (public
    resources) are dropped: their co-occurrence signal is negligible and
    their quadratic pair volume is not.
    """
    user_index = {uid: i for i, uid in enumerate(users)}
    entity_users: dict[tuple[BehaviorType, str], set[int]] = {}
    wanted = set(edge_types)
    for log in logs:
        if log.btype not in wanted:
            continue
        idx = user_index.get(log.uid)
        if idx is None:
            continue
        entity_users.setdefault((log.btype, log.value), set()).add(idx)
    adjacency: dict[int, list[int]] = {}
    entity_id = 0
    for members in entity_users.values():
        if 2 <= len(members) <= max_entity_degree:
            adjacency[entity_id] = sorted(members)
            entity_id += 1
    return adjacency


class DeepTraxEmbedder:
    """Two-hop DeepWalk user embeddings from behavior logs."""

    def __init__(
        self,
        dim: int = 32,
        pairs_per_entity: int = 50,
        negatives: int = 5,
        epochs: int = 5,
        lr: float = 0.08,
        seed: int = 0,
        max_entity_degree: int = 100,
    ) -> None:
        self.dim = dim
        self.pairs_per_entity = pairs_per_entity
        self.negatives = negatives
        self.epochs = epochs
        self.lr = lr
        self.seed = seed
        self.max_entity_degree = max_entity_degree

    def fit_transform(
        self,
        logs: Sequence[BehaviorLog],
        users: Sequence[int],
        edge_types: Sequence[BehaviorType] = EDGE_TYPES,
    ) -> np.ndarray:
        """Return an ``(len(users), dim)`` embedding matrix (rows align)."""
        rng = np.random.default_rng(self.seed)
        entities = build_bipartite(logs, users, edge_types, self.max_entity_degree)

        centers: list[int] = []
        contexts: list[int] = []
        for members in entities.values():
            n = len(members)
            # Sample two-hop user pairs through this entity.
            k = min(self.pairs_per_entity, n * (n - 1))
            for _ in range(k):
                i, j = rng.integers(n), rng.integers(n)
                if i != j:
                    centers.append(members[i])
                    contexts.append(members[j])
        embedder = SkipGramEmbedder(
            len(users),
            dim=self.dim,
            negatives=self.negatives,
            lr=self.lr,
            epochs=self.epochs,
            seed=self.seed,
        )
        embedder.train(np.asarray(centers, dtype=np.int64), np.asarray(contexts, dtype=np.int64))
        return embedder.embedding()
