"""DeepTrax (DTX) baseline tests."""

from __future__ import annotations

import numpy as np

from repro.baselines import DeepTraxEmbedder
from repro.baselines.deeptrax import build_bipartite
from repro.datagen import BehaviorLog, BehaviorType

DEV = BehaviorType.DEVICE_ID


def logs_for(pairs):
    return [BehaviorLog(uid, DEV, value, float(i)) for i, (uid, value) in enumerate(pairs)]


class TestBuildBipartite:
    def test_entities_map_to_user_indices(self):
        logs = logs_for([(10, "a"), (11, "a"), (12, "b")])
        adjacency = build_bipartite(logs, [10, 11, 12])
        assert list(adjacency.values()) == [[0, 1]]  # only "a" is shared

    def test_large_entities_dropped(self):
        logs = logs_for([(u, "public") for u in range(10)])
        adjacency = build_bipartite(logs, list(range(10)), max_entity_degree=5)
        assert adjacency == {}

    def test_unknown_users_ignored(self):
        logs = logs_for([(10, "a"), (99, "a")])
        adjacency = build_bipartite(logs, [10])
        assert adjacency == {}

    def test_non_edge_types_ignored(self):
        logs = [BehaviorLog(1, BehaviorType.GPS, "x", 0.0), BehaviorLog(2, BehaviorType.GPS, "x", 1.0)]
        assert build_bipartite(logs, [1, 2]) == {}


class TestDeepTraxEmbedder:
    def test_embedding_shape_and_rows_align(self, tiny_dataset):
        users = sorted(tiny_dataset.labels)[:50]
        embedder = DeepTraxEmbedder(dim=8, epochs=1, seed=0)
        emb = embedder.fit_transform(tiny_dataset.logs, users)
        assert emb.shape == (50, 8)
        assert np.isfinite(emb).all()

    def test_ring_members_embed_close(self):
        """Users sharing a device embed closer than non-co-occurring users."""
        logs = []
        # Ring: users 0-2 share one device repeatedly.
        for i in range(30):
            logs.append(BehaviorLog(i % 3, DEV, "ring_dev", float(i)))
        # Strangers: users 3-12 each on their own device.
        for uid in range(3, 13):
            logs.append(BehaviorLog(uid, DEV, f"own_{uid}", float(uid)))
        embedder = DeepTraxEmbedder(
            dim=16, epochs=20, lr=0.1, pairs_per_entity=200, seed=0
        )
        emb = embedder.fit_transform(logs, list(range(13)))

        def cosine(a, b):
            return a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12)

        within = np.mean(
            [cosine(emb[i], emb[j]) for i in range(3) for j in range(i + 1, 3)]
        )
        across = np.mean(
            [cosine(emb[i], emb[3 + k]) for i in range(3) for k in range(10)]
        )
        assert within > across
