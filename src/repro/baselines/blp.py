"""BLP baseline — Behavior Language Processing (Min et al.).

Constructs an offline user–entity bipartite graph from the behavior logs,
runs a *homophily test* to decide which behavior types carry label-coherent
co-occurrence (types failing the test are excluded from the graph), extracts
structural graph features (degrees, clustering coefficient, quadrangle
counts) on the user–user projection, and feeds them — concatenated with the
original handcrafted features — to a GBDT classifier (LightGBM in the
paper, our GBDT here).

Note the method is *offline/transductive*: the bipartite graph covers the
full log history including the users under evaluation, which is exactly the
deployment limitation the paper contrasts Turbo's inductive serving against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..datagen.behavior_types import EDGE_TYPES, BehaviorType
from ..datagen.entities import BehaviorLog
from .gbdt import GradientBoostingClassifier

__all__ = ["BLPFeatureExtractor", "BLPClassifier"]

BLP_FEATURE_NAMES: tuple[str, ...] = (
    "entity_count",
    "shared_entity_count",
    "projected_degree",
    "projected_weighted_degree",
    "clustering_coefficient",
    "quadrangle_count",
    "max_entity_size",
)


class BLPFeatureExtractor:
    """Structural features from the (homophily-tested) bipartite graph."""

    def __init__(
        self,
        edge_types: Sequence[BehaviorType] = EDGE_TYPES,
        max_entity_degree: int = 80,
        homophily_threshold: float = 0.6,
    ) -> None:
        self.edge_types = tuple(edge_types)
        self.max_entity_degree = max_entity_degree
        self.homophily_threshold = homophily_threshold
        self._user_entities: dict[int, set[int]] = {}
        self._entity_users: list[list[int]] = []
        self.kept_types: set[BehaviorType] = set()

    def fit(
        self,
        logs: Sequence[BehaviorLog],
        train_labels: dict[int, int],
    ) -> "BLPFeatureExtractor":
        """Run the homophily test per behavior type, then build the graph.

        A type passes when, among labeled-train user pairs co-occurring on
        its entities, the same-label fraction exceeds the threshold — i.e.
        its co-occurrence relation is label-coherent enough that structural
        features over it are meaningful.
        """
        wanted = set(self.edge_types)
        per_type_entities: dict[BehaviorType, dict[str, set[int]]] = {
            t: {} for t in wanted
        }
        for log in logs:
            if log.btype in wanted:
                per_type_entities[log.btype].setdefault(log.value, set()).add(log.uid)

        self.kept_types = set()
        for btype, entities in per_type_entities.items():
            same = different = 0
            for members in entities.values():
                labeled = [train_labels[u] for u in members if u in train_labels]
                if len(labeled) < 2 or len(members) > self.max_entity_degree:
                    continue
                positives = sum(labeled)
                negatives = len(labeled) - positives
                same += positives * (positives - 1) // 2
                same += negatives * (negatives - 1) // 2
                different += positives * negatives
            total = same + different
            if total > 0 and same / total >= self.homophily_threshold:
                self.kept_types.add(btype)

        # Build the bipartite graph over the types that passed the test.
        entity_users: list[list[int]] = []
        user_entities: dict[int, set[int]] = {}
        for btype in self.kept_types:
            for members in per_type_entities[btype].values():
                if len(members) < 2:
                    continue
                eid = len(entity_users)
                entity_users.append(sorted(members))
                for uid in members:
                    user_entities.setdefault(uid, set()).add(eid)
        self._entity_users = entity_users
        self._user_entities = user_entities
        return self

    def features(self, uid: int) -> np.ndarray:
        """Structural feature vector for one user (zeros for unseen users)."""
        entities = self._user_entities.get(uid)
        if not entities:
            return np.zeros(len(BLP_FEATURE_NAMES))

        shared = [
            e for e in entities if len(self._entity_users[e]) <= self.max_entity_degree
        ]
        neighbor_weights: dict[int, int] = {}
        for e in shared:
            for v in self._entity_users[e]:
                if v != uid:
                    neighbor_weights[v] = neighbor_weights.get(v, 0) + 1
        degree = len(neighbor_weights)
        weighted_degree = float(sum(neighbor_weights.values()))
        # Quadrangles u-e-v-e'-u: pairs of entities shared with a neighbour.
        quadrangles = sum(w * (w - 1) // 2 for w in neighbor_weights.values())
        clustering = self._clustering(uid, list(neighbor_weights))
        max_size = max((len(self._entity_users[e]) for e in entities), default=0)
        return np.asarray(
            [
                float(len(entities)),
                float(len(shared)),
                float(degree),
                weighted_degree,
                clustering,
                float(quadrangles),
                float(max_size),
            ]
        )

    def _clustering(self, uid: int, neighbors: list[int], cap: int = 30) -> float:
        """Local clustering coefficient on the projection (capped for cost)."""
        if len(neighbors) < 2:
            return 0.0
        neighbors = neighbors[:cap]
        neighbor_set = set(neighbors)
        links = 0
        for v in neighbors:
            v_entities = self._user_entities.get(v, set())
            peers: set[int] = set()
            for e in v_entities:
                if len(self._entity_users[e]) <= self.max_entity_degree:
                    peers.update(self._entity_users[e])
            links += len((peers & neighbor_set) - {v})
        k = len(neighbors)
        return links / (k * (k - 1))

    def matrix(self, uids: Sequence[int]) -> np.ndarray:
        """Stack the per-user graph feature vectors."""
        return np.stack([self.features(u) for u in uids])


class BLPClassifier:
    """BLP end-to-end: graph features (+ original features) -> GBDT."""

    def __init__(
        self,
        use_original_features: bool = True,
        gbdt_params: dict | None = None,
        extractor: BLPFeatureExtractor | None = None,
    ) -> None:
        self.use_original_features = use_original_features
        self.extractor = extractor or BLPFeatureExtractor()
        self.classifier = GradientBoostingClassifier(**(gbdt_params or {}))
        self._fitted = False

    def fit(
        self,
        logs: Sequence[BehaviorLog],
        train_uids: Sequence[int],
        train_labels: np.ndarray,
        train_features: np.ndarray | None = None,
    ) -> "BLPClassifier":
        """Fit the homophily test, graph features and the GBDT."""
        label_map = {u: int(l) for u, l in zip(train_uids, train_labels)}
        self.extractor.fit(logs, label_map)
        graph_features = self.extractor.matrix(train_uids)
        design = self._design(graph_features, train_features)
        self.classifier.fit(design, np.asarray(train_labels))
        self._fitted = True
        return self

    def predict_proba(
        self, uids: Sequence[int], features: np.ndarray | None = None
    ) -> np.ndarray:
        """Fraud probabilities for ``uids`` from the fitted pipeline."""
        if not self._fitted:
            raise RuntimeError("model is not fitted")
        graph_features = self.extractor.matrix(uids)
        return self.classifier.predict_proba(self._design(graph_features, features))

    def _design(
        self, graph_features: np.ndarray, original: np.ndarray | None
    ) -> np.ndarray:
        if self.use_original_features:
            if original is None:
                raise ValueError("original features required but not supplied")
            return np.hstack([graph_features, original])
        return graph_features
