"""Regression tree with second-order (XGBoost-style) split gain.

The building block of the GBDT baseline, which stands in for LightGBM in the
GBDT / BLP / DTX experiments.  Splits are found by exact greedy search over
sorted feature values using gradient/hessian prefix sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RegressionTree"]


@dataclass(slots=True)
class TreeNode:
    """A binary tree node; leaves carry the additive weight."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    weight: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class RegressionTree:
    """Fit a regression tree to gradients/hessians of a differentiable loss.

    Leaf weights are the Newton step ``-G / (H + reg_lambda)``.
    """

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 10,
        min_gain: float = 1e-6,
        reg_lambda: float = 1.0,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self.reg_lambda = reg_lambda
        self.root: TreeNode | None = None

    # ------------------------------------------------------------------
    def fit(
        self,
        features: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        feature_indices: np.ndarray | None = None,
    ) -> "RegressionTree":
        """Grow the tree on per-row gradients and hessians."""
        features = np.asarray(features, dtype=np.float64)
        gradients = np.asarray(gradients, dtype=np.float64)
        hessians = np.asarray(hessians, dtype=np.float64)
        if feature_indices is None:
            feature_indices = np.arange(features.shape[1])
        rows = np.arange(features.shape[0])
        self.root = self._grow(features, gradients, hessians, rows, feature_indices, 0)
        return self

    def _leaf(self, gradients: np.ndarray, hessians: np.ndarray, rows: np.ndarray) -> TreeNode:
        g = gradients[rows].sum()
        h = hessians[rows].sum()
        return TreeNode(weight=-g / (h + self.reg_lambda))

    def _grow(
        self,
        features: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        rows: np.ndarray,
        feature_indices: np.ndarray,
        depth: int,
    ) -> TreeNode:
        if depth >= self.max_depth or len(rows) < 2 * self.min_samples_leaf:
            return self._leaf(gradients, hessians, rows)

        best_gain = self.min_gain
        best_feature = -1
        best_threshold = 0.0
        g_total = gradients[rows].sum()
        h_total = hessians[rows].sum()
        parent_score = g_total**2 / (h_total + self.reg_lambda)

        for feature in feature_indices:
            column = features[rows, feature]
            order = np.argsort(column, kind="stable")
            sorted_vals = column[order]
            g_cum = np.cumsum(gradients[rows][order])
            h_cum = np.cumsum(hessians[rows][order])
            # Candidate boundaries: positions where the value changes, with
            # min_samples_leaf on each side.
            idx = np.arange(1, len(rows))
            valid = sorted_vals[1:] != sorted_vals[:-1]
            valid &= (idx >= self.min_samples_leaf) & (
                idx <= len(rows) - self.min_samples_leaf
            )
            if not valid.any():
                continue
            positions = idx[valid]
            g_left = g_cum[positions - 1]
            h_left = h_cum[positions - 1]
            g_right = g_total - g_left
            h_right = h_total - h_left
            gains = (
                g_left**2 / (h_left + self.reg_lambda)
                + g_right**2 / (h_right + self.reg_lambda)
                - parent_score
            )
            local_best = int(np.argmax(gains))
            if gains[local_best] > best_gain:
                best_gain = float(gains[local_best])
                best_feature = int(feature)
                pos = positions[local_best]
                best_threshold = float(
                    0.5 * (sorted_vals[pos - 1] + sorted_vals[pos])
                )

        if best_feature < 0:
            return self._leaf(gradients, hessians, rows)

        mask = features[rows, best_feature] <= best_threshold
        left_rows = rows[mask]
        right_rows = rows[~mask]
        if len(left_rows) < self.min_samples_leaf or len(right_rows) < self.min_samples_leaf:
            return self._leaf(gradients, hessians, rows)
        return TreeNode(
            feature=best_feature,
            threshold=best_threshold,
            left=self._grow(features, gradients, hessians, left_rows, feature_indices, depth + 1),
            right=self._grow(features, gradients, hessians, right_rows, feature_indices, depth + 1),
        )

    # ------------------------------------------------------------------
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Leaf weights for every row (vectorized routing)."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        features = np.asarray(features, dtype=np.float64)
        out = np.empty(features.shape[0])
        # Iterative routing: vectorized per node via index partitions.
        stack: list[tuple[TreeNode, np.ndarray]] = [
            (self.root, np.arange(features.shape[0]))
        ]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                out[rows] = node.weight
                continue
            mask = features[rows, node.feature] <= node.threshold
            stack.append((node.left, rows[mask]))
            stack.append((node.right, rows[~mask]))
        return out

    def depth(self) -> int:
        """Depth of the fitted tree (0 for a stump)."""
        def _depth(node: TreeNode | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))

        return _depth(self.root)
