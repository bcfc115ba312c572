"""Per-type edge-weight normalization (Section III-A, Sampling & normalization).

To account for the volume difference of edge types, the paper normalizes each
edge weight symmetrically by the *weighted* degrees of its endpoints on that
type::

    w'_r(u, v) = w_r(u, v) * (deg'_r(u) * deg'_r(v)) ** -0.5
    deg'_r(u)  = sum of type-r edge weights incident to u
"""

from __future__ import annotations

import numpy as np

from ..datagen.behavior_types import BehaviorType
from .bn import BehaviorNetwork

__all__ = ["normalized_weight", "type_weighted_degrees"]


def type_weighted_degrees(
    bn: BehaviorNetwork, btype: BehaviorType
) -> dict[int, float]:
    """Weighted degree ``deg'_r(u)`` for every node with type-``r`` edges.

    Read off the degrees the read index keeps for its normalization
    (``bn.index().degrees``); the dict return type is kept for callers
    that look degrees up by user id.
    """
    index = bn.index()
    if btype not in index.types:
        return {}
    degrees = index.degrees[index.types.index(btype)]
    populated = np.flatnonzero(degrees)
    node_ids = index.node_ids
    return {int(node_ids[i]): float(degrees[i]) for i in populated}


def normalized_weight(
    weight: float, deg_u: float, deg_v: float
) -> float:
    """Apply the symmetric normalization; returns 0 for isolated endpoints."""
    if deg_u <= 0.0 or deg_v <= 0.0:
        return 0.0
    return weight / (deg_u * deg_v) ** 0.5
