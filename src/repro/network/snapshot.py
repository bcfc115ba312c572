"""CSR-native snapshots of the Behavior Network.

The BN's dict-of-dicts storage is the right shape for streaming mutation
(O(1) typed-edge updates, O(deg) neighbour queries) but the wrong shape for
the serving/training hot path, which wants whole-graph array operations:
adjacency export, degree normalization, frontier sampling.  The network's
one memoized flat view is its read index
(:class:`~repro.network.sharding.ShardIndex`, one pass over the edge
dict), and those operations read it.  A :class:`BNSnapshot` is the
per-type edge-array view *of that index* (:meth:`ShardIndex.snapshot`, a
mask per type, no second walk) for readers that want each type's edge
list: digests of a network's content, and the whole-graph mask that
pins the index's inducer in the tests.

Caching contract (see ``docs/PERFORMANCE.md``):

* ``index()`` memoizes the read index against the network's mutation
  counter (``BehaviorNetwork.version``), the index memoizes its snapshot,
  and :meth:`~repro.network.bn.BehaviorNetwork.to_arrays` is
  ``index().snapshot()`` — the same object until the next mutation;
* every mutation (``add_weight``, ``add_node`` of a new node,
  ``expire_edges`` that removes anything) bumps the counter, so the next
  ``to_arrays()`` call rebuilds instead of stale-serving — re-reading only
  the pairs written since the last build;
* a whole ``add_weights`` batch — however many contributions — bumps the
  counter exactly once, which is what keeps snapshot churn at one rebuild
  per window job on the ingest path (see "BN ingestion" in
  ``docs/PERFORMANCE.md``);
* snapshots are immutable value objects — mutating the BN never changes an
  already-exported snapshot, and their arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datagen.behavior_types import BehaviorType

__all__ = ["TypedEdgeArrays", "BNSnapshot", "positions_of"]


def positions_of(sorted_ids: np.ndarray, uids: np.ndarray | int) -> np.ndarray:
    """Position of each uid in ``sorted_ids`` (-1 where it is absent).

    The one uid -> position lookup under :class:`BNSnapshot` and
    :class:`~repro.network.sharding.ShardIndex`, which share one sorted
    ``node_ids`` position space; int64 out, shaped like ``uids``.
    """
    uids = np.asarray(uids, dtype=np.int64)
    if not len(sorted_ids):
        return np.full(uids.shape, -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(sorted_ids, uids), len(sorted_ids) - 1)
    return np.where(sorted_ids[pos] == uids, pos, -1)


@dataclass(frozen=True, slots=True)
class TypedEdgeArrays:
    """Flat arrays for one edge type; one entry per ``(u, v)`` pair, ``u < v``.

    ``rows``/``cols`` are positions into the owning snapshot's ``node_ids``
    (not raw user ids), so they can index numpy arrays directly.
    """

    rows: np.ndarray  # int64 positions into BNSnapshot.node_ids
    cols: np.ndarray  # int64 positions into BNSnapshot.node_ids
    weights: np.ndarray  # float64 accumulated weights
    last_update: np.ndarray  # float64 latest contribution timestamps

    @property
    def num_edges(self) -> int:
        return len(self.weights)


@dataclass(frozen=True, slots=True)
class BNSnapshot:
    """One immutable, array-backed export of a :class:`BehaviorNetwork`.

    ``node_ids`` is sorted ascending; ``edges`` maps each edge type present
    in the network to its :class:`TypedEdgeArrays`.  ``version`` records the
    BN mutation counter the snapshot was taken at.
    """

    node_ids: np.ndarray  # sorted int64 user ids
    edges: dict[BehaviorType, TypedEdgeArrays]
    version: int = 0

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def types(self) -> tuple[BehaviorType, ...]:
        """Edge types present, sorted for deterministic iteration."""
        return tuple(sorted(self.edges))

    def num_edges(self, btype: BehaviorType | None = None) -> int:
        """Typed edge count (all types when ``btype`` is omitted)."""
        if btype is not None:
            arrays = self.edges.get(btype)
            return arrays.num_edges if arrays is not None else 0
        return sum(arrays.num_edges for arrays in self.edges.values())

    def positions_of(self, node_ids: np.ndarray) -> np.ndarray:
        """Map raw user ids to snapshot positions (-1 when not registered)."""
        return positions_of(self.node_ids, node_ids)
