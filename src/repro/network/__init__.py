"""Behavior Network (BN): construction, maintenance, export, sampling."""

from .adjacency import row_normalize, typed_adjacency
from .bn import DEFAULT_EDGE_TTL, BehaviorNetwork
from .builder import BNBuilder
from .normalize import normalized_weight, type_weighted_degrees
from .sampling import (
    BatchSampleStats,
    ComputationSubgraph,
    computation_subgraphs_batch,
)
from .sharding import (
    ShardIndex,
    build_shard_index,
    shard_of,
)
from .snapshot import BNSnapshot, TypedEdgeArrays
from .windows import FAST_WINDOWS, PAPER_WINDOWS, validate_windows

__all__ = [
    "BehaviorNetwork",
    "DEFAULT_EDGE_TTL",
    "BNBuilder",
    "BNSnapshot",
    "TypedEdgeArrays",
    "typed_adjacency",
    "row_normalize",
    "normalized_weight",
    "type_weighted_degrees",
    "ComputationSubgraph",
    "computation_subgraphs_batch",
    "BatchSampleStats",
    "shard_of",
    "ShardIndex",
    "build_shard_index",
    "PAPER_WINDOWS",
    "FAST_WINDOWS",
    "validate_windows",
]
