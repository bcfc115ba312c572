"""Behavior Network (BN): construction, maintenance, export, sampling."""

from .adjacency import (
    gcn_normalize,
    merged_adjacency,
    row_normalize,
    typed_adjacency,
    typed_adjacency_reference,
)
from .bn import DEFAULT_EDGE_TTL, BehaviorNetwork, EdgeRecord
from .builder import BNBuilder
from .io import load_bn, save_bn
from .normalize import normalized_weight, type_weighted_degrees
from .sampling import (
    BatchSampleStats,
    ComputationSubgraph,
    computation_subgraph,
    computation_subgraphs_batch,
)
from .sampled_graph import SampledGraph, build_sampled_graph
from .sharding import (
    ShardIndex,
    ShardedBehaviorNetwork,
    build_shard_index,
    shard_of,
)
from .snapshot import BNSnapshot, TypedEdgeArrays
from .windows import FAST_WINDOWS, PAPER_WINDOWS, validate_windows

__all__ = [
    "BehaviorNetwork",
    "EdgeRecord",
    "DEFAULT_EDGE_TTL",
    "BNBuilder",
    "save_bn",
    "load_bn",
    "BNSnapshot",
    "TypedEdgeArrays",
    "typed_adjacency",
    "merged_adjacency",
    "typed_adjacency_reference",
    "row_normalize",
    "gcn_normalize",
    "normalized_weight",
    "type_weighted_degrees",
    "ComputationSubgraph",
    "computation_subgraph",
    "computation_subgraphs_batch",
    "BatchSampleStats",
    "shard_of",
    "SampledGraph",
    "build_sampled_graph",
    "ShardIndex",
    "ShardedBehaviorNetwork",
    "build_shard_index",
    "PAPER_WINDOWS",
    "FAST_WINDOWS",
    "validate_windows",
]
