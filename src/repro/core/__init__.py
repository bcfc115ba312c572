"""The paper's primary contribution: SAO, CFO, HAG, and its training loop."""

from .cfo import CFOLayer
from .hag import HAG, prepare_aggregators
from .influence import influence_distribution, influence_scores
from .lambda_infer import HAGState, materialize
from .minibatch import induced_adjacencies, sample_khop_nodes
from .sao import SAOLayer, neighbor_mean_matrix
from .train_engine import train_parallel, train_with_neighbor_sampling
from .trainer import TrainConfig, TrainResult, train_node_classifier

__all__ = [
    "SAOLayer",
    "neighbor_mean_matrix",
    "CFOLayer",
    "HAG",
    "prepare_aggregators",
    "HAGState",
    "materialize",
    "TrainConfig",
    "TrainResult",
    "train_node_classifier",
    "influence_scores",
    "influence_distribution",
    "sample_khop_nodes",
    "induced_adjacencies",
    "train_with_neighbor_sampling",
    "train_parallel",
]
