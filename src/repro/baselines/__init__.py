"""Every baseline of the paper's evaluation, plus the production rules."""

from .blocklist import Blocklist
from .blp import BLPClassifier, BLPFeatureExtractor
from .deeptrax import DeepTraxEmbedder
from .deepwalk import DeepWalk, SkipGramEmbedder
from .dnn import DNNClassifier
from .fallback import FallbackStack
from .gat import GAT, GATLayer, gat_edges
from .gbdt import GradientBoostingClassifier, RegressionTree
from .gcn import GCN, gcn_aggregator
from .graphsage import GraphSAGE, SAGELayer, sage_aggregator
from .logistic import LogisticRegression
from .registry import METHODS, get_method, hag_method, method_names
from .scorecard import Scorecard, ScorecardRule, default_scorecard
from .svm import LinearSVM

__all__ = [
    "LogisticRegression",
    "LinearSVM",
    "GradientBoostingClassifier",
    "RegressionTree",
    "DNNClassifier",
    "GCN",
    "gcn_aggregator",
    "GraphSAGE",
    "SAGELayer",
    "sage_aggregator",
    "GAT",
    "GATLayer",
    "gat_edges",
    "BLPClassifier",
    "BLPFeatureExtractor",
    "DeepTraxEmbedder",
    "DeepWalk",
    "SkipGramEmbedder",
    "Scorecard",
    "ScorecardRule",
    "default_scorecard",
    "Blocklist",
    "FallbackStack",
    "METHODS",
    "method_names",
    "get_method",
    "hag_method",
]
