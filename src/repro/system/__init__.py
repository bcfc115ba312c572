"""The Turbo online system: servers, storage, latency simulation, A/B test."""

from .abtest import run_ab_test
from .bn_server import BNServer
from .clock import SimulatedClock
from .config import TurboConfig
from .faults import (
    BudgetExceeded,
    CircuitBreaker,
    CrashWindow,
    FaultInjector,
    InjectedFault,
    RetryPolicy,
    random_fault_plan,
)
from .bn_server import LocalSampler
from .feature_server import FeatureServer
from .lambda_layer import DeltaSampler, LambdaLayer
from .latency import LatencyBreakdown, LatencyModel
from .loadgen import (
    Arrival,
    BurstWindow,
    OpenLoopLoadGenerator,
    PriorityClass,
    TrafficPattern,
    bursts_from_drift,
)
from .model_management import ModelManager
from .monitoring import LatencyHistogram, SystemMonitor
from .prediction_server import PredictionServer
from .queue import (
    QueueConfig,
    QueueFrontend,
    SimulatedWorkerPool,
)
from .service import PredictRequest, RequestContext, Sampler, Service
from .fork_pool import fork_map
from .shard_router import ShardRouter
from .storage import InMemoryCache, LocalDatabase, ReplicatedStore, StorageError
from .turbo import Turbo, TurboResponse, deploy_turbo

__all__ = [
    "SimulatedClock",
    "TurboConfig",
    "PredictRequest",
    "RequestContext",
    "Sampler",
    "Service",
    "LatencyModel",
    "LatencyBreakdown",
    "LocalDatabase",
    "InMemoryCache",
    "ReplicatedStore",
    "StorageError",
    "FaultInjector",
    "InjectedFault",
    "CrashWindow",
    "RetryPolicy",
    "CircuitBreaker",
    "BudgetExceeded",
    "random_fault_plan",
    "BNServer",
    "LocalSampler",
    "LambdaLayer",
    "DeltaSampler",
    "fork_map",
    "ShardRouter",
    "FeatureServer",
    "PredictionServer",
    "TrafficPattern",
    "BurstWindow",
    "PriorityClass",
    "Arrival",
    "OpenLoopLoadGenerator",
    "bursts_from_drift",
    "QueueConfig",
    "SimulatedWorkerPool",
    "QueueFrontend",
    "ModelManager",
    "SystemMonitor",
    "LatencyHistogram",
    "Turbo",
    "TurboResponse",
    "deploy_turbo",
    "run_ab_test",
]
