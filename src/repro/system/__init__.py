"""The Turbo online system: servers, storage, latency simulation, A/B test."""

from .abtest import ABTestResult, run_ab_test
from .bn_server import BNServer
from .clock import SimulatedClock
from .config import TurboConfig
from .faults import (
    BudgetExceeded,
    CircuitBreaker,
    CrashWindow,
    FaultEvent,
    FaultInjector,
    InjectedFault,
    RetryPolicy,
    random_fault_plan,
)
from .bn_server import LocalSampler
from .feature_server import FeatureServer
from .lambda_layer import DeltaSampler, LambdaHit, LambdaLayer
from .latency import LatencyBreakdown, LatencyModel
from .loadgen import (
    DEFAULT_PRIORITY_CLASSES,
    Arrival,
    BurstWindow,
    OpenLoopLoadGenerator,
    PriorityClass,
    TrafficPattern,
    bursts_from_drift,
)
from .model_management import ModelManager, ModelVersion
from .monitoring import LatencyHistogram, SystemMonitor
from .prediction_server import PredictionServer
from .queue import (
    Autoscaler,
    QueueConfig,
    QueueFrontend,
    QueueRecord,
    RequestQueue,
    SimulatedWorkerPool,
)
from .service import PredictRequest, RequestContext, Sampler, Service
from .fork_pool import ForkPool
from .shard_router import ShardRouter
from .shard_workers import (
    ShardWorkerPool,
    fullgraph_executor,
    publish_materialize_inputs,
)
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
    "FaultEvent",
    "CrashWindow",
    "RetryPolicy",
    "CircuitBreaker",
    "BudgetExceeded",
    "random_fault_plan",
    "BNServer",
    "LocalSampler",
    "LambdaLayer",
    "LambdaHit",
    "DeltaSampler",
    "ForkPool",
    "ShardRouter",
    "ShardWorkerPool",
    "fullgraph_executor",
    "publish_materialize_inputs",
    "FeatureServer",
    "PredictionServer",
    "TrafficPattern",
    "BurstWindow",
    "PriorityClass",
    "DEFAULT_PRIORITY_CLASSES",
    "Arrival",
    "OpenLoopLoadGenerator",
    "bursts_from_drift",
    "QueueConfig",
    "QueueRecord",
    "RequestQueue",
    "SimulatedWorkerPool",
    "Autoscaler",
    "QueueFrontend",
    "ModelManager",
    "ModelVersion",
    "SystemMonitor",
    "LatencyHistogram",
    "Turbo",
    "TurboResponse",
    "deploy_turbo",
    "ABTestResult",
    "run_ab_test",
]
