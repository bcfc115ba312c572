"""Turbo reproduction: fraud detection in deposit-free leasing services.

Full reimplementation of Hu et al., *"Turbo: Fraud Detection in Deposit-free
Leasing Service via Real-Time Behavior Network Mining"* (ICDE 2021):

* :mod:`repro.datagen` — synthetic leasing platform (Jimi-data substitute);
* :mod:`repro.network` — Behavior Network construction (Algorithm 1);
* :mod:`repro.features` — the X_u / X_tau / X_s feature pipeline;
* :mod:`repro.core` — HAG with the SAO and CFO operators;
* :mod:`repro.baselines` — every competitor of the evaluation section;
* :mod:`repro.system` — the online Turbo system with latency simulation;
* :mod:`repro.eval` — metrics, splits, empirical studies, experiment runner;
* :mod:`repro.nn` — the numpy autograd substrate the models run on.

Quickstart::

    from repro import make_d1, prepare_experiment, get_method, run_method

    dataset = make_d1(scale=0.3)
    data = prepare_experiment(dataset)
    report, scores = run_method(get_method("HAG"), data)
    print(report.as_percentages())
"""

from .core import HAG, CFOLayer, SAOLayer, prepare_aggregators
from .datagen import (
    BehaviorType,
    Dataset,
    GeneratorConfig,
    LeasingPlatformSimulator,
    make_d1,
    make_d2,
)
from .eval import (
    classification_report,
    prepare_experiment,
    repeat_method,
    run_method,
)
from .baselines import get_method, method_names
from .network import BehaviorNetwork, BNBuilder
from .system import Turbo, deploy_turbo

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "BehaviorType",
    "Dataset",
    "GeneratorConfig",
    "LeasingPlatformSimulator",
    "make_d1",
    "make_d2",
    "BehaviorNetwork",
    "BNBuilder",
    "HAG",
    "SAOLayer",
    "CFOLayer",
    "prepare_aggregators",
    "classification_report",
    "prepare_experiment",
    "run_method",
    "repeat_method",
    "get_method",
    "method_names",
    "Turbo",
    "deploy_turbo",
]
