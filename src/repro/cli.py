"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``stats``      generate a synthetic dataset and print Table II-style statistics
``empirical``  print the Fig. 4 empirical-pattern summaries
``evaluate``   train and score detection methods (Table III-style rows)
``serve``      deploy the online system, replay requests, print telemetry
``abtest``     run the Section VI-E A/B replay against the rule scorecard
``trace``      replay requests and render one request's span tree + metrics
``lambda``     two-tier serving demo: batch pass, replay, staleness stats
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Turbo (ICDE 2021) reproduction command-line interface",
    )
    parser.add_argument(
        "--scale", type=float, default=0.3, help="dataset scale factor"
    )
    parser.add_argument("--seed", type=int, default=7, help="generation seed")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("stats", help="dataset + BN statistics (Table II)")
    subparsers.add_parser("empirical", help="Fig. 4 empirical-pattern summaries")

    evaluate = subparsers.add_parser("evaluate", help="run detection methods")
    evaluate.add_argument(
        "--methods",
        default="LR,GBDT,GraphSAGE,HAG",
        help="comma-separated method names (see `repro.method_names()`)",
    )
    evaluate.add_argument("--seeds", default="0", help="comma-separated seeds")

    serve = subparsers.add_parser("serve", help="online system demo")
    serve.add_argument("--requests", type=int, default=100)
    serve.add_argument("--no-cache", action="store_true")

    abtest = subparsers.add_parser("abtest", help="online A/B replay")
    abtest.add_argument("--threshold", type=float, default=0.85)

    trace = subparsers.add_parser(
        "trace", help="replay requests, render a span tree + metrics snapshot"
    )
    trace.add_argument("--requests", type=int, default=20)
    trace.add_argument(
        "--index",
        type=int,
        default=-1,
        help="which replayed request's trace to render (default: the last)",
    )
    trace.add_argument(
        "--export",
        default=None,
        metavar="PATH",
        help="also write every trace's spans to a JSONL file",
    )

    lam = subparsers.add_parser(
        "lambda",
        help="two-tier (batch + delta) serving: run a batch pass, replay "
        "requests, print staleness/refresh stats",
    )
    lam.add_argument("--requests", type=int, default=50)
    lam.add_argument(
        "--staleness-budget",
        type=int,
        default=0,
        help="max delta edge touches a cached score may carry (0 = bit-exact)",
    )
    lam.add_argument(
        "--refresh",
        action="store_true",
        help="trigger a second batch pass after the replay (recomputes "
        "only the cone of what changed since the deploy pass)",
    )
    return parser


def _make_data(args):
    from .datagen import make_d1
    from .eval import prepare_experiment
    from .network import FAST_WINDOWS

    dataset = make_d1(scale=args.scale, seed=args.seed)
    return dataset, prepare_experiment(dataset, windows=FAST_WINDOWS, seed=0)


def cmd_stats(args) -> int:
    from .datagen import dataset_statistics, make_d1
    from .network import BNBuilder, FAST_WINDOWS

    dataset = make_d1(scale=args.scale, seed=args.seed)
    bn = BNBuilder(windows=FAST_WINDOWS).build(dataset.logs)
    stats = dataset_statistics(dataset, bn)
    print(f"{'Dataset':<8}{'# node':>10}{'# positive':>12}{'# edge':>12}{'# type':>8}")
    print(stats.as_row())
    print(f"behavior logs: {len(dataset.logs):,}")
    return 0


def cmd_empirical(args) -> int:
    from .eval.empirical import hop_fraud_ratios, time_burst_summary
    from .network import BNBuilder, FAST_WINDOWS
    from .datagen import make_d1

    dataset = make_d1(scale=args.scale, seed=args.seed)
    bn = BNBuilder(windows=FAST_WINDOWS).build(dataset.logs)
    labels = dataset.labels
    for name, fraud in (("normal", False), ("fraud", True)):
        burst = time_burst_summary(dataset, fraud=fraud)
        print(
            f"{name:<7} users={burst.n_users:<5} std={burst.mean_std_days:6.1f}d"
            f"  near-application={100 * burst.near_application_fraction:5.1f}%"
        )
    fraud_hops = hop_fraud_ratios(bn, labels, fraud=True, max_hops=2)
    normal_hops = hop_fraud_ratios(bn, labels, fraud=False, max_hops=2)
    print(f"hop-1/2 fraud ratio around fraud:  {fraud_hops[0]:.3f} / {fraud_hops[1]:.3f}")
    print(f"hop-1/2 fraud ratio around normal: {normal_hops[0]:.3f} / {normal_hops[1]:.3f}")
    return 0


def cmd_evaluate(args) -> int:
    from .baselines import get_method
    from .eval import repeat_method

    _dataset, data = _make_data(args)
    seeds = tuple(int(s) for s in args.seeds.split(","))
    names = [name.strip() for name in args.methods.split(",") if name.strip()]
    print(
        f"{'Method':<12}{'Precision':>10}{'Recall':>10}{'F1':>10}{'F2':>10}{'AUC':>10}"
    )
    for name in names:
        result = repeat_method(name, get_method(name), data, seeds=seeds)
        row = result.report.as_percentages()
        print(
            f"{name:<12}{row['Precision']:>10.2f}{row['Recall']:>10.2f}"
            f"{row['F1']:>10.2f}{row['F2']:>10.2f}{row['AUC']:>10.2f}"
        )
    return 0


def cmd_serve(args) -> int:
    from .datagen import make_d1
    from .network import FAST_WINDOWS
    from .system import TurboConfig, deploy_turbo

    dataset = make_d1(scale=args.scale, seed=args.seed)
    turbo, data = deploy_turbo(
        dataset,
        TurboConfig(
            windows=FAST_WINDOWS,
            use_cache=not args.no_cache,
            train_epochs=30,
            hidden=(32, 16),
            seed=0,
        ),
    )
    latest = {t.uid: t for t in data.feature_manager.latest_transactions()}
    rng = np.random.default_rng(0)
    uids = rng.choice(sorted(latest), size=min(args.requests, len(latest)), replace=False)
    for uid in uids:
        txn = latest[int(uid)]
        turbo.handle_request(txn, now=txn.audit_at)
    print(turbo.monitor.report())
    return 0


def cmd_abtest(args) -> int:
    from .baselines import default_scorecard
    from .datagen import make_d1
    from .network import FAST_WINDOWS
    from .system import TurboConfig, deploy_turbo, run_ab_test

    dataset = make_d1(scale=args.scale, seed=args.seed)
    turbo, data = deploy_turbo(
        dataset,
        TurboConfig(
            windows=FAST_WINDOWS,
            threshold=args.threshold,
            train_epochs=30,
            hidden=(32, 16),
            seed=0,
        ),
    )
    test_uids = {data.nodes[i] for i in data.test_idx}
    transactions = [t for t in dataset.transactions if t.uid in test_uids]
    result = run_ab_test(
        turbo, default_scorecard(0.6), dataset, transactions, np.random.default_rng(0)
    )
    print(
        f"baseline fraud ratio {100 * result.baseline_fraud_ratio:.2f}%  "
        f"test fraud ratio {100 * result.test_fraud_ratio:.2f}%  "
        f"reduction {100 * result.fraud_ratio_reduction:.1f}%"
    )
    print(
        f"online precision {100 * result.online_precision:.1f}%  "
        f"recall {100 * result.online_recall:.1f}%"
    )
    return 0


def cmd_trace(args) -> int:
    from .datagen import make_d1
    from .network import FAST_WINDOWS
    from .obs import assert_all_traced, render_span_tree, write_spans_jsonl
    from .system import TurboConfig, deploy_turbo

    dataset = make_d1(scale=args.scale, seed=args.seed)
    turbo, data = deploy_turbo(
        dataset,
        TurboConfig(windows=FAST_WINDOWS, train_epochs=30, hidden=(32, 16), seed=0),
    )
    latest = {t.uid: t for t in data.feature_manager.latest_transactions()}
    rng = np.random.default_rng(0)
    uids = rng.choice(
        sorted(latest), size=min(args.requests, len(latest)), replace=False
    )
    responses = []
    for uid in uids:
        txn = latest[int(uid)]
        responses.append(turbo.handle_request(txn, now=txn.audit_at))
    assert_all_traced(responses)
    response = responses[args.index]
    print(
        f"trace {response.trace_id}  uid={response.uid}  txn={response.txn_id}"
        f"  degradation={response.degradation}"
    )
    print(render_span_tree(response.span))
    print()
    print(turbo.metrics.render())
    if args.export:
        lines = write_spans_jsonl([r.span for r in responses], args.export)
        print(f"\nexported {lines} spans to {args.export}")
    return 0


def cmd_lambda(args) -> int:
    from .datagen import make_d1
    from .network import FAST_WINDOWS
    from .obs import assert_all_traced
    from .system import TurboConfig, deploy_turbo

    dataset = make_d1(scale=args.scale, seed=args.seed)
    turbo, data = deploy_turbo(
        dataset,
        TurboConfig(
            windows=FAST_WINDOWS,
            train_epochs=30,
            hidden=(32, 16),
            seed=0,
            lambda_tier=True,
            lambda_staleness_budget=args.staleness_budget,
        ),
    )
    lam = turbo.lambda_layer

    def report_materialize(label: str) -> None:
        last = lam.last_materialize
        print(
            f"{label}: mode={last.mode}  rows={last.rows_computed}/{last.total_rows}"
            f"  edges={last.edges_touched}"
        )

    report_materialize("deploy pass")
    latest = {t.uid: t for t in data.feature_manager.latest_transactions()}
    rng = np.random.default_rng(0)
    uids = rng.choice(
        sorted(latest), size=min(args.requests, len(latest)), replace=False
    )
    responses = []
    for uid in uids:
        txn = latest[int(uid)]
        responses.append(turbo.handle_request(txn, now=txn.audit_at))
    assert_all_traced(responses)
    if args.refresh:
        lam.run_incremental_pass(turbo.clock.now())
        report_materialize("refresh pass")

    served = {"lambda": 0, "sampled": 0}
    for response in responses:
        served[response.tier] = served.get(response.tier, 0) + 1
    stats = lam.stats()
    print(
        f"batch passes {stats['batch_passes']:.0f}  "
        f"covered nodes {stats['covered_nodes']:.0f}  "
        f"bn version {stats['bn_version']:.0f}"
    )
    print(
        f"served: lambda={served['lambda']}  sampled={served['sampled']}  "
        f"(staleness budget {args.staleness_budget})"
    )
    print(
        f"lookups: hits={stats['hits']:.0f}  "
        f"miss.uncovered={stats['misses_uncovered']:.0f}  "
        f"miss.stale={stats['misses_stale']:.0f}  "
        f"miss.unbound={stats['misses_unbound']:.0f}"
    )
    print(
        f"fallthrough: requests={stats['fallthrough_requests']:.0f}  "
        f"sampled nodes={stats['fallthrough_nodes']:.0f}  "
        f"pending delta size={stats['delta_size']:.0f}"
    )

    return 0


_COMMANDS = {
    "stats": cmd_stats,
    "empirical": cmd_empirical,
    "evaluate": cmd_evaluate,
    "serve": cmd_serve,
    "abtest": cmd_abtest,
    "trace": cmd_trace,
    "lambda": cmd_lambda,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
