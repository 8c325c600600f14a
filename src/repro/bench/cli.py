"""Command-line entry point: ``python -m repro.bench <experiment>``."""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.bench import anchors
from repro.bench.ablation_cache import run_cache_ablation
from repro.bench.ablation_sharding import run_fairness_comparison
from repro.bench.baseline_compare import run_baseline_comparison
from repro.bench.chaos import run_chaos
from repro.bench.fig3_energy import run_fig3
from repro.bench.fleet import anchor_inputs, run_fleet, shard_stats_table
from repro.bench.query_bench import (
    DEFAULT_MIN_SPEEDUP,
    check_query_gate,
    run_query_bench,
)
from repro.bench.ops_table import run_ops_table
from repro.bench.ops_table import stage_table as ops_stage_table
from repro.bench.ops_table import to_table as ops_to_table
from repro.bench.resource_usage import run_resource_usage
from repro.bench.sweeps import SWEEPS, run_sweep, shard_sweep
from repro.consensus.scheduler import SCHEDULER_NAMES
from repro.middleware.config import PipelineConfig


def _positive_int(value: str) -> int:
    """argparse type: an integer >= 1 (rejects 0/-1 with a clean CLI error)."""
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {parsed}")
    return parsed


def _run_sweep(name: str, args: argparse.Namespace) -> str:
    """Run one :data:`SWEEPS` row; --concurrency/--order-batch reach fig1/fig2 only."""
    overrides = {}
    if name in ("fig1", "fig2"):
        if args.concurrency is not None:
            overrides["concurrency"] = args.concurrency
        if args.order_batch > 1:
            overrides["pipeline"] = PipelineConfig(order_batch_size=args.order_batch)
    return run_sweep(SWEEPS[name], requests=args.requests, **overrides).to_table().render()


def _run_fig3(args: argparse.Namespace) -> str:
    figure = run_fig3(interval_s=args.interval)
    return figure.to_table().render()


def _run_ops(args: argparse.Namespace) -> str:
    results = run_ops_table(repeats=max(2, args.requests // 10))
    return "\n\n".join(
        [ops_to_table(results).render(), ops_stage_table(results).render()]
    )


def _run_baselines(args: argparse.Namespace) -> str:
    report = run_baseline_comparison(requests=args.requests)
    return report.to_table().render()


def _run_cache(args: argparse.Namespace) -> str:
    return run_cache_ablation().to_table().render()


def _run_resources(args: argparse.Namespace) -> str:
    reports = run_resource_usage(requests=args.requests)
    return "\n\n".join(report.to_table().render() for report in reports.values())


def _shard_counts(max_shards: int) -> List[int]:
    """1, 2, 4, … doubling up to (and including) ``max_shards``."""
    counts = []
    count = 1
    while count < max_shards:
        counts.append(count)
        count *= 2
    counts.append(max_shards)
    return counts


def _run_sharding(args: argparse.Namespace) -> str:
    # The shard sweep needs enough requests per deployment to reach steady
    # state past the priming and final-block tail; scale the shared
    # --requests knob (default 20 → 240) instead of hiding a second flag.
    requests = max(args.requests, 4) * 12
    ablation = run_sweep(
        shard_sweep(args.scheduler), requests=requests, values=_shard_counts(args.shards)
    )
    fairness = run_fairness_comparison(
        light_requests=max(6, min(requests // 24, 20)),
    )
    return "\n\n".join([ablation.to_table().render(), fairness.to_table().render()])


def _run_fleet(args: argparse.Namespace) -> str:
    # Load before the run: an unreadable anchors file should fail in
    # milliseconds, not after the 10k-device fleet has been simulated.
    committed = anchors.load(args.anchors) if args.anchors else None
    report = run_fleet(
        devices=args.fleet_devices,
        shards=args.fleet_shards,
        workers=args.workers,
        duration_s=args.fleet_duration,
    )
    stats = shard_stats_table(
        report.parallel.shard_stats,
        f"fleet {report.profile} — per-shard wall-clock (parallel run)",
    )
    rendered = "\n\n".join([report.to_table().render(), stats.render()])
    if committed is not None:
        anchors.check(
            committed, "fleet", report.profile,
            anchor_inputs(report.spec), report.anchor,
        )
        rendered += (
            f"\nfleet gate: determinism anchor matches {args.anchors} "
            f"(profile {report.profile})"
        )
    return rendered


def _run_chaos(args: argparse.Namespace) -> str:
    committed = anchors.load(args.anchors) if args.anchors else None
    report = run_chaos()
    rendered = report.to_table().render()
    if committed is not None:
        # Every scenario is checked before failing, so one run of an
        # intentional change lists every anchor that has to be edited.
        failures = []
        for run in report.scenarios:
            try:
                anchors.check(
                    committed, "chaos", run.scenario.name,
                    {"seed": report.seed}, run.anchor,
                )
            except anchors.GateError as exc:
                failures.append(str(exc))
        if failures:
            raise anchors.GateError(
                f"chaos determinism gate vs {args.anchors}:\n"
                + "\n".join(f"  - {failure}" for failure in failures)
            )
        rendered += f"\nchaos gate: every scenario anchor matches {args.anchors}"
    return rendered


def _run_query(args: argparse.Namespace) -> str:
    report = run_query_bench(
        key_scales=tuple(args.query_keys),
        queries=args.query_queries,
        commits=args.query_commits,
        repeats=args.query_repeats,
    )
    check_query_gate(report, min_speedup=args.query_min_speedup)
    return report.to_table().render() + (
        f"\nquery gate: indexed selector meets the "
        f"{args.query_min_speedup}x speedup floor"
    )


EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], str]] = {
    **{name: partial(_run_sweep, name) for name in SWEEPS},
    # The shard sweep takes --shards/--scheduler and prints a second table.
    "ablation-sharding": _run_sharding,
    "fig3": _run_fig3,
    "ops": _run_ops,
    "baselines": _run_baselines,
    "ablation-cache": _run_cache,
    "fleet": _run_fleet,
    "query": _run_query,
    "chaos": _run_chaos,
    "resources": _run_resources,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperprov-bench",
        description="Regenerate the paper's figures and tables on the simulated testbeds.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which experiment(s) to run ('all' runs every one)",
    )
    parser.add_argument(
        "--requests", type=_positive_int, default=20,
        help="requests per measurement point (default: 20)",
    )
    parser.add_argument(
        "--concurrency", type=_positive_int, default=None,
        help="in-flight submissions the closed loop keeps outstanding on "
             "fig1/fig2 (default: the runner's 16; ablation-concurrency "
             "sweeps this knob)",
    )
    parser.add_argument(
        "--interval", type=float, default=600.0,
        help="energy measurement interval in virtual seconds (default: 600)",
    )
    pipeline = parser.add_argument_group(
        "pipeline", "middleware configuration applied to fig1/fig2 runs"
    )
    pipeline.add_argument(
        "--order-batch", type=_positive_int, default=1,
        help="endorsed envelopes coalesced per orderer submission (default: 1)",
    )
    sharding = parser.add_argument_group(
        "sharding", "multi-channel configuration for ablation-sharding"
    )
    sharding.add_argument(
        "--shards", type=_positive_int, default=4,
        help="highest channel-shard count the sharding ablation sweeps to "
             "(doubling from 1; default: 4)",
    )
    sharding.add_argument(
        "--scheduler", choices=sorted(SCHEDULER_NAMES), default="fifo",
        help="orderer intake policy used for the shard throughput sweep "
             "(the tenant-isolation table always compares fifo vs "
             "fair-share; default: fifo)",
    )
    parser.add_argument(
        "--anchors", default=None, metavar="FILE",
        help="committed anchors file (ANCHORS.json) the fleet and chaos "
             "experiments gate against: the run's inputs must have an entry "
             "and its determinism anchor must match, else exit 1; the file "
             "is only read (default: no gate, an ad hoc run)",
    )
    fleet = parser.add_argument_group(
        "fleet", "parallel fleet configuration for the fleet experiment"
    )
    fleet.add_argument(
        "--fleet-devices", type=_positive_int, default=10_000,
        help="IoT devices posting metadata in the fleet run (default: 10000)",
    )
    fleet.add_argument(
        "--fleet-shards", type=_positive_int, default=4,
        help="channel shards (= fleet sites) the devices spread over "
             "(default: 4)",
    )
    fleet.add_argument(
        "--workers", type=_positive_int, default=4,
        help="worker processes for the parallel executor, clamped to the "
             "shard count; 1 runs the sites in-process, one engine each "
             "(default: 4)",
    )
    fleet.add_argument(
        "--fleet-duration", type=float, default=200.0,
        help="virtual seconds of fleet traffic per run (default: 200)",
    )
    query = parser.add_argument_group(
        "query", "read-side query bench configuration for the query "
                 "experiment (the gate checks the indexed-vs-scan speedup of "
                 "the run itself, not absolute throughput)"
    )
    query.add_argument(
        "--query-keys", type=_positive_int, nargs="+", default=[1_000, 10_000],
        help="preloaded key scales the indexed-vs-scan comparison runs at "
             "(default: 1000 10000; the gate applies at the largest)",
    )
    query.add_argument(
        "--query-queries", type=_positive_int, default=30,
        help="selector queries per mode and scale (default: 30)",
    )
    query.add_argument(
        "--query-commits", type=_positive_int, default=32,
        help="commits pushed through the continuous-query delivery "
             "workload (default: 32)",
    )
    query.add_argument(
        "--query-repeats", type=_positive_int, default=2,
        help="measurement passes per mode; the fastest is reported "
             "(default: 2)",
    )
    query.add_argument(
        "--query-min-speedup", type=float, default=DEFAULT_MIN_SPEEDUP,
        help="indexed-vs-scan wall-clock speedup the largest key scale "
             f"must reach before the gate fails (default: {DEFAULT_MIN_SPEEDUP})",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the selected experiments and print their tables."""
    parser = build_parser()
    args = parser.parse_args(argv)
    selected = sorted(EXPERIMENTS) if "all" in args.experiments else args.experiments
    outputs = []
    for name in selected:
        try:
            outputs.append(EXPERIMENTS[name](args))
        except anchors.GateError as exc:
            print("\n\n".join(outputs + [str(exc)]))
            return 1
    print("\n\n".join(outputs))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
