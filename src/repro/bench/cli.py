"""Command-line entry point: ``python -m repro.bench <experiment>``."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Callable, Dict, List, Optional

from repro.bench import anchors
from repro.bench.chaos import run_chaos
from repro.bench.experiments import (
    CLAIMS_LOAD,
    EXPERIMENTS,
    Experiment,
    command_of,
    measure,
    render,
    sweep_experiment,
)
from repro.bench.fleet import anchor_inputs, run_fleet, shard_stats_table
from repro.bench.query_bench import (
    DEFAULT_MIN_SPEEDUP,
    check_query_gate,
    run_query_bench,
)
from repro.bench.sweeps import shard_sweep
from repro.consensus.scheduler import SCHEDULER_NAMES


def _positive_int(value: str) -> int:
    """argparse type: an integer >= 1 (rejects 0/-1 with a clean CLI error)."""
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {parsed}")
    return parsed


def _shard_counts(max_shards: int) -> List[int]:
    """1, 2, 4, … doubling up to (and including) ``max_shards``."""
    counts = []
    count = 1
    while count < max_shards:
        counts.append(count)
        count *= 2
    counts.append(max_shards)
    return counts


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


#: The commands a table row cannot express: each runs its own workload and
#: fails the command on a committed anchor or a same-run ratio.
GATES: Dict[str, Callable[[argparse.Namespace], str]] = {
    "fleet": _run_fleet,
    "query": _run_query,
    "chaos": _run_chaos,
}
COMMANDS = sorted({command_of(key) for key in EXPERIMENTS} | set(GATES))
#: Seed of every table experiment.
SEED = 42


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperprov-bench",
        description="Regenerate the paper's figures and tables on the simulated testbeds.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=COMMANDS + ["all"],
        help="which experiment(s) to run ('all' runs every one)",
    )
    parser.add_argument(
        "--requests", type=_positive_int, default=CLAIMS_LOAD,
        help=f"requests per measurement point (default: {CLAIMS_LOAD}, the claims' load)",
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


def tables_for(args: argparse.Namespace) -> Dict[str, Experiment]:
    """:data:`EXPERIMENTS`, the shard sweep built from ``--shards`` and ``--scheduler``."""
    sharding = replace(shard_sweep(args.scheduler), values=_shard_counts(args.shards))
    return {**EXPERIMENTS, "ablation-sharding": sweep_experiment(sharding)}


def main(argv: Optional[List[str]] = None) -> int:
    """Measure every selected table, then print them (a claim of ``fig2``
    reads ``fig1`` too); only a gate sets the exit code, never a claim."""
    args = build_parser().parse_args(argv)
    selected = COMMANDS if "all" in args.experiments else args.experiments
    tables = tables_for(args)
    measured = measure(tables, [key for key in tables if command_of(key) in selected],
                       args.requests, SEED)
    outputs = []
    for name in selected:
        if name not in GATES:
            outputs.extend(render(key, measured, args.requests, tables)
                           for key in tables if command_of(key) == name)
            continue
        try:
            outputs.append(GATES[name](args))
        except anchors.GateError as exc:
            print("\n\n".join(outputs + [str(exc)]))
            return 1
    print("\n\n".join(outputs))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
