#!/usr/bin/env python3
"""One wall-clock benchmark for the simulator.

    python benchmarks/perf/run.py --workload ingest [--seed N] [--trace]
    python benchmarks/perf/run.py --all

Run protocol (every workload): one fresh process re-exec'd with
``PYTHONHASHSEED=0``; one discarded warm-up pass at quarter scale; then
:data:`PASSES` timed passes of identical inputs on fresh deployments,
``gc.collect()`` between them.  The passes must agree on the virtual-time
anchor or the run errors.  ``--trace`` adds one separate traced pass with
the same inputs; end-to-end metrics are never taken from it.

The last line of standard output is one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics without ``--trace``, the 120 per-layer metrics with it.  See
README.md for the glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"

#: ``run_seconds`` of BENCHMARK.json: ``--seconds`` scales every workload
#: linearly from the sizes that give ~5 s per timed pass at this value.
RUN_SECONDS = 10
PASSES = 2
WARMUP_SCALE = 0.25

WORKLOAD_NAMES = ("ingest", "read_mix", "tenant_mix", "fleet")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "call_us_p50": "us",
    "call_us_p95": "us",
    "peak_rss_mb": "MiB",
    "sim_latency_ms": "ms",
}

#: Everything the workloads import from the program, timed as one import.
_PROGRAM_MODULES = [
    "repro.api.service", "repro.core.topology", "repro.middleware.config",
    "repro.bench.fleet", "repro.simulation.parallel", "repro.workloads.fleet",
]


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOAD_NAMES)
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="timed work per run at reference speed")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add the traced pass and print per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="extra size factor (self-tests use 0.02)")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write every 64th request as Chrome trace-event JSON")
    parser.add_argument("--out", metavar="FILE",
                        help="append the full report of each run as one JSON line")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    if args.trace_out and not args.trace:
        parser.error("--trace-out needs --trace")
    return args


def run_all(args: argparse.Namespace) -> int:
    """One fresh process per workload; their reports pass straight through."""
    forwarded = [
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", str(args.scale),
    ]
    if args.out:
        forwarded += ["--out", args.out]
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, *forwarded]
        if args.trace_out:
            command += ["--trace-out", f"{args.trace_out}.{name}.json"]
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def run_pass(workload, seed: int, scale: float, tracer=None):
    import probes

    gc.collect()
    if tracer is None:
        return workload(seed, scale, None)
    with probes.installed(tracer):
        return workload(seed, scale, tracer)


def _pooled_calls_us(passes) -> List[float]:
    """Call latencies of every pass, at reference speed."""
    return [t * 1e6 for result in passes for t in result.recorder.reference_calls_s()]


def _raw_rate(result) -> float:
    """Correct operations per raw (un-normalised) second of the timed region."""
    return (result.ops - result.failed) / result.recorder.region_s


def end_to_end_metrics(passes, import_s: float) -> Dict[str, float]:
    from host import peak_rss_mib
    from repro.common.metrics import percentile

    calls_us = _pooled_calls_us(passes)
    return {
        "setup_s": import_s + median([r.setup_s for r in passes]),
        "ops_per_s": median([(r.ops - r.failed) / r.recorder.reference_region_s for r in passes]),
        "call_us_p50": percentile(calls_us, 50.0),
        "call_us_p95": percentile(calls_us, 95.0),
        "peak_rss_mb": peak_rss_mib(),
        "sim_latency_ms": passes[0].sim_latency_ms,
    }


def per_layer_metrics(passes, traced, tracer) -> Dict[str, float]:
    import probes
    from host import pass_spread
    from repro.common.metrics import percentile

    recorder = traced.recorder
    metrics = probes.per_probe_metrics(
        tracer, traced.ops, recorder.reference_region_s / recorder.region_s)
    metrics.update(probes.derived_from_trace(tracer, traced.ops, recorder.region_s))

    def extra(name: str) -> float:
        """Median over the untraced passes of a fleet-only measurement."""
        return median([r.extras.get(name, 0.0) for r in passes])

    calls_us = _pooled_calls_us(passes)
    raw_rates = [_raw_rate(r) for r in passes]
    parallel_s, sequential_s = extra("parallel_wall_s"), extra("sequential_wall_s")
    speedup = sequential_s / parallel_s if parallel_s else 0.0
    workers = extra("parallel_workers")
    # Fleet's traced pass has no parallel run: compare like with like.
    comparable = sequential_s or median([r.recorder.reference_region_s for r in passes])
    metrics.update({
        "api.call_us_p99": percentile(calls_us, 99.0),
        "api.call_us_p999": percentile(calls_us, 99.9),
        "simulation.parallel.speedup": speedup,
        "simulation.parallel.efficiency": speedup / workers if workers else 0.0,
        "simulation.parallel.stall_share": extra("parallel_stall_share"),
        "simulation.parallel.wall_s": parallel_s,
        "simulation.sequential.wall_s": sequential_s,
        "host.speed_factor": median([r.recorder.speed_factor for r in passes]),
        "host.raw_ops_per_s": median(raw_rates),
        "host.gc_collections": median([float(r.gc_collections) for r in passes]),
        "host.pass_spread": pass_spread(raw_rates),
        "trace.overhead_ratio": recorder.reference_region_s / comparable,
    })
    return {name: metrics[name] for name in probes.PER_LAYER_UNITS}


def run_workload(args: argparse.Namespace) -> int:
    import host

    host.ensure_fixed_hash_seed()
    if not SRC.is_dir():
        print(f"error: {SRC} not found — run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import_s = host.time_imports(_PROGRAM_MODULES)

    import probes
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    scale = args.seconds / RUN_SECONDS * args.scale
    run_pass(workload, args.seed, scale * WARMUP_SCALE)
    passes = [run_pass(workload, args.seed, scale) for _ in range(PASSES)]

    traced = tracer = None
    if args.trace:
        tracer = Tracer(probes.PROBE_NAMES)
        traced = run_pass(workload, args.seed, scale, tracer)
    counted = passes + ([traced] if traced else [])
    anchors = {result.sim_anchor for result in counted}
    if len(anchors) != 1:
        print(f"error: passes of one seed disagree on the virtual-time anchor: "
              f"{sorted(anchors)}", file=sys.stderr)
        return 1

    if traced is None:
        values = end_to_end_metrics(passes, import_s)
        units = END_TO_END_UNITS
    else:
        values = per_layer_metrics(passes, traced, tracer)
        units = probes.PER_LAYER_UNITS
        if args.trace_out:
            events = tracer.write_chrome_trace(args.trace_out)
            print(f"wrote {events} trace events to {args.trace_out}")

    rates = [_raw_rate(r) for r in passes]
    attempted = sum(r.ops for r in counted)
    failed = sum(r.failed for r in counted)
    report: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": scale,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "sim_anchor": passes[0].sim_anchor,
        "noisy": host.pass_spread(rates) > host.NOISY_PASS_SPREAD,
        "notes": [note for r in counted for note in r.notes],
        "passes": [
            {
                "raw_ops_per_s": rate,
                "speed_factor": r.recorder.speed_factor,
                "setup_s": r.setup_s,
                "region_s": r.recorder.region_s,
            }
            for r, rate in zip(passes, rates)
        ],
        "import_s": import_s,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    print_report(report)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(report) + "\n")
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def print_report(report: Dict[str, Any]) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"scale {report['scale']:.4g}  anchor {report['sim_anchor'][:16]}"
          f"{'  NOISY' if report['noisy'] else ''}")
    print(f"  failed_share {report['failed_share']:.6g} "
          f"({report['failed']} of {report['attempted']} operations)")
    for note in report["notes"]:
        print(f"  ! {note}")
    width = max(len(name) for name in report["metrics"])
    for name, entry in report["metrics"].items():
        print(f"  {name:<{width}}  {entry['value']:>14.6g} {entry['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
