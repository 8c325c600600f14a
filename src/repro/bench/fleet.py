"""Fleet-scale wall-clock benchmark (``bench fleet``).

Runs the 10k-device metadata-post fleet twice — once on the parallel
executor (one forked worker per site group) and once on the sequential
engine — and reports the wall-clock speedup plus the virtual-time
**determinism anchor**: a digest over every site's commit log
(tx ids, submit/commit times, validation codes, block numbers).  The two
runs must produce byte-identical anchors; a mismatch fails the benchmark
because it means the parallel decomposition changed simulated behaviour.

The parallel run goes **first**: the measurement forks its workers from a
clean heap.  Running it after the sequential pass would fork children
into a heap holding millions of dead simulation objects, and their GC
passes would fault all of those pages copy-on-write — a measurement
artifact, not a property of either executor.

A gate, not a row of :data:`repro.bench.experiments.EXPERIMENTS`: a row
cannot fail the command.  Nothing is written.  With ``--anchors
ANCHORS.json`` the anchor is gated against the entry committed for this
run's inputs (see :mod:`repro.bench.anchors`); CI does that at a reduced
profile, which catches any change that silently moves virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.bench.anchors import GateError
from repro.bench.reporting import ResultTable, format_seconds
from repro.consensus.batching import BatchConfig
from repro.simulation.parallel import (
    FleetRunResult,
    ShardRunStats,
    run_fleet_parallel,
    run_fleet_sequential,
)
from repro.workloads.fleet import FleetSpec

#: Mean metadata posts per device per second (one post every 200 s).
FLEET_RATE_PER_DEVICE_S = 0.005

#: Virtual seconds of fleet traffic per run.
FLEET_DURATION_S = 200.0

#: Fraction of devices cycling offline (churn) during the run.
FLEET_CHURN_FRACTION = 0.1

#: One partition window: the last replica of every site drops out of the
#: mesh mid-run and heals, exercising delivery retries deterministically.
FLEET_PARTITION_WINDOWS = ((60.0, 90.0),)


def fleet_spec(
    devices: int = 10_000,
    shards: int = 4,
    duration_s: float = FLEET_DURATION_S,
    seed: int = 42,
) -> FleetSpec:
    """The canonical bench fleet: churn + partition on, per-post blocks.

    ``max_message_count=1`` cuts one block per post — the latency-oriented
    configuration matching the paper's unbatched per-transaction transfer
    semantics, and the regime where commit-delivery cost dominates the
    sequential baseline.
    """
    return FleetSpec(
        devices=devices,
        shards=shards,
        rate_per_device_s=FLEET_RATE_PER_DEVICE_S,
        duration_s=duration_s,
        seed=seed,
        churn_fraction=FLEET_CHURN_FRACTION,
        partition_windows=FLEET_PARTITION_WINDOWS,
        batch_config=BatchConfig(max_message_count=1),
    )


def profile_name(spec: FleetSpec) -> str:
    """The ``fleet`` section key one configuration's anchor lives under."""
    return f"{spec.devices}x{spec.shards}"


def anchor_inputs(spec: FleetSpec) -> Dict[str, object]:
    """The inputs that determine a bench fleet run's anchor (everything
    else in :func:`fleet_spec` is a module constant)."""
    return {
        "devices": spec.devices,
        "shards": spec.shards,
        "duration_s": spec.duration_s,
        "seed": spec.seed,
    }


@dataclass
class FleetBenchReport:
    """Parallel-vs-sequential comparison of one fleet configuration."""

    spec: FleetSpec
    parallel: FleetRunResult
    sequential: FleetRunResult

    @property
    def profile(self) -> str:
        return profile_name(self.spec)

    @property
    def anchor(self) -> str:
        return self.sequential.anchor

    @property
    def speedup(self) -> float:
        if self.parallel.wall_s <= 0:
            return 0.0
        return self.sequential.wall_s / self.parallel.wall_s

    def verify_determinism(self) -> None:
        """Fail loudly when the executors disagree on virtual time."""
        if self.parallel.anchor != self.sequential.anchor:
            raise GateError(
                "fleet determinism anchor mismatch: parallel "
                f"{self.parallel.anchor} != sequential {self.sequential.anchor} "
                f"(profile {self.profile})"
            )

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title=(
                f"bench fleet — {self.spec.devices} devices × "
                f"{self.spec.shards} shards metadata-post "
                f"({self.parallel.workers} workers)"
            ),
            columns=[
                "executor", "workers", "wall time", "committed",
                "wall tx/s", "anchor",
            ],
        )
        for result in (self.sequential, self.parallel):
            table.add_row(
                result.mode,
                result.workers,
                format_seconds(result.wall_s),
                result.committed,
                round(result.throughput_wall(), 1),
                result.anchor[:16],
            )
        table.add_note(
            f"parallel speedup: {self.speedup:.2f}x; virtual-time commit "
            "logs byte-identical (anchors match)"
        )
        return table


def shard_stats_table(stats: List[ShardRunStats], title: str) -> ResultTable:
    """Per-worker utilization/stall table (satellite of every fleet run)."""
    table = ResultTable(
        title=title,
        columns=[
            "worker", "sites", "events",
            "busy wall", "barrier stall", "utilization",
        ],
    )
    for entry in stats:
        table.add_row(
            entry.worker,
            ",".join(str(site) for site in entry.sites),
            entry.events,
            format_seconds(entry.busy_wall_s),
            format_seconds(entry.barrier_stall_s),
            f"{entry.utilization * 100:.1f}%",
        )
    table.add_note(
        "busy wall is a worker's build + submit + drain time; barrier stall "
        "is what the join costs it (the slowest worker's busy time minus its "
        "own), so stall measures how unevenly the sites were assigned"
    )
    return table


def run_fleet(
    devices: int = 10_000,
    shards: int = 4,
    workers: int = 4,
    duration_s: float = FLEET_DURATION_S,
    seed: int = 42,
) -> FleetBenchReport:
    """Measure parallel then sequential and verify the determinism anchor."""
    spec = fleet_spec(devices=devices, shards=shards, duration_s=duration_s, seed=seed)
    spec.validate()
    # Parallel first: fork from a clean heap (see module docstring).
    parallel = run_fleet_parallel(spec, workers=workers)
    sequential = run_fleet_sequential(spec)
    report = FleetBenchReport(spec=spec, parallel=parallel, sequential=sequential)
    report.verify_determinism()
    return report
