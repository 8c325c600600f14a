"""Wall-clock performance harness (``bench perf``).

Every other experiment in this package reports *virtual-time* metrics:
latencies and throughputs as the modelled hardware would observe them.
Those numbers are invariant under optimizations of the simulator itself,
which makes them useless for tracking how fast the simulation *runs*.
This harness measures the complementary quantity — simulated transactions
(or queries) per *wall-clock* second — across the three hot paths the
ledger optimizations target:

``commit-heavy``
    The fig1 metadata-post workload (endorse → order → commit, no
    off-chain payload) at several request counts.  Dominated by envelope
    serialization, rw-set digests and per-peer block commits.
``range-query``
    ``getbyrange`` windows over a preloaded world state.  Dominated by
    the world-state key-space scan.
``rich-query``
    Prefix-scoped selector queries (``query``) over the same preloaded
    state.  Dominated by candidate-key selection and record parsing.
``read-mix``
    Alternating range and rich queries on one deployment — the combined
    read workload the ledger index accelerates end to end.

Results are written to ``BENCH_PERF.json`` (repo root by default) so the
perf trajectory has committed data points; ``check_regression`` compares
a fresh run against a committed baseline for the CI perf-smoke gate.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.reporting import ResultTable, format_seconds
from repro.bench.runner import RunConfig, StoreDataRunner
from repro.chaincode.records import ProvenanceRecord
from repro.common.hashing import checksum_of
from repro.core.topology import HyperProvDeployment, build_desktop_deployment

#: Default output location — the repo-root perf trajectory file.
DEFAULT_OUTPUT = "BENCH_PERF.json"

#: Keys are spread over this many ``perf/gNN/`` prefix groups so the
#: rich-query workload has a realistic candidate subset per selector.
PREFIX_GROUPS = 16


class PerfRegressionError(RuntimeError):
    """Raised when a run falls too far below the committed baseline."""


@dataclass
class PerfMeasurement:
    """One workload at one scale, measured in wall-clock time."""

    workload: str
    scale: int
    operations: int
    wall_s: float
    #: Simulated operations completed per wall-clock second — the number
    #: the optimizations move.
    wall_ops_per_s: float
    #: Mean *virtual-time* latency of the same operations.  Optimizations
    #: must not move this (no behavioural drift); recorded as the anchor.
    virtual_mean_s: float

    @property
    def label(self) -> str:
        return f"{self.workload}@{self.scale}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "scale": self.scale,
            "operations": self.operations,
            "wall_s": round(self.wall_s, 4),
            "wall_ops_per_s": round(self.wall_ops_per_s, 2),
            "virtual_mean_s": round(self.virtual_mean_s, 6),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PerfMeasurement":
        return cls(
            workload=str(data["workload"]),
            scale=int(data["scale"]),
            operations=int(data["operations"]),
            wall_s=float(data["wall_s"]),
            wall_ops_per_s=float(data["wall_ops_per_s"]),
            virtual_mean_s=float(data["virtual_mean_s"]),
        )


@dataclass
class PerfReport:
    """All measurements of one harness invocation."""

    measurements: List[PerfMeasurement] = field(default_factory=list)

    def find(self, workload: str, scale: int) -> Optional[PerfMeasurement]:
        for measurement in self.measurements:
            if measurement.workload == workload and measurement.scale == scale:
                return measurement
        return None

    def to_dict(self) -> Dict[str, object]:
        return {"measurements": [m.to_dict() for m in self.measurements]}

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="bench perf — wall-clock throughput of the simulation hot paths",
            columns=[
                "workload", "scale", "operations", "wall time",
                "wall ops/s", "virtual mean latency",
            ],
        )
        for m in self.measurements:
            table.add_row(
                m.workload, m.scale, m.operations, format_seconds(m.wall_s),
                round(m.wall_ops_per_s, 1), format_seconds(m.virtual_mean_s),
            )
        table.add_note(
            "wall ops/s is simulated operations per wall-clock second; the "
            "virtual mean latency column is the no-drift anchor (must not "
            "move when only wall-clock cost is optimized)"
        )
        return table


# --------------------------------------------------------------- workloads
def _measure_commit_heavy(requests: int, seed: int) -> PerfMeasurement:
    """The fig1 metadata-post workload, timed in wall-clock seconds."""
    deployment = build_desktop_deployment(seed=seed)
    runner = StoreDataRunner(deployment)
    config = RunConfig(
        data_size_bytes=4 * 1024,
        request_count=requests,
        seed=seed,
        metadata_only=True,
    )
    started = time.perf_counter()
    result = runner.run(config)
    wall = max(time.perf_counter() - started, 1e-9)
    return PerfMeasurement(
        workload="commit-heavy",
        scale=requests,
        operations=result.committed,
        wall_s=wall,
        wall_ops_per_s=result.committed / wall,
        virtual_mean_s=result.mean_response_s if result.committed else 0.0,
    )


def _perf_key(index: int) -> str:
    group = index % PREFIX_GROUPS
    return f"perf/g{group:02d}/item-{index:06d}"


def _preload_world_state(deployment: HyperProvDeployment, keys: int) -> List[str]:
    """Seed every peer's world state with ``keys`` provenance records.

    Loading through the full endorse/order/commit path would take minutes
    at 10k keys on the unoptimized code; the read workloads only need
    committed state to scan, so the records are installed directly.
    """
    loaded: List[str] = []
    for index in range(keys):
        key = _perf_key(index)
        group = index % PREFIX_GROUPS
        record = ProvenanceRecord(
            key=key,
            checksum=checksum_of(key.encode("utf-8")),
            location=f"ext://{key}",
            creator=f"sensor-{group:02d}",
            organization="org1",
            certificate_fingerprint=f"{index:016x}",
            # Every 16th item is "hot": rich queries select a realistic
            # subset of a group instead of returning the whole bucket.
            metadata={"group": group, "hot": index // PREFIX_GROUPS % 16 == 0},
            timestamp=0.0,
            size_bytes=1024,
        )
        value = record.to_json()
        for peer in deployment.peers:
            peer.world_state.put(key, value, (0, index))
        loaded.append(key)
    loaded.sort()
    return loaded


def _range_bounds(sorted_keys: List[str], query: int, window: int) -> Tuple[str, str]:
    """Deterministic ``(start_key, end_key)`` window for the q-th query.

    Clamps to the key list, so tiny smoke scales (one or two keys) degrade
    to an open-ended range instead of indexing past the end.
    """
    count = len(sorted_keys)
    if count <= window:
        return (sorted_keys[0] if sorted_keys else "", "")
    start_index = (query * 97) % (count - window)
    return sorted_keys[start_index], sorted_keys[start_index + window]


def _measure_range_query(
    keys: int, queries: int, window: int, seed: int
) -> PerfMeasurement:
    deployment = build_desktop_deployment(seed=seed)
    sorted_keys = _preload_world_state(deployment, keys)
    client = deployment.client
    latencies: List[float] = []
    started = time.perf_counter()
    for query in range(queries):
        start_key, end_key = _range_bounds(sorted_keys, query, window)
        result = client.get_by_range(start_key, end_key)
        latencies.append(result.latency_s)
    wall = max(time.perf_counter() - started, 1e-9)
    return PerfMeasurement(
        workload="range-query",
        scale=keys,
        operations=queries,
        wall_s=wall,
        wall_ops_per_s=queries / wall,
        virtual_mean_s=sum(latencies) / len(latencies) if latencies else 0.0,
    )


def _rich_selector(group: int) -> Dict[str, object]:
    """Selector for one prefix group's hot records (scoped by ``_prefix``
    when the chaincode supports it; a full scan with the same match set
    on implementations without the prefix index)."""
    return {
        "_prefix": f"perf/g{group:02d}/",
        "creator": f"sensor-{group:02d}",
        "metadata.hot": True,
    }


def _measure_read_mix(
    keys: int, queries: int, window: int, seed: int
) -> PerfMeasurement:
    """Alternate range and rich queries against one preloaded deployment."""
    deployment = build_desktop_deployment(seed=seed)
    sorted_keys = _preload_world_state(deployment, keys)
    client = deployment.client
    latencies: List[float] = []
    started = time.perf_counter()
    for query in range(queries):
        start_key, end_key = _range_bounds(sorted_keys, query, window)
        result = client.get_by_range(start_key, end_key)
        latencies.append(result.latency_s)
        rich = client.query_records(_rich_selector(query % PREFIX_GROUPS))
        latencies.append(rich.latency_s)
    wall = max(time.perf_counter() - started, 1e-9)
    operations = 2 * queries
    return PerfMeasurement(
        workload="read-mix",
        scale=keys,
        operations=operations,
        wall_s=wall,
        wall_ops_per_s=operations / wall,
        virtual_mean_s=sum(latencies) / len(latencies) if latencies else 0.0,
    )


def _measure_rich_query(keys: int, queries: int, seed: int) -> PerfMeasurement:
    deployment = build_desktop_deployment(seed=seed)
    _preload_world_state(deployment, keys)
    client = deployment.client
    latencies: List[float] = []
    started = time.perf_counter()
    for query in range(queries):
        result = client.query_records(_rich_selector(query % PREFIX_GROUPS))
        latencies.append(result.latency_s)
    wall = max(time.perf_counter() - started, 1e-9)
    return PerfMeasurement(
        workload="rich-query",
        scale=keys,
        operations=queries,
        wall_s=wall,
        wall_ops_per_s=queries / wall,
        virtual_mean_s=sum(latencies) / len(latencies) if latencies else 0.0,
    )


# -------------------------------------------------------------------- entry
def run_perf(
    commit_requests: int = 240,
    keys: int = 10_000,
    queries: int = 60,
    range_window: int = 64,
    seed: int = 42,
    repeats: int = 2,
) -> PerfReport:
    """Run every perf workload at a small and the full scale.

    Each measurement is taken ``repeats`` times and the fastest pass is
    reported — the minimum is the standard noise-robust estimator for
    wall-clock microbenchmarks (scheduling interference only ever adds
    time).  Virtual-time results are identical across passes (the
    simulation is deterministic per seed).
    """
    report = PerfReport()

    def best(measure, *args) -> PerfMeasurement:
        passes = [measure(*args) for _ in range(max(1, repeats))]
        return max(passes, key=lambda m: m.wall_ops_per_s)

    for requests in _scales(commit_requests, 4):
        report.measurements.append(best(_measure_commit_heavy, requests, seed))
    for key_count in _scales(keys, 10):
        report.measurements.append(
            best(_measure_range_query, key_count, queries, range_window, seed)
        )
        report.measurements.append(best(_measure_rich_query, key_count, queries, seed))
        report.measurements.append(
            best(_measure_read_mix, key_count, queries, range_window, seed)
        )
    return report


def _scales(full: int, divisor: int) -> List[int]:
    """A reduced warm-up scale plus the full scale (deduplicated)."""
    small = max(1, full // divisor)
    return [small, full] if small != full else [full]


# ------------------------------------------------------------- persistence
def update_report_file(
    path: Path, update: Callable[[Dict[str, object]], None]
) -> Dict[str, object]:
    """Read-modify-write the results file every bench experiment shares.

    Loads ``path`` (missing or unreadable: an empty document), lets
    ``update`` replace the caller's own section in place, and writes the
    document back — so no experiment can drop another's section.
    """
    document: Dict[str, object] = {}
    if path.exists():
        try:
            document = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            document = {}
    update(document)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def write_report(report: PerfReport, path: Path) -> Dict[str, object]:
    """Replace the ``measurements`` section of ``path`` with ``report``.

    If the file carries a ``baseline_pre_pr`` section (the numbers
    measured on the unoptimized implementation), the speedup factors are
    recomputed against it.
    """

    def update(document: Dict[str, object]) -> None:
        document.update(report.to_dict())
        baseline = document.get("baseline_pre_pr")
        if baseline:
            document["speedup_vs_pre_pr"] = _speedups(report, baseline)

    return update_report_file(path, update)


def _speedups(report: PerfReport, baseline: Dict[str, object]) -> Dict[str, float]:
    speedups: Dict[str, float] = {}
    for entry in baseline.get("measurements", []):
        old = PerfMeasurement.from_dict(entry)
        new = report.find(old.workload, old.scale)
        if new is not None and old.wall_ops_per_s > 0:
            speedups[new.label] = round(new.wall_ops_per_s / old.wall_ops_per_s, 2)
    return speedups


def check_regression(
    report: PerfReport,
    baseline_path: Path,
    tolerance: float = 3.0,
) -> List[str]:
    """Compare ``report`` against a committed baseline file.

    Returns a list of human-readable failures for every matching
    (workload, scale) pair whose wall-clock throughput fell more than
    ``tolerance``× below the baseline.  Non-matching scales are skipped so
    reduced CI profiles only gate the pairs they actually measured.
    """
    return check_regression_data(
        report, json.loads(baseline_path.read_text()), tolerance
    )


def check_regression_data(
    report: PerfReport,
    data: Dict[str, object],
    tolerance: float = 3.0,
) -> List[str]:
    """:func:`check_regression` against already-loaded baseline JSON.

    Callers that also *write* a report should load the baseline first and
    gate via this function — if output and baseline name the same file,
    reading after writing would compare the run against itself.
    """
    failures: List[str] = []
    for entry in data.get("measurements", []):
        old = PerfMeasurement.from_dict(entry)
        new = report.find(old.workload, old.scale)
        if new is None:
            continue
        floor = old.wall_ops_per_s / tolerance
        if new.wall_ops_per_s < floor:
            failures.append(
                f"{new.label}: {new.wall_ops_per_s:.1f} wall ops/s is below "
                f"the regression floor {floor:.1f} "
                f"(baseline {old.wall_ops_per_s:.1f}, tolerance {tolerance}x)"
            )
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:  # pragma: no cover
    report = run_perf()
    write_report(report, Path(DEFAULT_OUTPUT))
    print(report.to_table().render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
