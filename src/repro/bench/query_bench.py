"""Wall-clock query benchmarks (``bench query``).

Two workloads for the read-side query subsystem:

``selector (indexed vs scan)``
    The same multi-field selector (``creator`` + ``metadata.hot``, no
    prefix scope) against a preloaded world state, once without secondary
    indexes (the planner falls back to a full scan) and once with them
    (posting-list intersection).  Virtual-time cost is identical by
    construction — one state operation either way — so the interesting
    number is wall-clock queries per second, and the headline figure is
    the indexed/scan speedup at each key scale.
``continuous delivery``
    A standing continuous query fed by the commit stream while a batch of
    matching writes flows through endorse → order → commit; reports
    deliveries per wall-clock second and checks none were missed.

A gate, not a row of :data:`repro.bench.experiments.EXPERIMENTS`: it
fails the command, which a row cannot.  Nothing is written:
:func:`check_query_gate` holds the indexed/scan ratio of the run just
measured to a floor — both sides come from the same run on the same host,
so runner speed cancels out and no committed number is needed.
Absolute wall-clock throughput is ``benchmarks/perf``'s job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bench.anchors import GateError
from repro.bench.reporting import ResultTable, format_seconds
from repro.chaincode.records import ProvenanceRecord
from repro.common.hashing import checksum_of
from repro.core.topology import HyperProvDeployment, build_desktop_deployment

#: The multi-field selector both modes run — equality on two record
#: fields, servable by posting intersection when the index is on.
INDEX_FIELDS = ("creator", "metadata.*")

#: Committed floor for the indexed/scan speedup at the full key scale
#: (the acceptance bar for the secondary-index subsystem).
DEFAULT_MIN_SPEEDUP = 10.0

#: Preloaded keys are spread over this many ``perf/gNN/`` groups, one
#: ``creator`` each, so a selector matches a realistic subset.
PREFIX_GROUPS = 16


def _selector(group: int) -> Dict[str, object]:
    return {"creator": f"sensor-{group:02d}", "metadata.hot": True}


@dataclass
class QueryMeasurement:
    """One selector workload pass: one mode at one key scale."""

    mode: str  # "indexed" | "scan"
    keys: int
    queries: int
    wall_s: float
    wall_queries_per_s: float
    #: Planner-reported access path, asserted so the two modes measure
    #: what they claim (``index-intersection`` vs ``scan``).
    access_path: str


@dataclass
class ContinuousMeasurement:
    """The continuous-query delivery workload."""

    commits: int
    delivered: int
    wall_s: float
    deliveries_per_s: float


@dataclass
class QueryBenchReport:
    measurements: List[QueryMeasurement] = field(default_factory=list)
    continuous: Optional[ContinuousMeasurement] = None

    def speedups(self) -> Dict[str, float]:
        """Indexed/scan wall-clock speedup per key scale."""
        by_scale: Dict[int, Dict[str, QueryMeasurement]] = {}
        for measurement in self.measurements:
            by_scale.setdefault(measurement.keys, {})[measurement.mode] = measurement
        factors: Dict[str, float] = {}
        for keys, modes in sorted(by_scale.items()):
            indexed, scan = modes.get("indexed"), modes.get("scan")
            if indexed and scan and scan.wall_queries_per_s > 0:
                factors[str(keys)] = round(
                    indexed.wall_queries_per_s / scan.wall_queries_per_s, 2
                )
        return factors

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="bench query — indexed vs scan selector throughput (wall clock)",
            columns=["mode", "keys", "queries", "wall time", "queries/s", "access path"],
        )
        for m in self.measurements:
            table.add_row(
                m.mode, m.keys, m.queries, format_seconds(m.wall_s),
                round(m.wall_queries_per_s, 1), m.access_path,
            )
        for scale, factor in self.speedups().items():
            table.add_note(f"indexed vs scan speedup at {scale} keys: {factor}x")
        if self.continuous is not None:
            c = self.continuous
            table.add_note(
                f"continuous delivery: {c.delivered}/{c.commits} commits pushed "
                f"in {format_seconds(c.wall_s)} ({c.deliveries_per_s:.1f}/s)"
            )
        return table


# --------------------------------------------------------------- workloads
def _preload_world_state(deployment: HyperProvDeployment, keys: int) -> None:
    """Seed every peer's world state with ``keys`` provenance records.

    Loading through the full endorse/order/commit path would take minutes
    at 10k keys; the selector workload only needs committed state to
    query, so the records are installed directly.
    """
    for index in range(keys):
        group = index % PREFIX_GROUPS
        key = f"perf/g{group:02d}/item-{index:06d}"
        record = ProvenanceRecord(
            key=key,
            checksum=checksum_of(key.encode("utf-8")),
            location=f"ext://{key}",
            creator=f"sensor-{group:02d}",
            organization="org1",
            certificate_fingerprint=f"{index:016x}",
            # Every 16th item is "hot": the selector picks a realistic
            # subset of a group instead of returning the whole bucket.
            metadata={"group": group, "hot": index // PREFIX_GROUPS % 16 == 0},
            timestamp=0.0,
            size_bytes=1024,
        )
        value = record.to_json()
        for peer in deployment.peers:
            peer.world_state.put(key, value, (0, index))


def _measure_selector_mode(
    mode: str, keys: int, queries: int, seed: int
) -> QueryMeasurement:
    deployment = build_desktop_deployment(seed=seed)
    _preload_world_state(deployment, keys)
    if mode == "indexed":
        deployment.fabric.enable_secondary_indexes(INDEX_FIELDS)
    store = deployment.client.as_store()
    # Pin the access path outside the timed loop: the comparison is only
    # meaningful if each mode runs the path it claims to measure.
    plan = store.query(_selector(0), explain=True).plan
    access_path = plan["access_path"]
    expected = "index-intersection" if mode == "indexed" else "scan"
    if access_path != expected:
        raise GateError(
            f"query bench {mode} mode planned {access_path!r}, expected {expected!r}"
        )
    started = time.perf_counter()
    for query in range(queries):
        store.query(_selector(query % PREFIX_GROUPS))
    wall = max(time.perf_counter() - started, 1e-9)
    return QueryMeasurement(
        mode=mode,
        keys=keys,
        queries=queries,
        wall_s=wall,
        wall_queries_per_s=queries / wall,
        access_path=access_path,
    )


def _measure_continuous(commits: int, seed: int) -> ContinuousMeasurement:
    from repro.api.protocol import StoreRequest
    from repro.middleware.config import PipelineConfig

    deployment = build_desktop_deployment(seed=seed)
    deployment.client.configure_pipeline(PipelineConfig(continuous_queries=True))
    store = deployment.client.as_store()
    delivered: List[Dict[str, object]] = []
    store.subscribe({"metadata.kind": "bench"}, callback=delivered.append)
    started = time.perf_counter()
    for index in range(commits):
        store.submit(
            StoreRequest(
                key=f"cq/{index:04d}",
                data=f"payload-{index}".encode(),
                metadata={"kind": "bench"},
            )
        )
    deployment.drain()
    wall = max(time.perf_counter() - started, 1e-9)
    if len(delivered) != commits:
        raise GateError(
            f"continuous query delivered {len(delivered)}/{commits} commits"
        )
    store.close()
    return ContinuousMeasurement(
        commits=commits,
        delivered=len(delivered),
        wall_s=wall,
        deliveries_per_s=len(delivered) / wall,
    )


# ------------------------------------------------------------------- entry
def run_query_bench(
    key_scales: Sequence[int] = (1_000, 10_000),
    queries: int = 30,
    commits: int = 32,
    seed: int = 42,
    repeats: int = 2,
) -> QueryBenchReport:
    """Run the indexed-vs-scan comparison at every scale plus the
    continuous-delivery workload; fastest of ``repeats`` passes wins."""
    report = QueryBenchReport()

    def best(mode: str, keys: int) -> QueryMeasurement:
        passes = [
            _measure_selector_mode(mode, keys, queries, seed)
            for _ in range(max(1, repeats))
        ]
        return max(passes, key=lambda m: m.wall_queries_per_s)

    for keys in key_scales:
        report.measurements.append(best("scan", keys))
        report.measurements.append(best("indexed", keys))
    report.continuous = _measure_continuous(commits, seed)
    return report


# -------------------------------------------------------------------- gate
def check_query_gate(
    report: QueryBenchReport, min_speedup: float = DEFAULT_MIN_SPEEDUP
) -> None:
    """Raise :class:`GateError` unless the indexed/scan speedup at the
    *largest* measured key scale meets ``min_speedup``.

    (The continuous workload's ``delivered == commits`` check already
    raised inside the run.)
    """
    speedups = report.speedups()
    if not speedups:
        raise GateError("query bench measured no indexed-vs-scan pair")
    largest = max(speedups, key=int)
    if speedups[largest] < min_speedup:
        raise GateError(
            f"query bench gate: indexed selector speedup at {largest} keys is "
            f"{speedups[largest]}x, below the {min_speedup}x floor"
        )
