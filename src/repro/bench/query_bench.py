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

Results merge into ``BENCH_PERF.json`` under a ``query`` section and the
CI perf-smoke gate asserts the committed speedup floor via
:func:`check_query_gate`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.bench.perf import (
    PerfRegressionError,
    _preload_world_state,
    update_report_file,
)
from repro.bench.reporting import ResultTable, format_seconds
from repro.core.topology import build_desktop_deployment

#: The multi-field selector both modes run — equality on two record
#: fields, servable by posting intersection when the index is on.
INDEX_FIELDS = ("creator", "metadata.*")

#: Committed floor for the indexed/scan speedup at the full key scale
#: (the acceptance bar for the secondary-index subsystem).
DEFAULT_MIN_SPEEDUP = 10.0


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

    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "keys": self.keys,
            "queries": self.queries,
            "wall_s": round(self.wall_s, 4),
            "wall_queries_per_s": round(self.wall_queries_per_s, 2),
            "access_path": self.access_path,
        }


@dataclass
class ContinuousMeasurement:
    """The continuous-query delivery workload."""

    commits: int
    delivered: int
    wall_s: float
    deliveries_per_s: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "commits": self.commits,
            "delivered": self.delivered,
            "wall_s": round(self.wall_s, 4),
            "deliveries_per_s": round(self.deliveries_per_s, 2),
        }


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

    def to_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "description": (
                "multi-field selector (creator + metadata.hot, no prefix) via "
                "posting-list intersection vs full scan; same virtual-time "
                "cost, wall-clock only"
            ),
            "measurements": [m.to_dict() for m in self.measurements],
            "speedup_indexed_vs_scan": self.speedups(),
        }
        if self.continuous is not None:
            document["continuous"] = self.continuous.to_dict()
        return document

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
def _measure_selector_mode(
    mode: str, keys: int, queries: int, seed: int
) -> QueryMeasurement:
    deployment = build_desktop_deployment(seed=seed)
    _preload_world_state(deployment, keys)
    if mode == "indexed":
        deployment.fabric.enable_secondary_indexes(INDEX_FIELDS)
    client = deployment.client
    # Pin the access path outside the timed loop: the comparison is only
    # meaningful if each mode runs the path it claims to measure.
    plan = client.query_records(_selector(0), explain=True).plan
    access_path = plan["access_path"]
    expected = "index-intersection" if mode == "indexed" else "scan"
    if access_path != expected:
        raise PerfRegressionError(
            f"query bench {mode} mode planned {access_path!r}, expected {expected!r}"
        )
    started = time.perf_counter()
    for query in range(queries):
        client.query_records(_selector(query % 16))
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

    deployment = build_desktop_deployment(seed=seed)
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
        raise PerfRegressionError(
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


# ------------------------------------------------------------- persistence
def write_query_entry(report: QueryBenchReport, path: Path) -> Dict[str, object]:
    """Replace the ``query`` section of ``path``."""
    return update_report_file(
        path, lambda document: document.update(query=report.to_dict())
    )


def check_query_gate(
    data: Dict[str, object], min_speedup: float = DEFAULT_MIN_SPEEDUP
) -> List[str]:
    """Gate failures for a loaded ``query`` section.

    The indexed/scan speedup at the *largest* measured key scale must meet
    ``min_speedup``, and the continuous workload must have delivered every
    commit.
    """
    failures: List[str] = []
    section = data.get("query") if isinstance(data.get("query"), dict) else data
    speedups = section.get("speedup_indexed_vs_scan", {}) if section else {}
    if not speedups:
        return ["query section has no indexed-vs-scan speedup measurements"]
    largest = max(speedups, key=int)
    factor = float(speedups[largest])
    if factor < min_speedup:
        failures.append(
            f"indexed selector speedup at {largest} keys is {factor}x, "
            f"below the {min_speedup}x floor"
        )
    continuous = section.get("continuous")
    if continuous and continuous.get("delivered") != continuous.get("commits"):
        failures.append(
            f"continuous query delivered {continuous.get('delivered')} of "
            f"{continuous.get('commits')} commits"
        )
    return failures
