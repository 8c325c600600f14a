"""Query benchmarks (``bench query``).

Two workloads for the read-side query subsystem:

``selector (indexed vs scan)``
    The same multi-field selector (``creator`` + ``metadata.hot``, no
    prefix scope) against a preloaded world state, once without secondary
    indexes (the planner falls back to a full scan) and once with them
    (posting-list intersection).  Virtual-time cost is identical by
    construction — one state operation either way — so what differs is
    the candidates each plan fetches (an exact count from the plan's
    explain report).
``continuous delivery``
    A standing continuous query fed by the commit stream while
    :data:`CONTINUOUS_COMMITS` matching writes flow through endorse →
    order → commit; checks none was missed.

A gate, not a row of :data:`repro.bench.experiments.EXPERIMENTS`: it
fails the command, which a row cannot.  Nothing is written:
:func:`check_query_gate` holds the candidates the indexed plan fetches at
the largest key scale against the scan's — exact counts, so neither the
runner's speed nor a faster scan moves the gate.  Wall-clock speed is
``benchmarks/perf``'s job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.bench.anchors import GateError
from repro.bench.experiments import SEED
from repro.bench.reporting import ResultTable
from repro.chaincode.records import ProvenanceRecord
from repro.common.hashing import checksum_of
from repro.core.topology import HyperProvDeployment, build_desktop_deployment

#: The multi-field selector both modes run — equality on two record
#: fields, servable by posting intersection when the index is on.
INDEX_FIELDS = ("creator", "metadata.*")

#: Floor for scan candidates per indexed candidate at the largest key
#: scale.  At 10 000 keys the scan fetches 10 000 and the index 40 (250x):
#: 2.5x headroom, while an index serving one field alone (625, 16x) or
#: none (1x) fails.
MIN_CANDIDATE_RATIO = 100

#: Preloaded keys are spread over this many ``perf/gNN/`` groups, one
#: ``creator`` each, so a selector matches a realistic subset.
PREFIX_GROUPS = 16

#: Matching writes the continuous-delivery workload commits.
CONTINUOUS_COMMITS = 32


def _selector(group: int) -> Dict[str, object]:
    return {"creator": f"sensor-{group:02d}", "metadata.hot": True}


@dataclass
class QueryMeasurement:
    """One selector workload pass: one mode at one key scale."""

    mode: str  # "indexed" | "scan"
    keys: int
    #: Planner-reported access path (``index-intersection`` vs ``scan``).
    access_path: str
    #: Most candidates the plan fetched for one selector: the index's
    #: exact ``candidates``, or the full scan's key count.
    candidates: int


@dataclass
class QueryBenchReport:
    measurements: List[QueryMeasurement] = field(default_factory=list)
    #: Deliveries of the continuous-query workload (all of its commits).
    delivered: int = 0

    def pairs(self) -> Dict[int, Tuple[QueryMeasurement, QueryMeasurement]]:
        """``(indexed, scan)`` per key scale that measured both modes."""
        by_scale: Dict[int, Dict[str, QueryMeasurement]] = {}
        for measurement in self.measurements:
            by_scale.setdefault(measurement.keys, {})[measurement.mode] = measurement
        return {
            keys: (modes["indexed"], modes["scan"])
            for keys, modes in sorted(by_scale.items())
            if {"indexed", "scan"} <= modes.keys()
        }

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="bench query — indexed vs scan selector candidates",
            columns=["mode", "keys", "access path", "candidates"],
        )
        for m in self.measurements:
            table.add_row(m.mode, m.keys, m.access_path, m.candidates)
        table.add_note(
            f"continuous delivery: {self.delivered}/{CONTINUOUS_COMMITS} commits pushed"
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


def _measure_selector_mode(mode: str, keys: int) -> QueryMeasurement:
    deployment = build_desktop_deployment(seed=SEED)
    _preload_world_state(deployment, keys)
    if mode == "indexed":
        deployment.fabric.enable_secondary_indexes(INDEX_FIELDS)
    store = deployment.client.as_store()
    # One query per group: its plan counts what the access path fetches.
    plans = [store.query(_selector(group), explain=True).plan
             for group in range(PREFIX_GROUPS)]
    return QueryMeasurement(
        mode=mode,
        keys=keys,
        access_path=plans[0]["access_path"],
        candidates=max(plan.get("candidates", plan["scan_candidates"]) for plan in plans),
    )


def _measure_continuous() -> int:
    """Deliveries of a continuous query over :data:`CONTINUOUS_COMMITS` matching commits."""
    from repro.api.service import HyperProvService
    from repro.middleware.config import PipelineConfig

    deployment = build_desktop_deployment(seed=SEED)
    session = HyperProvService(deployment).session(
        pipeline=PipelineConfig(continuous_queries=True)
    )
    delivered: List[Dict[str, object]] = []
    session.subscribe({"metadata.kind": "bench"}, callback=delivered.append)
    for index in range(CONTINUOUS_COMMITS):
        session.submit(
            f"cq/{index:04d}", f"payload-{index}".encode(), metadata={"kind": "bench"}
        )
    deployment.drain()
    if len(delivered) != CONTINUOUS_COMMITS:
        raise GateError(
            f"continuous query delivered {len(delivered)}/{CONTINUOUS_COMMITS} commits"
        )
    session.close()
    return len(delivered)


# ------------------------------------------------------------------- entry
def run_query_bench(key_scales: Sequence[int] = (1_000, 10_000)) -> QueryBenchReport:
    """Run the indexed-vs-scan comparison at every scale plus the
    continuous-delivery workload."""
    report = QueryBenchReport()
    for keys in key_scales:
        report.measurements.append(_measure_selector_mode("scan", keys))
        report.measurements.append(_measure_selector_mode("indexed", keys))
    report.delivered = _measure_continuous()
    return report


# -------------------------------------------------------------------- gate
def check_query_gate(report: QueryBenchReport) -> str:
    """Raise :class:`GateError` unless, at the *largest* measured key
    scale, the scan fetches at least :data:`MIN_CANDIDATE_RATIO` times the
    candidates the indexed plan does; returns the verdict line.

    (The continuous workload's ``delivered == commits`` check already
    raised inside the run.)
    """
    pairs = report.pairs()
    if not pairs:
        raise GateError("query bench measured no indexed-vs-scan pair")
    keys = max(pairs)
    indexed, scan = pairs[keys]
    verdict = (
        f"indexed plan fetches {indexed.candidates} of the scan's "
        f"{scan.candidates} candidates at {keys} keys"
    )
    if scan.candidates < MIN_CANDIDATE_RATIO * indexed.candidates:
        raise GateError(
            f"query bench gate: {verdict} ({indexed.access_path}), above "
            f"1/{MIN_CANDIDATE_RATIO} of the scan"
        )
    return f"query gate: {verdict}, within 1/{MIN_CANDIDATE_RATIO} of the scan"
