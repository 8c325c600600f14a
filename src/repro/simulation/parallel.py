"""Parallel execution of shard-disjoint fleets: a process map over sites.

The sequential engine runs every fleet site on one event heap; this module
runs each group of sites in its own worker process:

    coordinator: fork(spec, sites) ............ receive one result per worker
    worker i:    per site: build → submit → drain; send {lines, counts, metrics, stats}

Fleet sites share no links, peers, RNG streams or transaction-id
namespace (see :mod:`repro.workloads.fleet`), so no event on one site can
depend on another site: workers need no virtual-time synchronisation, and
the only barrier is the join at the end.  A cross-shard channel, when one
exists, is what would give a window protocol something to synchronise.

Workers are forked processes (the coordinator→worker boundary is a
:class:`~repro.workloads.fleet.FleetSpec` plus site indices — workers
rebuild arrival plans and topology locally, nothing big crosses the
pipe) and run :func:`_run_sites` once per site, each site on an engine of
its own, the same function the sequential run (every site on one engine)
and the in-process run (``workers == 1`` or a single site group) call.

Each run ships its registries home in the same result message, every
series labelled with its ``site`` (:func:`~repro.workloads.fleet.fleet_registries`),
and :meth:`FleetRunResult.exposition` renders them in site order.  They
hold virtual-time values only, so the export of a parallel run is
byte-identical whatever the worker count.

Determinism: virtual-time results are byte-identical to the sequential
engine — the commit-log anchor digest of :func:`run_fleet_parallel` equals
the one from :func:`run_fleet_sequential` for the same spec, which the
property tests and the CI ``anchors`` gate both check.
"""

from __future__ import annotations

import gc
import multiprocessing
import pickle
import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Sequence, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.metrics import MetricsRegistry, render_exposition

if TYPE_CHECKING:
    from repro.workloads.fleet import FleetSpec

# The fleet workload sits *above* the simulation layer (it builds whole
# deployments out of core/fabric pieces), so this module only imports it
# inside the functions that need it.  Keeping the edge out of module
# scope is what lets `repro.simulation` stay below `workloads` in the
# layering DAG (rule A201 of `tests/test_imports_follow_the_layers.py`)
# and avoids the package import cycle.


def _wall_clock() -> float:
    """Host-time read for worker utilization/stall accounting only.

    Never feeds virtual time, commit logs, or anchors — the determinism
    guarantee is about *simulated* time; how long the host took is
    exactly the measurement the stats exist to report.  It is the one def
    ``tests/test_deterministic_by_seed.py`` lets read the wall clock.
    """
    return time.perf_counter()


@dataclass
class ShardRunStats:
    """Wall-clock accounting for one worker (one or more sites)."""

    worker: int
    sites: List[int]
    events: int = 0
    #: Wall time the worker spent building, submitting and draining.
    busy_wall_s: float = 0.0
    #: What the join costs this worker: the slowest worker's busy time
    #: minus its own (filled in by the coordinator of a forked run).
    barrier_stall_s: float = 0.0

    @property
    def utilization(self) -> float:
        total = self.busy_wall_s + self.barrier_stall_s
        return self.busy_wall_s / total if total > 0 else 0.0


@dataclass
class FleetRunResult:
    """Outcome of one fleet execution (sequential or parallel)."""

    spec: FleetSpec
    mode: str
    workers: int
    wall_s: float
    submitted: int
    lines_by_site: Dict[int, List[str]]
    counts_by_site: Dict[int, Dict[str, int]]
    shard_stats: List[ShardRunStats] = field(default_factory=list)
    #: Each engine's registries, pickled, in site order.  Kept pickled: the
    #: ~3 600 series of a 3500-device fleet hold 1.1 MB as objects, 0.15 MB so.
    pickled_registries: List[bytes] = field(default_factory=list)

    @property
    def anchor(self) -> str:
        from repro.workloads.fleet import commit_anchor

        return commit_anchor(self.lines_by_site)

    @property
    def committed(self) -> int:
        return sum(c["committed"] for c in self.counts_by_site.values())

    @property
    def pending(self) -> int:
        return sum(c["pending"] for c in self.counts_by_site.values())

    def throughput_wall(self) -> float:
        """Committed posts per wall-clock second."""
        return self.committed / self.wall_s if self.wall_s > 0 else 0.0

    def registries(self) -> List[MetricsRegistry]:
        """Every engine's registries, each labelled with its ``site``, in site order."""
        return [
            registry
            for pickled in self.pickled_registries
            for registry in pickle.loads(pickled)
        ]

    def exposition(self) -> str:
        """Every site's series as Prometheus text (virtual time only)."""
        return render_exposition(self.registries())


def _run_sites(spec: FleetSpec, sites: Sequence[int], worker: int) -> Dict[str, Any]:
    """Run these sites to completion on one engine and collect their logs.

    The one way sites are run: the sequential baseline calls it with every
    site, the parallel runs once per site.
    """
    from repro.workloads.fleet import (
        build_fleet,
        commit_counts,
        commit_log_lines,
        fleet_registries,
        submit_fleet,
    )

    begin = _wall_clock()
    deployment = build_fleet(spec, sites=sites)
    submitted = submit_fleet(deployment)
    deployment.drain()
    stats = ShardRunStats(
        worker=worker,
        sites=list(deployment.sites),
        events=deployment.engine.processed_events,
        busy_wall_s=_wall_clock() - begin,
    )
    return {
        "lines": {s: commit_log_lines(deployment, s) for s in deployment.sites},
        "counts": {s: commit_counts(deployment, s) for s in deployment.sites},
        "metrics": {tuple(deployment.sites): pickle.dumps(fleet_registries(deployment))},
        "stats": stats,
        "submitted": submitted,
    }


def _run_group(spec: FleetSpec, sites: Sequence[int], worker: int) -> Dict[str, Any]:
    """Run a worker's sites one after another, each on an engine of its own.

    One payload for the group: its stats add the sites' events and busy time.
    """
    payloads = [_run_sites(spec, [site], worker) for site in sites]
    group = _union(payloads)
    group["stats"] = ShardRunStats(
        worker=worker,
        sites=list(sites),
        events=sum(payload["stats"].events for payload in payloads),
        busy_wall_s=sum(payload["stats"].busy_wall_s for payload in payloads),
    )
    group["submitted"] = sum(payload["submitted"] for payload in payloads)
    return group


def _union(payloads: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The per-site parts of payloads whose site sets are disjoint."""
    union: Dict[str, Any] = {"lines": {}, "counts": {}, "metrics": {}}
    for payload in payloads:
        for part, by_site in union.items():
            by_site.update(payload[part])
    return union


def _merge(
    spec: FleetSpec, mode: str, workers: int, start: float, payloads: List[Dict[str, Any]]
) -> FleetRunResult:
    """Fold per-group payloads (disjoint site sets) into one result."""
    union = _union(payloads)
    metrics: Dict[Tuple[int, ...], bytes] = union["metrics"]
    return FleetRunResult(
        spec=spec,
        mode=mode,
        workers=workers,
        wall_s=_wall_clock() - start,
        submitted=sum(payload["submitted"] for payload in payloads),
        lines_by_site=union["lines"],
        counts_by_site=union["counts"],
        shard_stats=[payload["stats"] for payload in payloads],
        pickled_registries=[metrics[sites] for sites in sorted(metrics)],
    )


def run_fleet_sequential(spec: FleetSpec) -> FleetRunResult:
    """The baseline: every site on one engine."""
    start = _wall_clock()
    payload = _run_sites(spec, range(spec.shards), worker=0)
    return _merge(spec, "sequential", 1, start, [payload])


def _assign_sites(spec: FleetSpec, workers: int) -> List[List[int]]:
    """Round-robin site→worker assignment (worker ``w`` gets ``w::workers``)."""
    count = max(1, min(workers, spec.shards))
    return [list(range(w, spec.shards, count)) for w in range(count)]


def _site_worker(spec: FleetSpec, sites: List[int], worker: int, conn) -> None:
    """Worker-process body: run the sites, send the one result message.

    An exception travels as ``("error", traceback)`` so the coordinator
    can name it; a worker that dies without a word shows as EOF.
    """
    try:
        conn.send(("done", _run_group(spec, sites, worker)))
    except Exception:  # noqa: BLE001 - reported to the coordinator
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _receive(conn, worker: int, sites: List[int]) -> Dict[str, Any]:
    """One worker's result, or a typed error naming the worker and its sites."""
    try:
        status, value = conn.recv()
    except EOFError:
        raise SimulationError(
            f"fleet worker {worker} (sites {sites}) died without reporting a result"
        ) from None
    if status == "error":
        raise SimulationError(f"fleet worker {worker} (sites {sites}) failed:\n{value}")
    return value


def _fork_context():
    """Prefer fork (cheap: workers inherit the imported modules)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def run_fleet_parallel(spec: FleetSpec, workers: int) -> FleetRunResult:
    """Run the fleet's sites as a process map, one worker per site group.

    ``workers`` is clamped to the shard count; with one group the sites
    run in this process, one engine each (``mode="parallel-inline"``).
    Returns the same result shape as :func:`run_fleet_sequential`, with
    per-worker busy time and join stall in ``shard_stats``.
    """
    spec.validate()
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    assignments = _assign_sites(spec, workers)

    start = _wall_clock()
    if len(assignments) == 1:
        payloads = [_run_sites(spec, [site], worker=0) for site in range(spec.shards)]
        return _merge(spec, "parallel-inline", 1, start, payloads)

    context = _fork_context()
    processes = []
    pipes = []
    # Forked workers inherit the coordinator's heap; if a sequential run
    # just finished (the bench runs both back to back), child GC passes
    # would traverse those millions of inherited objects and fault their
    # pages copy-on-write.  Collect then freeze: the surviving objects
    # move to the permanent generation, which child collections skip.
    gc.collect()
    gc.freeze()
    try:
        for worker, sites in enumerate(assignments):
            parent_conn, child_conn = context.Pipe(duplex=False)
            process = context.Process(
                target=_site_worker,
                args=(spec, sites, worker, child_conn),
                daemon=True,
            )
            process.start()
            child_conn.close()
            processes.append(process)
            pipes.append(parent_conn)
        payloads = [
            _receive(conn, worker, sites)
            for worker, (conn, sites) in enumerate(zip(pipes, assignments))
        ]
    finally:
        for conn in pipes:
            conn.close()
        for process in processes:
            if process.is_alive():
                process.terminate()
            process.join()
        gc.unfreeze()

    slowest = max(payload["stats"].busy_wall_s for payload in payloads)
    for payload in payloads:
        stats = payload["stats"]
        stats.barrier_stall_s = slowest - stats.busy_wall_s
    return _merge(spec, "parallel", len(assignments), start, payloads)
