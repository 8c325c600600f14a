"""Conservative-time parallel execution of shard-disjoint fleets.

The sequential engine runs every fleet site on one event heap; this module
runs each site (or a group of sites) in its own worker process, advancing
all workers in lock-step **barrier windows** of virtual time:

    coordinator: advance(k·W → (k+1)·W)  ...  barrier  ...  advance(...)
    worker i:    run events < horizon, report window

``W`` is the *lookahead*: the amount of virtual time a worker may execute
without observing the other shards.  Fleet sites share no links, peers or
RNG streams (see :mod:`repro.workloads.fleet`), so no event on one shard
can ever depend on another shard's window — any positive lookahead is
safe, and the barrier exchanges only window statistics (the degenerate
null-message of a conservative protocol with no cross-shard channels).
The floor below keeps the window honest anyway: it never drops under the
orderer intake pacing interval or the LAN propagation floor, the two
shortest cause→effect delays in the simulation, which is what a
conservative protocol would require if shards *did* exchange messages.

Workers are forked processes (the coordinator→worker command boundary is
a :class:`~repro.workloads.fleet.FleetSpec` plus site indices — workers
rebuild arrival plans and topology locally, nothing big crosses the
pipe) and run the same delivery code as the sequential engine.  With
``workers <= 1`` the same windowed protocol runs inline (no processes),
which is also the portable fallback when the platform cannot fork.

Determinism: virtual-time results are byte-identical to the sequential
engine — the commit-log anchor digest of :func:`run_fleet_parallel` equals
the one from :func:`run_fleet_sequential` for the same spec, which the
property tests and the CI ``anchors`` gate both check.
"""

from __future__ import annotations

import gc
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:
    from repro.workloads.fleet import FleetDeployment, FleetSpec

# The fleet workload sits *above* the simulation layer (it builds whole
# deployments out of core/fabric pieces), so this module — generic
# barrier-window machinery that happens to ship a fleet front-end — only
# imports it inside the functions that need it.  Keeping the edge out of
# module scope is what lets `repro.simulation` stay below `workloads` in
# the layering DAG (rule A201) and avoids the package import cycle.


def _wall_clock() -> float:
    """Host-time read for worker utilization/stall accounting only.

    Never feeds virtual time, commit logs, or anchors — the determinism
    guarantee is about *simulated* time; how long the host took is
    exactly the measurement the stats exist to report.
    """
    return time.perf_counter()  # repro: allow-wallclock

#: Default barrier window, in virtual seconds.  Small enough that commit
#: batches stay timely, large enough that barrier crossings are a rounding
#: error in wall time (a 300 s fleet run takes 60 barriers).
DEFAULT_WINDOW_S = 5.0

#: LAN propagation floor: no simulated cause→effect crosses a link faster
#: than this, so the conservative lookahead never needs to be smaller.
MIN_LOOKAHEAD_S = 0.001


def conservative_lookahead(spec: FleetSpec, window_s: Optional[float] = None) -> float:
    """The barrier window: requested size clamped to the lookahead floor."""
    requested = DEFAULT_WINDOW_S if window_s is None else window_s
    if requested <= 0:
        raise ConfigurationError("barrier window must be positive")
    return max(requested, spec.orderer_intake_interval_s, MIN_LOOKAHEAD_S)


@dataclass
class ShardRunStats:
    """Wall-clock accounting for one worker (one or more sites)."""

    worker: int
    sites: List[int]
    windows: int = 0
    events: int = 0
    #: Wall time spent executing simulation events and flushing windows.
    busy_wall_s: float = 0.0
    #: Wall time spent parked at barriers waiting for the coordinator.
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
    window_s: float
    wall_s: float
    submitted: int
    lines_by_site: Dict[int, List[str]]
    counts_by_site: Dict[int, Dict[str, int]]
    shard_stats: List[ShardRunStats] = field(default_factory=list)

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


def window_count(horizon_s: float, window_s: float) -> int:
    """Barrier windows needed to cover ``[0, horizon_s]`` plus the tail.

    The final window's ``run(until=...)`` leaves timer-driven tail work
    (batch-timeout cuts, commit deliveries) which the drain phase after
    the last barrier finishes; coordinator and workers must agree on this
    count, so both compute it from the same spec-derived inputs.
    """
    return int(horizon_s // window_s) + 1


def run_fleet_sequential(spec: FleetSpec) -> FleetRunResult:
    """The baseline: every site on one engine, per-block commit delivery."""
    from repro.workloads.fleet import (
        build_fleet,
        commit_counts,
        commit_log_lines,
        submit_fleet,
    )

    start = _wall_clock()
    deployment = build_fleet(spec)
    submitted = submit_fleet(deployment)
    stats = ShardRunStats(worker=0, sites=list(deployment.sites))
    begin = _wall_clock()
    deployment.drain()
    stats.busy_wall_s = _wall_clock() - begin
    stats.windows = 1
    stats.events = deployment.engine.processed_events
    wall = _wall_clock() - start
    return FleetRunResult(
        spec=spec,
        mode="sequential",
        workers=1,
        window_s=0.0,
        wall_s=wall,
        submitted=submitted,
        lines_by_site={s: commit_log_lines(deployment, s) for s in deployment.sites},
        counts_by_site={s: commit_counts(deployment, s) for s in deployment.sites},
        shard_stats=[stats],
    )


def _assign_sites(spec: FleetSpec, workers: int) -> List[List[int]]:
    """Round-robin site→worker assignment (worker ``w`` gets ``w::workers``)."""
    count = max(1, min(workers, spec.shards))
    return [list(range(w, spec.shards, count)) for w in range(count)]


def _prepare_worker_deployment(spec: FleetSpec, sites: Sequence[int]) -> Tuple[FleetDeployment, int]:
    from repro.workloads.fleet import build_fleet, submit_fleet

    deployment = build_fleet(spec, sites=sites)
    submitted = submit_fleet(deployment)
    return deployment, submitted


def _site_worker(spec: FleetSpec, sites: List[int], worker: int,
                 horizon_s: float, window_s: float, conn) -> None:
    """Worker-process body: build locally, obey the barrier protocol.

    Protocol (coordinator drives; both sides compute the same window
    count from ``horizon_s`` and ``window_s``):

    * worker → ``("ready", submitted)`` once its sites are built,
    * coordinator → ``"advance"`` per window; worker runs the window
      and replies ``("window", index, events)``,
    * after the last window the worker drains (no further commands), then
      sends ``("done", payload)`` with commit logs, counts and stats.

    Any exception is reported as ``("error", traceback)`` so the
    coordinator can fail loudly instead of deadlocking on a dead pipe.
    """
    from repro.workloads.fleet import commit_counts, commit_log_lines

    try:
        deployment, submitted = _prepare_worker_deployment(spec, sites)
        stats = ShardRunStats(worker=worker, sites=list(sites))
        conn.send(("ready", submitted))

        windows = window_count(horizon_s, window_s)
        for window_index in range(windows):
            wait_begin = _wall_clock()
            command = conn.recv()
            stats.barrier_stall_s += _wall_clock() - wait_begin
            if command != "advance":
                raise SimulationError(f"unexpected barrier command {command!r}")
            boundary = (window_index + 1) * window_s
            begin = _wall_clock()
            outcome = deployment.engine.run(until=boundary)
            stats.busy_wall_s += _wall_clock() - begin
            stats.windows += 1
            stats.events += int(outcome)
            conn.send(("window", window_index, stats.events))
        begin = _wall_clock()
        deployment.drain()
        stats.busy_wall_s += _wall_clock() - begin
        payload = {
            "lines": {s: commit_log_lines(deployment, s) for s in sites},
            "counts": {s: commit_counts(deployment, s) for s in sites},
            "stats": stats,
            "submitted": submitted,
        }
        conn.send(("done", payload))
    except Exception:  # noqa: BLE001 - reported to the coordinator
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _fork_context():
    """Prefer fork (cheap: workers inherit the imported modules)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def run_fleet_parallel(
    spec: FleetSpec, workers: int, window_s: Optional[float] = None
) -> FleetRunResult:
    """Run the fleet with per-shard workers under the barrier protocol.

    ``workers`` is clamped to the shard count; ``workers <= 1`` runs the
    windowed protocol inline (no processes).  Returns the same result
    shape as :func:`run_fleet_sequential`, with per-worker utilization
    and barrier-stall accounting in ``shard_stats``.
    """
    spec.validate()
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    lookahead = conservative_lookahead(spec, window_s)
    horizon = spec.arrival_plan().horizon_s()
    assignments = _assign_sites(spec, workers)

    start = _wall_clock()
    if len(assignments) == 1 or workers == 1:
        return _run_parallel_inline(spec, lookahead, horizon, start)

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
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_site_worker,
                args=(spec, sites, worker, horizon, lookahead, child_conn),
                daemon=True,
            )
            process.start()
            child_conn.close()
            processes.append(process)
            pipes.append(parent_conn)

        submitted = 0
        for conn in pipes:
            submitted += _expect(conn, "ready")

        windows = window_count(horizon, lookahead)
        for _ in range(windows):
            for conn in pipes:
                conn.send("advance")
            for conn in pipes:
                _expect(conn, "window")

        payloads = [_expect(conn, "done") for conn in pipes]
    finally:
        for conn in pipes:
            conn.close()
        for process in processes:
            process.join(timeout=60)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
        gc.unfreeze()

    lines_by_site: Dict[int, List[str]] = {}
    counts_by_site: Dict[int, Dict[str, int]] = {}
    shard_stats: List[ShardRunStats] = []
    for payload in payloads:
        lines_by_site.update(payload["lines"])
        counts_by_site.update(payload["counts"])
        shard_stats.append(payload["stats"])
    wall = _wall_clock() - start
    return FleetRunResult(
        spec=spec,
        mode="parallel",
        workers=len(assignments),
        window_s=lookahead,
        wall_s=wall,
        submitted=submitted,
        lines_by_site=lines_by_site,
        counts_by_site=counts_by_site,
        shard_stats=shard_stats,
    )


def _expect(conn, kind: str):
    """Receive one protocol message, unwrapping worker errors."""
    message = conn.recv()
    if message[0] == "error":
        raise SimulationError(f"fleet worker failed:\n{message[1]}")
    if message[0] != kind:
        raise SimulationError(f"expected {kind!r} from worker, got {message[0]!r}")
    return message[1]


def _run_parallel_inline(
    spec: FleetSpec, lookahead: float, horizon: float, start: float
) -> FleetRunResult:
    """The windowed protocol without processes (workers=1 / no-fork fallback).

    Sites still run on per-site engines — the decomposition gain
    applies; only the concurrent execution of windows is lost.
    """
    from repro.workloads.fleet import commit_counts, commit_log_lines

    deployments: List[FleetDeployment] = []
    stats_list: List[ShardRunStats] = []
    submitted = 0
    for site in range(spec.shards):
        deployment, count = _prepare_worker_deployment(spec, [site])
        deployments.append(deployment)
        stats_list.append(ShardRunStats(worker=0, sites=[site]))
        submitted += count
    windows = window_count(horizon, lookahead)
    for window_index in range(windows):
        boundary = (window_index + 1) * lookahead
        for deployment, stats in zip(deployments, stats_list):
            begin = _wall_clock()
            outcome = deployment.engine.run(until=boundary)
            stats.busy_wall_s += _wall_clock() - begin
            stats.windows += 1
            stats.events += int(outcome)
    lines_by_site: Dict[int, List[str]] = {}
    counts_by_site: Dict[int, Dict[str, int]] = {}
    for deployment, stats in zip(deployments, stats_list):
        begin = _wall_clock()
        deployment.drain()
        stats.busy_wall_s += _wall_clock() - begin
        site = deployment.sites[0]
        lines_by_site[site] = commit_log_lines(deployment, site)
        counts_by_site[site] = commit_counts(deployment, site)
    wall = _wall_clock() - start
    return FleetRunResult(
        spec=spec,
        mode="parallel-inline",
        workers=1,
        window_s=lookahead,
        wall_s=wall,
        submitted=submitted,
        lines_by_site=lines_by_site,
        counts_by_site=counts_by_site,
        shard_stats=stats_list,
    )
