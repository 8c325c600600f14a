"""``bench chaos`` — fault scenarios as rows run by ``run_scenario``, checked by named invariants.

A gate, not a row of :data:`repro.bench.experiments.EXPERIMENTS`: a
failed invariant or a moved anchor fails the command, which a row cannot.

Two choices no row shows.  Every scenario deployment cuts single-message
blocks: chaos exercises failure handling, not batching, and immediate
commits keep the timelines legible.  The client runs on a network node of
its own ("client") instead of sharing a peer's, so a partition can cut the
client's host off alone.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.api.protocol import ProvenanceStore, StoreRequest
from repro.bench.anchors import GateError
from repro.bench.reporting import ResultTable, format_seconds
from repro.common.hashing import checksum_of
from repro.consensus.batching import BatchConfig
from repro.core.client import HyperProvClient
from repro.core.topology import DeploymentSpec, HyperProvDeployment, build_deployment
from repro.devices.model import DeviceModel
from repro.devices.profiles import DESKTOP_PROFILES, XEON_E5_1603
from repro.fabric.proposal import TransactionHandle
from repro.faults import (
    ByzantineFault,
    ChurnFault,
    Fault,
    FaultInjector,
    FaultPlan,
    LinkDegradeFault,
    OrdererStallFault,
    PartitionFault,
)
from repro.ledger.transaction import TxValidationCode
from repro.membership.identity import Organization
from repro.middleware.config import PipelineConfig
from repro.query.continuous import ContinuousQueryRegistry
from repro.simulation.randomness import DeterministicRandom

#: Seed shared by every scenario (deployment build + fault plan).
CHAOS_SEED = 42

#: The checksums writes carry; ``partition_heal``'s read lines anchor them.
V1 = checksum_of(b"chaos-partition-v1")
V2 = checksum_of(b"chaos-partition-v2")

#: ``(at, client index, key, checksum)``: one metadata post at virtual time ``at``.
Write = Tuple[float, int, str, str]
#: A probe runs at a virtual time and records what it saw into the run; an
#: invariant raises :class:`ChaosInvariantError` unless the run satisfies it.
Probe = Invariant = Callable[["ChaosRun"], None]
#: Turns a drained run into anchor lines.
Render = Callable[["ChaosRun"], List[str]]


class ChaosInvariantError(GateError):
    """A chaos scenario's correctness invariant was violated."""


@dataclass(frozen=True)
class ChaosScenario:
    """One row: clients, faults, writes and probes in; anchor and invariants out."""

    name: str
    faults: Tuple[Fault, ...]
    writes: Tuple[Write, ...]
    invariants: Tuple[Invariant, ...]
    #: What follows the commit lines in the anchor, in this order.
    anchor_lines: Tuple[Render, ...]
    #: ``(at, probe)`` pairs; each probe runs once at virtual time ``at``.
    probes: Tuple[Tuple[float, Probe], ...] = ()
    #: One pipeline per client.  Client 0 is the deployment's own; client ``i``
    #: gets its own organization, device and host node ``client-<i-th letter>``.
    clients: Tuple[PipelineConfig, ...] = (PipelineConfig(),)
    scheduler: str = "fifo"


@dataclass
class ChaosRun:
    """What one row's run left behind: every invariant's input and a report row."""

    scenario: ChaosScenario
    seed: int
    deployment: HyperProvDeployment
    #: One store per row client, in ``scenario.clients`` order.
    stores: List[ProvenanceStore]
    fault_log: List[Dict[str, Any]]
    #: ``(label, handle)`` client by client, each in submission order; the
    #: label is the key, prefixed ``<tenant>:`` for a tenant's client.
    writes: List[Tuple[str, TransactionHandle]] = field(default_factory=list)
    #: ``tag -> (checksum, stale)``, one entry per :func:`read` probe.
    reads: Dict[str, Tuple[str, bool]] = field(default_factory=dict)
    #: What the other probes recorded, by name.
    observed: Dict[str, Any] = field(default_factory=dict)
    stop_reason: str = ""
    wall_s: float = 0.0

    @property
    def anchor(self) -> str:
        """SHA-256 over the commit lines, the row's renders and the stop reason."""
        lines = [_handle_line(label, handle) for label, handle in self.writes]
        for render in self.scenario.anchor_lines:
            lines += render(self)
        lines.append(f"stop {self.stop_reason}")
        return hashlib.sha256("".join(f"{line}\n" for line in lines).encode("utf-8")).hexdigest()

    def counts(self) -> Dict[str, int]:
        """What the report prints beside the invariants, counted on this run."""
        dropped, duplicated = _fault_counters(self)
        return {
            "writes": len(self.writes),
            "faults": len(self.fault_log),
            "stale_reads": sum(stale for _, stale in self.reads.values()),
            "deliveries": len(self.observed.get("deliveries", ())),
            "dropped": int(dropped),
            "duplicated": int(duplicated),
        }


def _require(run: ChaosRun, condition: bool, message: str) -> None:
    if not condition:
        raise ChaosInvariantError(f"chaos {run.scenario.name}: invariant violated — {message}")


def _latency(handle: TransactionHandle) -> float:
    return handle.committed_at - handle.submitted_at


def _fault_counters(run: ChaosRun) -> Tuple[float, float]:
    metrics = run.deployment.fabric.network.metrics
    return (
        metrics.get_counter("fault.frames", kind="dropped"),
        metrics.get_counter("fault.frames", kind="duplicated"),
    )


def _handle_line(label: str, handle: TransactionHandle) -> str:
    """Everything virtual-time-observable about one write, as one line."""
    code = handle.validation_code.name if handle.validation_code else "PENDING"
    return (
        f"{label} tx={handle.tx_id} submit={handle.submitted_at!r} "
        f"commit={handle.committed_at!r} code={code} block={handle.commit_block}"
    )


# ---------------------------------------------------------- probes, renders
def read(tag: str, key: str) -> Probe:
    """Read ``key`` through client 0; record ``(checksum, stale)`` as ``tag``."""

    def probe(run: ChaosRun) -> None:
        view = run.stores[0].get(key)
        run.reads[tag] = (view.checksum, view.stale)

    return probe


def continuous_query(prefix: str) -> Probe:
    """Stand a ``_prefix`` query; record its deliveries' tx ids as ``deliveries``."""

    def probe(run: ChaosRun) -> None:
        delivered: List[str] = run.observed.setdefault("deliveries", [])
        ContinuousQueryRegistry(run.deployment.fabric.events).register(
            {"_prefix": prefix}, callback=lambda event: delivered.append(str(event["tx_id"]))
        )

    return probe


def backlog_probe(run: ChaosRun) -> None:
    """Record shard 0's orderer state and the in-flight count as ``backlog``."""
    orderer = run.deployment.fabric.shard(0).orderer
    run.observed["backlog"] = {
        "stalled": orderer.stalled,
        "backlog": orderer.intake_backlog,
        "in_flight": run.deployment.fabric.in_flight(),
    }


def read_lines(run: ChaosRun) -> List[str]:
    return [f"read {tag} {run.reads[tag]!r}" for tag in sorted(run.reads)]


def delivery_lines(run: ChaosRun) -> List[str]:
    return [f"delivery {tx_id}" for tx_id in run.observed["deliveries"]]


def backlog_lines(run: ChaosRun) -> List[str]:
    return ["probe " + " ".join(f"{k}={v}" for k, v in run.observed["backlog"].items())]


def counter_lines(run: ChaosRun) -> List[str]:
    return ["counters dropped={} duplicated={}".format(*_fault_counters(run))]


def fault_lines(run: ChaosRun) -> List[str]:
    return [f"fault {entry!r}" for entry in run.fault_log]


def verify_lines(run: ChaosRun) -> List[str]:
    return [f"verify {p.name} {p.block_store.verify_chain()}" for p in run.deployment.peers]


# -------------------------------------------------------------- invariants
def quiesced(run: ChaosRun) -> None:
    """The drain ended idle: every submitted write resolved."""
    _require(run, run.stop_reason == "idle", f"run did not quiesce: stop {run.stop_reason!r}")


def exactly_once_everywhere(run: ChaosRun) -> None:
    """Every write committed VALID, once, on every peer."""
    tx_ids = [handle.tx_id for _, handle in run.writes]
    _require(run, len(set(tx_ids)) == len(tx_ids), f"a tx id commits twice: {tx_ids}")
    for label, handle in run.writes:
        code = handle.validation_code
        _require(run, code is TxValidationCode.VALID, f"{label!r} committed {code}, not VALID")
        for peer in run.deployment.peers:
            _require(run, peer.committed(handle.tx_id), f"{peer.name} lacks {label!r}")


def committed_after(labels: Sequence[str], at_s: float) -> Invariant:
    """Each write labelled in ``labels`` was submitted and committed at or after ``at_s``."""

    def check(run: ChaosRun) -> None:
        found = [(label, handle) for label, handle in run.writes if label in labels]
        missing = sorted(set(labels) - {label for label, _ in found})
        _require(run, not missing, f"writes {missing} were never submitted")
        for label, handle in found:
            at = handle.committed_at
            _require(run, at >= at_s, f"{label!r} committed at {at}, before {at_s}")

    check.__name__ = f"committed_after({at_s})"
    return check


def read_is(tag: str, checksum: str, stale: bool) -> Invariant:
    """The read recorded as ``tag`` returned ``checksum`` with this stale marker."""

    def check(run: ChaosRun) -> None:
        got = run.reads.get(tag)
        _require(run, got == (checksum, stale), f"read {tag!r} got {got}, not {checksum, stale}")

    check.__name__ = f"read_is({tag})"
    return check


def continuous_query_exactly_once(run: ChaosRun) -> None:
    """The standing query delivered every committed write, none twice."""
    delivered = run.observed["deliveries"]
    committed = {handle.tx_id for _, handle in run.writes}
    _require(run, len(delivered) == len(set(delivered)), f"a commit delivered twice: {delivered}")
    _require(run, set(delivered) == committed, f"a commit never delivered: {sorted(delivered)}")


def chain_breaks_only_on(peers: Sequence[str]) -> Invariant:
    """Hash-chain verification fails on exactly ``peers``."""

    def check(run: ChaosRun) -> None:
        broken = [p.name for p in run.deployment.peers if not p.block_store.verify_chain()]
        _require(run, sorted(broken) == sorted(peers), f"chains broke on {broken}, not {peers}")

    check.__name__ = "chain_breaks_only_on"
    return check


def state_matches_clean_run(run: ChaosRun) -> None:
    """Commit log and every peer's world state equal the row's fault-free run."""
    clean = run_scenario(replace(run.scenario, faults=()), run.seed)
    log, clean_log = ([_handle_line(*write) for write in r.writes] for r in (run, clean))
    _require(run, log == clean_log, "commit times differ from the fault-free run")
    expected = clean.deployment.peers[0].state_snapshot()
    for peer in run.deployment.peers:
        _require(run, peer.state_snapshot() == expected, f"{peer.name}'s world state diverged")


def backlog_drains(run: ChaosRun) -> None:
    """The probe saw a stalled orderer holding a backlog; no shard holds one now."""
    seen = run.observed["backlog"]
    _require(run, seen["stalled"] and seen["backlog"] >= 1, f"no backlog while stalled: {seen}")
    left = sum(shard.orderer.intake_backlog for shard in run.deployment.fabric.shards)
    _require(run, left == 0, f"intake backlog still holds {left} envelopes")


def latency_bounded(prefix: str, bound_s: float) -> Invariant:
    """Every write labelled ``prefix…`` commits within ``bound_s`` of submission."""

    def check(run: ChaosRun) -> None:
        found = [(label, h) for label, h in run.writes if label.startswith(prefix)]
        _require(run, bool(found), f"no write is labelled {prefix!r}")
        for label, handle in found:
            latency = _latency(handle)
            _require(run, latency <= bound_s, f"{label!r} took {latency:.3f}s > {bound_s}s")

    check.__name__ = f"latency_bounded({prefix}{bound_s}s)"
    return check


def slowest_inside(start_s: float, end_s: float) -> Invariant:
    """Writes submitted in ``[start_s, end_s)`` commit slower than every other write."""

    def check(run: ChaosRun) -> None:
        inside = [_latency(h) for _, h in run.writes if start_s <= h.submitted_at < end_s]
        outside = [_latency(h) for _, h in run.writes if not start_s <= h.submitted_at < end_s]
        slowest = bool(inside and outside) and max(outside) < min(inside)
        _require(run, slowest, f"latency inside {inside} is not above all of {outside}")

    check.__name__ = f"slowest_inside({start_s}, {end_s})"
    return check


def fault_counters_moved(at_least: int) -> Invariant:
    """The fabric counted ``at_least`` dropped and ``at_least`` duplicated messages."""

    def check(run: ChaosRun) -> None:
        dropped, duplicated = _fault_counters(run)
        moved = min(dropped, duplicated) >= at_least
        _require(run, moved, f"fault counters: dropped={dropped} duplicated={duplicated}")

    check.__name__ = "fault_counters_moved"
    return check


# ------------------------------------------------------------- running a row
def _client(
    deployment: HyperProvDeployment, index: int, seed: int, config: PipelineConfig
) -> HyperProvClient:
    """Client ``index`` of a row on ``config``: 0 is the deployment's
    identity, every other one enrols an organization and a host of its own."""
    if index == 0:
        return HyperProvClient(
            deployment.fabric, deployment.client.client_name,
            storage=deployment.storage, pipeline_config=config,
        )
    letter = chr(ord("a") + index)
    name, host = f"tenant-{letter}", f"client-{letter}"
    org = Organization(f"{name}-org")
    deployment.channel.msp.add_organization(org)
    rng = DeterministicRandom(seed).fork(f"device:{host}")
    device = DeviceModel(host, deployment.spec.client_profile, rng)
    deployment.fabric.add_client(
        name, org.enroll(name, role="client"), device, host, deployment.peers[0].name
    )
    return HyperProvClient(
        deployment.fabric, name, storage=deployment.storage, pipeline_config=config
    )


def run_scenario(row: ChaosScenario, seed: int) -> ChaosRun:
    """Build, inject, drive and drain one row on the virtual clock; check nothing."""
    deployment = build_deployment(
        DeploymentSpec(
            name=f"chaos-{row.name}",
            peer_profiles=DESKTOP_PROFILES,
            orderer_profile=XEON_E5_1603,
            storage_profile=XEON_E5_1603,
            client_profile=DESKTOP_PROFILES[2],
            client_colocated_with=None,
            scheduler=row.scheduler,
            batch_config=BatchConfig(max_message_count=1),
            seed=seed,
        )
    )
    stores = []
    for index, config in enumerate(row.clients):
        client = _client(deployment, index, seed, config)
        client.apply_fabric_knobs()
        stores.append(client.as_store())
    injector = FaultInjector(FaultPlan(seed=seed, faults=row.faults), deployment.fabric)
    run = ChaosRun(row, seed, deployment, stores, injector.install().log)

    engine = deployment.engine
    for at, probe in row.probes:
        engine.schedule_at(at, partial(probe, run))
    submitted: List[List[Tuple[str, TransactionHandle]]] = [[] for _ in row.clients]

    def submit(client: int, key: str, checksum: str) -> None:
        request = StoreRequest(key=key, checksum=checksum, location="edge://chaos", size_bytes=256)
        submitted[client].append((key, stores[client].submit(request).handle))

    for at, client, key, checksum in row.writes:
        engine.schedule_at(at, partial(submit, client, key, checksum))

    run.stop_reason = deployment.fabric.flush_and_drain().stop_reason
    for config, pairs in zip(row.clients, submitted):
        prefix = f"{config.tenant}:" if config.tenant else ""
        run.writes += [(prefix + key, handle) for key, handle in pairs]
    return run


def _writes(prefix: str, times: Sequence[float], client: int = 0) -> Tuple[Write, ...]:
    """Keys ``prefix0``, ``prefix1``, … posted with checksum ``V1`` at ``times``."""
    return tuple((at, client, f"{prefix}{index}", V1) for index, at in enumerate(times))


SCENARIOS: Tuple[ChaosScenario, ...] = (
    # The client's host is cut off and healed: a read during the cut is the
    # archived v1 marked stale, parked writes replay after the heal.
    ChaosScenario(
        name="partition_heal",
        clients=(PipelineConfig(cache=True, stale_reads=True, store_and_forward=True),),
        faults=(PartitionFault(4.0, 7.0, (("client",),)),),
        writes=(
            _writes("pk", (0.2, 0.4, 0.6, 0.8))
            + ((2.5, 0, "pk0", V2),)
            + _writes("pp", (5.2, 5.6, 6.0))
        ),
        probes=(
            (0.0, continuous_query("p")),
            (2.0, read("prime", "pk0")),
            (5.0, read("during", "pk0")),
            (9.0, read("after", "pk0")),
        ),
        anchor_lines=(read_lines, delivery_lines, fault_lines),
        invariants=(
            quiesced,
            read_is("prime", V1, False),
            read_is("during", V1, True),
            read_is("after", V2, False),
            exactly_once_everywhere,
            committed_after(("pp0", "pp1", "pp2"), 7.0),
            continuous_query_exactly_once,
        ),
    ),
    # Two peers rewrite a committed transaction in their ledger copies.
    ChaosScenario(
        name="byzantine_tamper",
        faults=(ByzantineFault(3.0, "peer0.org1"), ByzantineFault(3.1, "peer1.org2")),
        writes=_writes("bz", [0.2 + 0.2 * index for index in range(6)]),
        probes=((3.5, read("tampered", "bz0")),),
        anchor_lines=(fault_lines, verify_lines),
        invariants=(
            state_matches_clean_run,
            chain_breaks_only_on(("peer0.org1", "peer1.org2")),
            read_is("tampered", V1, False),
        ),
    ),
    # The orderer stops cutting blocks mid-run, then resumes.
    ChaosScenario(
        name="orderer_stall",
        faults=(OrdererStallFault(1.0, 3.0),),
        writes=_writes("st", (0.2, 0.4, 0.6, 1.4, 1.8, 2.2)),
        probes=((2.6, backlog_probe),),
        anchor_lines=(backlog_lines, fault_lines),
        invariants=(
            backlog_drains,
            quiesced,
            exactly_once_everywhere,
            committed_after(("st3", "st4", "st5"), 3.0),
        ),
    ),
    # Tenant beta's device churns off the network while alpha keeps writing
    # through the fair-share scheduler.
    ChaosScenario(
        name="churn_fair_share",
        scheduler="fair-share",
        clients=(
            PipelineConfig(tenant="alpha"),
            PipelineConfig(tenant="beta", store_and_forward=True),
        ),
        faults=(ChurnFault(2.0, 5.0, "client-b"),),
        writes=(
            _writes("a", (0.5, 1.5, 2.5, 3.5, 4.5, 5.5))
            + _writes("b", (1.0, 2.6, 3.2, 5.8), client=1)
        ),
        anchor_lines=(fault_lines,),
        invariants=(
            quiesced,
            exactly_once_everywhere,
            latency_bounded("alpha:", 3.0),
            committed_after(("beta:b1", "beta:b2"), 5.0),
        ),
    ),
    # The client→orderer link gets slow and lossy for a window: every
    # envelope in it pays 0.5 s, is retransmitted once and duplicated once.
    ChaosScenario(
        name="link_degrade",
        faults=(
            LinkDegradeFault(2.0, 4.0, "client", "orderer", 0.5, drop_rate=1.0, duplicate_rate=1.0),
        ),
        writes=(
            _writes("ld-a", (0.3, 0.8)) + _writes("ld-b", (2.2, 2.7)) + _writes("ld-c", (6.0, 6.5))
        ),
        anchor_lines=(counter_lines, fault_lines),
        invariants=(
            quiesced,
            exactly_once_everywhere,
            slowest_inside(2.0, 4.0),
            fault_counters_moved(2),
        ),
    ),
)


# ------------------------------------------------------------------ report
@dataclass
class ChaosBenchReport:
    """Every scenario's checked run at one seed."""

    seed: int
    scenarios: List[ChaosRun]

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title=f"bench chaos — {len(self.scenarios)} fault scenarios (seed {self.seed})",
            columns=["scenario", "anchor", "wall time", "invariants held", "counts"],
        )
        for run in self.scenarios:
            table.add_row(
                run.scenario.name,
                run.anchor[:16],
                format_seconds(run.wall_s),
                ", ".join(invariant.__name__ for invariant in run.scenario.invariants),
                ", ".join(f"{key}={value}" for key, value in run.counts().items() if value),
            )
        table.add_note("each scenario ran twice at this seed with identical anchors")
        return table


def run_chaos(seed: int = CHAOS_SEED) -> ChaosBenchReport:
    """Run and check every row twice at ``seed``; both passes must agree on the anchor."""
    runs: List[ChaosRun] = []
    for row in SCENARIOS:
        passes = []
        for _ in range(2):
            started = time.perf_counter()
            run = run_scenario(row, seed)
            for invariant in row.invariants:
                invariant(run)
            run.wall_s = time.perf_counter() - started
            passes.append(run)
        first, second = passes
        if first.anchor != second.anchor:
            raise ChaosInvariantError(
                f"chaos {row.name}: non-deterministic — two passes at seed {seed} "
                f"produced anchors {first.anchor} and {second.anchor}"
            )
        first.wall_s = min(first.wall_s, second.wall_s)
        runs.append(first)
    return ChaosBenchReport(seed=seed, scenarios=runs)
