"""``bench chaos`` — deterministic fault-injection scenarios with invariants.

Five scenarios exercise the failure-handling stack end to end, each built
from a fresh deployment, a declarative :class:`~repro.faults.FaultPlan`
and an event-driven workload on the virtual clock:

``partition_heal``
    The client's host is cut off from every peer, then healed.  Reads
    during the cut are answered from the stale archive with an explicit
    ``stale`` marker; writes park in the store-and-forward queue and
    replay after the heal.  Invariants: staleness is bounded (fresh again
    after heal), every parked write commits exactly once, and the
    standing continuous query sees each committed write exactly once
    across the heal.
``byzantine_tamper``
    Two peers rewrite a committed transaction in their ledger copies.
    Invariants: no tampered write reaches any world state, hash-chain
    verification breaks on exactly the byzantine peers, and the commit
    log is byte-identical to a tamper-free run of the same workload.
``orderer_stall``
    The ordering service stops cutting blocks mid-run.  Invariants: the
    intake backlog grows while stalled (observed by a mid-stall probe),
    drains to zero after resume, and every submission commits exactly
    once.
``churn_fair_share``
    A second tenant's device churns off the network while the first
    tenant keeps writing through the fair-share scheduler.  Invariants:
    the unaffected tenant's commit latency stays bounded through the
    churn and the replay burst, and the churned tenant's writes all land
    exactly once after the device returns.
``link_degrade``
    The client→orderer link gets slow and lossy for a window (extra
    latency, modelled retransmissions, spurious duplicates) without being
    severed.  Invariants: every write still commits exactly once
    everywhere, in-window commits are strictly slower than pre-window
    ones, post-window commits recover, and the fabric's ``fault.dropped``
    / ``fault.duplicated`` counters prove the wire-level degradation.

Every scenario reduces to a SHA-256 **anchor** over its virtual-time
observations (commit log, read results, fault log, stop reason).  The
full profile runs each scenario twice and fails unless both passes
produce the same anchor; CI gates a fresh ``--smoke`` run against the
anchors committed in ``ANCHORS.json`` (``--anchors``, see
:mod:`repro.bench.anchors`) — any change that moves simulated time under
faults fails the gate regardless of wall-clock speed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.api.protocol import StoreRequest
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

#: Virtual seconds an unaffected tenant's write may take from submission
#: to commit while another tenant churns and replays (fair-share floor).
FAIR_SHARE_LATENCY_BOUND_S = 3.0


class ChaosInvariantError(GateError):
    """A chaos scenario's correctness invariant was violated."""


def _require(condition: bool, scenario: str, message: str) -> None:
    if not condition:
        raise ChaosInvariantError(f"chaos {scenario}: invariant violated — {message}")


# ----------------------------------------------------------------- anchors
def _handle_line(label: str, handle: TransactionHandle) -> str:
    """Everything virtual-time-observable about one write, as one line."""
    code = handle.validation_code.name if handle.validation_code else "PENDING"
    return (
        f"{label} tx={handle.tx_id} submit={handle.submitted_at!r} "
        f"commit={handle.committed_at!r} code={code} block={handle.commit_block}"
    )


def _digest(lines: List[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class ChaosScenarioResult:
    """One scenario's determinism anchor plus its checked invariants."""

    name: str
    anchor: str
    wall_s: float
    invariants: Dict[str, object]


@dataclass
class ChaosBenchReport:
    """Every scenario's result at one seed, plus the repeat discipline."""

    seed: int
    repeats: int
    scenarios: List[ChaosScenarioResult]

    def scenario(self, name: str) -> ChaosScenarioResult:
        for result in self.scenarios:
            if result.name == name:
                return result
        raise KeyError(name)

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title=(
                f"bench chaos — {len(self.scenarios)} fault scenarios "
                f"(seed {self.seed}, {self.repeats} pass(es) each)"
            ),
            columns=["scenario", "anchor", "wall time", "invariants"],
        )
        for result in self.scenarios:
            table.add_row(
                result.name,
                result.anchor[:16],
                format_seconds(result.wall_s),
                ", ".join(
                    f"{key}={value}" for key, value in sorted(result.invariants.items())
                ),
            )
        if self.repeats > 1:
            table.add_note(
                "each scenario ran twice with identical anchors "
                "(same seed ⇒ byte-identical fault schedule and commit log)"
            )
        return table


# ------------------------------------------------------------ deployments
def _edge_spec(name: str, seed: int, scheduler: str = "fifo") -> DeploymentSpec:
    """Desktop profiles with the client on its *own* network node.

    The stock desktop spec co-locates the client with a peer; chaos
    partitions need to cut the client's host off alone, so it gets a
    dedicated node ("client") instead.
    """
    return DeploymentSpec(
        name=name,
        peer_profiles=DESKTOP_PROFILES,
        orderer_profile=XEON_E5_1603,
        storage_profile=XEON_E5_1603,
        client_profile=DESKTOP_PROFILES[2],
        client_colocated_with=None,
        scheduler=scheduler,
        # Single-message blocks: chaos exercises failure handling, not
        # batching, and immediate commits keep the timelines legible.
        batch_config=BatchConfig(max_message_count=1),
        seed=seed,
    )


def _submitter(
    store, handles: List[Tuple[str, TransactionHandle]]
) -> Callable[[str, str], None]:
    def submit(key: str, checksum: str) -> None:
        outcome = store.submit(
            StoreRequest(
                key=key, checksum=checksum, location="edge://chaos", size_bytes=256
            )
        )
        handles.append((key, outcome.handle))

    return submit


def _assert_committed_everywhere(
    scenario: str, deployment: HyperProvDeployment, handles: List[Tuple[str, TransactionHandle]]
) -> None:
    """Every handle committed VALID, exactly once, on every online peer."""
    tx_ids = [handle.tx_id for _, handle in handles]
    _require(
        len(set(tx_ids)) == len(tx_ids),
        scenario,
        f"duplicate transaction ids in the commit log: {tx_ids}",
    )
    for key, handle in handles:
        _require(
            handle.validation_code is TxValidationCode.VALID,
            scenario,
            f"write {key!r} (tx {handle.tx_id}) did not commit VALID: "
            f"{handle.validation_code}",
        )
        for peer in deployment.peers:
            _require(
                peer.committed(handle.tx_id),
                scenario,
                f"peer {peer.name!r} never committed tx {handle.tx_id} ({key!r})",
            )


# ---------------------------------------------------- scenario: partition
def _scenario_partition_heal(seed: int) -> ChaosScenarioResult:
    deployment = build_deployment(_edge_spec("chaos-partition", seed))
    deployment.client.configure_pipeline(
        PipelineConfig(cache=True, stale_reads=True, store_and_forward=True)
    )
    store = deployment.client.as_store()
    engine = deployment.engine

    deliveries: List[Dict[str, object]] = []
    registry = ContinuousQueryRegistry(deployment.fabric.events)
    registry.register({"_prefix": "p"}, callback=deliveries.append)

    v1 = checksum_of(b"chaos-partition-v1")
    v2 = checksum_of(b"chaos-partition-v2")
    handles: List[Tuple[str, TransactionHandle]] = []
    submit = _submitter(store, handles)
    reads: Dict[str, Tuple[str, bool]] = {}

    def read(tag: str, key: str) -> None:
        view = store.get(key)
        reads[tag] = (view.checksum, view.stale)

    # Steady state: four records, then a read that primes cache + archive,
    # then an update that invalidates the cache (the archive keeps v1).
    for index, at in enumerate((0.2, 0.4, 0.6, 0.8)):
        engine.schedule_at(at, lambda i=index: submit(f"pk{i}", v1))
    engine.schedule_at(2.0, lambda: read("prime", "pk0"))
    engine.schedule_at(2.5, lambda: submit("pk0", v2))

    plan = FaultPlan(
        seed=seed, faults=(PartitionFault(4.0, 7.0, (("client",),)),)
    ).validate()
    injector = FaultInjector(plan, deployment.fabric).install()

    # During the cut: the read degrades to the stale archive, the writes
    # park in the store-and-forward queue.
    engine.schedule_at(5.0, lambda: read("during", "pk0"))
    for index, at in enumerate((5.2, 5.6, 6.0)):
        engine.schedule_at(at, lambda i=index: submit(f"pp{i}", v1))
    engine.schedule_at(9.0, lambda: read("after", "pk0"))

    outcome = deployment.fabric.flush_and_drain()

    _require(
        outcome.stop_reason == "idle",
        "partition_heal",
        f"run did not quiesce: stop reason {outcome.stop_reason!r}",
    )
    _require(
        reads["prime"] == (v1, False),
        "partition_heal",
        f"pre-partition read was not fresh v1: {reads['prime']}",
    )
    _require(
        reads["during"] == (v1, True),
        "partition_heal",
        "read during the partition must serve the archived v1 with the "
        f"stale marker set, got {reads['during']}",
    )
    _require(
        reads["after"] == (v2, False),
        "partition_heal",
        f"staleness is unbounded: post-heal read returned {reads['after']}",
    )
    _assert_committed_everywhere("partition_heal", deployment, handles)
    parked = [handle for key, handle in handles if key.startswith("pp")]
    for handle in parked:
        _require(
            handle.committed_at >= 7.0,
            "partition_heal",
            f"parked write {handle.tx_id} committed at {handle.committed_at} "
            "— before the partition healed",
        )
    delivered_ids = [str(event["tx_id"]) for event in deliveries]
    _require(
        len(delivered_ids) == len(set(delivered_ids)),
        "partition_heal",
        f"continuous query delivered a commit twice: {delivered_ids}",
    )
    _require(
        set(delivered_ids) == {handle.tx_id for _, handle in handles},
        "partition_heal",
        "continuous query missed a committed write across the heal: "
        f"delivered {sorted(delivered_ids)}",
    )

    lines = [_handle_line(key, handle) for key, handle in handles]
    lines += [f"read {tag} {reads[tag]!r}" for tag in sorted(reads)]
    lines += [f"delivery {tx_id}" for tx_id in delivered_ids]
    lines += [f"fault {entry!r}" for entry in injector.log]
    lines.append(f"stop {outcome.stop_reason}")
    return ChaosScenarioResult(
        name="partition_heal",
        anchor=_digest(lines),
        wall_s=0.0,
        invariants={
            "writes": len(handles),
            "parked_replayed": len(parked),
            "stale_reads": 1,
            "cq_deliveries": len(delivered_ids),
        },
    )


# ---------------------------------------------------- scenario: byzantine
def _byzantine_workload(
    seed: int, tamper: bool
) -> Tuple[HyperProvDeployment, List[Tuple[str, TransactionHandle]], List[Dict[str, object]], str]:
    deployment = build_deployment(_edge_spec("chaos-byzantine", seed))
    store = deployment.client.as_store()
    engine = deployment.engine
    checksum = checksum_of(b"chaos-byzantine")
    handles: List[Tuple[str, TransactionHandle]] = []
    submit = _submitter(store, handles)
    for index in range(6):
        engine.schedule_at(
            0.2 + 0.2 * index, lambda i=index: submit(f"bz{i}", checksum)
        )
    log: List[Dict[str, object]] = []
    if tamper:
        plan = FaultPlan(
            seed=seed,
            faults=(
                ByzantineFault(3.0, "peer0.org1"),
                ByzantineFault(3.1, "peer1.org2"),
            ),
        )
        injector = FaultInjector(plan, deployment.fabric).install()
        log = injector.log
    # Symmetric no-op tick so both runs execute the same event count.
    engine.schedule_at(3.5, lambda: None)
    outcome = deployment.fabric.flush_and_drain()
    return deployment, handles, log, outcome.stop_reason


def _scenario_byzantine_tamper(seed: int) -> ChaosScenarioResult:
    deployment, handles, fault_log, stop = _byzantine_workload(seed, tamper=True)
    baseline, clean_handles, _, _ = _byzantine_workload(seed, tamper=False)

    commit_lines = [_handle_line(key, handle) for key, handle in handles]
    clean_lines = [_handle_line(key, handle) for key, handle in clean_handles]
    _require(
        commit_lines == clean_lines,
        "byzantine_tamper",
        "post-commit tampering must not move the commit log — the "
        "tampered run's virtual times differ from the clean run",
    )

    byzantine = {"peer0.org1", "peer1.org2"}
    for peer in deployment.peers:
        intact = peer.block_store.verify_chain()
        if peer.name in byzantine:
            _require(
                not intact,
                "byzantine_tamper",
                f"rewrite on {peer.name!r} left its hash chain verifying",
            )
        else:
            _require(
                intact,
                "byzantine_tamper",
                f"honest peer {peer.name!r} failed chain verification",
            )

    # No tampered transaction commits: every peer's world state matches the
    # clean run's byte for byte (the rewrite lives only in the forged
    # block copy, never in any state database).
    clean_state = baseline.peers[0].state_snapshot()
    for peer in deployment.peers:
        _require(
            peer.state_snapshot() == clean_state,
            "byzantine_tamper",
            f"world state on {peer.name!r} diverged after the rewrite",
        )
    view = deployment.client.as_store().get("bz0")
    _require(
        view.checksum == checksum_of(b"chaos-byzantine") and not view.stale,
        "byzantine_tamper",
        f"read after tamper returned {view.checksum!r} (stale={view.stale})",
    )

    lines = list(commit_lines)
    lines += [f"fault {entry!r}" for entry in fault_log]
    lines += [
        f"verify {peer.name} {peer.block_store.verify_chain()}"
        for peer in deployment.peers
    ]
    lines.append(f"stop {stop}")
    return ChaosScenarioResult(
        name="byzantine_tamper",
        anchor=_digest(lines),
        wall_s=0.0,
        invariants={
            "writes": len(handles),
            "tampered_peers": len(byzantine),
            "honest_peers": len(deployment.peers) - len(byzantine),
            "commit_log_matches_clean_run": True,
        },
    )


# ------------------------------------------------------- scenario: stall
def _scenario_orderer_stall(seed: int) -> ChaosScenarioResult:
    deployment = build_deployment(_edge_spec("chaos-stall", seed))
    store = deployment.client.as_store()
    engine = deployment.engine
    checksum = checksum_of(b"chaos-stall")
    handles: List[Tuple[str, TransactionHandle]] = []
    submit = _submitter(store, handles)

    for index, at in enumerate((0.2, 0.4, 0.6)):
        engine.schedule_at(at, lambda i=index: submit(f"st{i}", checksum))

    plan = FaultPlan(seed=seed, faults=(OrdererStallFault(1.0, 3.0),))
    injector = FaultInjector(plan, deployment.fabric).install()

    for index, at in enumerate((1.4, 1.8, 2.2)):
        engine.schedule_at(at, lambda i=index + 3: submit(f"st{i}", checksum))

    probe: Dict[str, object] = {}

    def mid_stall_probe() -> None:
        shard = deployment.fabric.shard(0)
        probe["stalled"] = shard.orderer.stalled
        probe["backlog"] = shard.orderer.intake_backlog
        probe["in_flight"] = deployment.fabric.in_flight()

    engine.schedule_at(2.6, mid_stall_probe)
    outcome = deployment.fabric.flush_and_drain()

    _require(
        bool(probe.get("stalled")),
        "orderer_stall",
        f"mid-stall probe did not observe the stall: {probe}",
    )
    _require(
        int(probe.get("backlog", 0)) >= 1 and int(probe.get("in_flight", 0)) >= 3,
        "orderer_stall",
        f"backlog did not accumulate while stalled: {probe}",
    )
    _require(
        outcome.stop_reason == "idle",
        "orderer_stall",
        f"backlog never drained: stop reason {outcome.stop_reason!r}",
    )
    shard = deployment.fabric.shard(0)
    _require(
        shard.orderer.intake_backlog == 0,
        "orderer_stall",
        f"intake backlog still holds {shard.orderer.intake_backlog} envelopes",
    )
    _assert_committed_everywhere("orderer_stall", deployment, handles)
    for key, handle in handles[3:]:
        _require(
            handle.committed_at >= 3.0,
            "orderer_stall",
            f"{key!r} committed at {handle.committed_at} — while the "
            "orderer was stalled",
        )

    lines = [_handle_line(key, handle) for key, handle in handles]
    lines.append(
        f"probe stalled={probe['stalled']} backlog={probe['backlog']} "
        f"in_flight={probe['in_flight']}"
    )
    lines += [f"fault {entry!r}" for entry in injector.log]
    lines.append(f"stop {outcome.stop_reason}")
    return ChaosScenarioResult(
        name="orderer_stall",
        anchor=_digest(lines),
        wall_s=0.0,
        invariants={
            "writes": len(handles),
            "stalled_backlog": int(probe["backlog"]),
            "drained_backlog": 0,
        },
    )


# ------------------------------------------------------- scenario: churn
def _scenario_churn_fair_share(seed: int) -> ChaosScenarioResult:
    deployment = build_deployment(
        _edge_spec("chaos-churn", seed, scheduler="fair-share")
    )
    deployment.client.configure_pipeline(PipelineConfig(tenant="alpha"))

    # Second tenant on its own device; its organization joins the MSP so
    # endorsement signature checks pass for both tenants.
    tenant_org = Organization("tenant-b-org")
    deployment.channel.msp.add_organization(tenant_org)
    device_b = DeviceModel(
        name="client-b",
        profile=deployment.spec.client_profile,
        rng=DeterministicRandom(seed).fork("device:client-b"),
    )
    deployment.fabric.add_client(
        "tenant-b",
        identity=tenant_org.enroll("tenant-b", role="client"),
        device=device_b,
        host_node="client-b",
        anchor_peer=deployment.peers[0].name,
    )
    client_b = HyperProvClient(
        network=deployment.fabric, client_name="tenant-b", storage=deployment.storage
    )
    client_b.configure_pipeline(PipelineConfig(tenant="beta", store_and_forward=True))

    engine = deployment.engine
    checksum = checksum_of(b"chaos-churn")
    handles_a: List[Tuple[str, TransactionHandle]] = []
    handles_b: List[Tuple[str, TransactionHandle]] = []
    submit_a = _submitter(deployment.client.as_store(), handles_a)
    submit_b = _submitter(client_b.as_store(), handles_b)

    plan = FaultPlan(seed=seed, faults=(ChurnFault(2.0, 5.0, "client-b"),))
    injector = FaultInjector(plan, deployment.fabric).install()

    for index, at in enumerate((0.5, 1.5, 2.5, 3.5, 4.5, 5.5)):
        engine.schedule_at(at, lambda i=index: submit_a(f"a{i}", checksum))
    for index, at in enumerate((1.0, 2.6, 3.2, 5.8)):
        engine.schedule_at(at, lambda i=index: submit_b(f"b{i}", checksum))

    outcome = deployment.fabric.flush_and_drain()

    _require(
        outcome.stop_reason == "idle",
        "churn_fair_share",
        f"run did not quiesce: stop reason {outcome.stop_reason!r}",
    )
    _assert_committed_everywhere(
        "churn_fair_share", deployment, handles_a + handles_b
    )
    # Fair share for the unaffected tenant: every commit latency stays
    # bounded through the other tenant's churn window and replay burst.
    for key, handle in handles_a:
        latency = handle.committed_at - handle.submitted_at
        _require(
            latency <= FAIR_SHARE_LATENCY_BOUND_S,
            "churn_fair_share",
            f"tenant alpha write {key!r} took {latency:.3f}s to commit "
            f"(bound {FAIR_SHARE_LATENCY_BOUND_S}s) — starved by the churn",
        )
    churned = [handle for key, handle in handles_b if key in ("b1", "b2")]
    _require(len(churned) == 2, "churn_fair_share", "churned writes missing")
    for handle in churned:
        _require(
            handle.committed_at >= 5.0,
            "churn_fair_share",
            f"churned write {handle.tx_id} committed at {handle.committed_at} "
            "— before the device returned",
        )

    lines = [_handle_line(f"alpha:{key}", handle) for key, handle in handles_a]
    lines += [_handle_line(f"beta:{key}", handle) for key, handle in handles_b]
    lines += [f"fault {entry!r}" for entry in injector.log]
    lines.append(f"stop {outcome.stop_reason}")
    return ChaosScenarioResult(
        name="churn_fair_share",
        anchor=_digest(lines),
        wall_s=0.0,
        invariants={
            "alpha_writes": len(handles_a),
            "beta_writes": len(handles_b),
            "churn_replayed": len(churned),
            "alpha_latency_bound_s": FAIR_SHARE_LATENCY_BOUND_S,
        },
    )


# ------------------------------------------------- scenario: link degrade
def _scenario_link_degrade(seed: int) -> ChaosScenarioResult:
    """Degrade (not sever) the client→orderer link for a window.

    Every submission envelope sent during the window pays the configured
    extra latency, is "dropped" once (modelled as a retransmission: the
    transfer takes twice as long and the bytes go on the wire twice) and
    spuriously duplicated (bytes only).  Invariants: every write still
    commits VALID exactly once on every peer, commits during the window
    are strictly slower than before it, commits after the window recover,
    and the fabric's fault counters prove the degradation actually
    happened on the wire.
    """
    deployment = build_deployment(_edge_spec("chaos-linkdegrade", seed))
    store = deployment.client.as_store()
    engine = deployment.engine
    checksum = checksum_of(b"chaos-linkdegrade")
    handles: List[Tuple[str, TransactionHandle]] = []
    submit = _submitter(store, handles)

    plan = FaultPlan(
        seed=seed,
        faults=(
            LinkDegradeFault(
                2.0,
                4.0,
                source="client",
                destination="orderer",
                extra_latency_s=0.5,
                drop_rate=1.0,
                duplicate_rate=1.0,
            ),
        ),
    )
    injector = FaultInjector(plan, deployment.fabric).install()

    # Two writes before, during and after the window; same-length keys so
    # the per-message payload sizes (and device costs) line up exactly.
    phases = {"pre": (0.3, 0.8), "mid": (2.2, 2.7), "post": (6.0, 6.5)}
    tags = {"pre": "a", "mid": "b", "post": "c"}
    for phase, ats in phases.items():
        for index, at in enumerate(ats):
            engine.schedule_at(
                at, lambda p=tags[phase], i=index: submit(f"ld-{p}{i}", checksum)
            )

    outcome = deployment.fabric.flush_and_drain()

    _require(
        outcome.stop_reason == "idle",
        "link_degrade",
        f"run did not quiesce: stop reason {outcome.stop_reason!r}",
    )
    _assert_committed_everywhere("link_degrade", deployment, handles)

    latency: Dict[str, List[float]] = {phase: [] for phase in phases}
    for key, handle in handles:
        phase = {"a": "pre", "b": "mid", "c": "post"}[key[len("ld-")]]
        latency[phase].append(handle.committed_at - handle.submitted_at)
    _require(
        max(latency["pre"]) < min(latency["mid"]),
        "link_degrade",
        "degradation invisible: in-window commit latency "
        f"{latency['mid']} not above pre-window {latency['pre']}",
    )
    _require(
        max(latency["post"]) < min(latency["mid"]),
        "link_degrade",
        "degradation is unbounded: post-window commit latency "
        f"{latency['post']} not below in-window {latency['mid']}",
    )

    metrics = deployment.fabric.network.metrics
    dropped = metrics.counter("fault.dropped").value
    duplicated = metrics.counter("fault.duplicated").value
    _require(
        dropped >= len(phases["mid"]) and duplicated >= len(phases["mid"]),
        "link_degrade",
        f"fault counters did not move: dropped={dropped} "
        f"duplicated={duplicated}",
    )

    lines = [_handle_line(key, handle) for key, handle in handles]
    lines.append(f"counters dropped={dropped} duplicated={duplicated}")
    lines += [f"fault {entry!r}" for entry in injector.log]
    lines.append(f"stop {outcome.stop_reason}")
    return ChaosScenarioResult(
        name="link_degrade",
        anchor=_digest(lines),
        wall_s=0.0,
        invariants={
            "writes": len(handles),
            "degraded_window_s": 2.0,
            "dropped": int(dropped),
            "duplicated": int(duplicated),
        },
    )


SCENARIOS: Dict[str, Callable[[int], ChaosScenarioResult]] = {
    "partition_heal": _scenario_partition_heal,
    "byzantine_tamper": _scenario_byzantine_tamper,
    "orderer_stall": _scenario_orderer_stall,
    "churn_fair_share": _scenario_churn_fair_share,
    "link_degrade": _scenario_link_degrade,
}


def run_chaos(smoke: bool = False, seed: int = CHAOS_SEED) -> ChaosBenchReport:
    """Run every scenario; the full profile double-runs for determinism.

    ``smoke`` runs each scenario once (the CI shape — determinism is then
    checked against the committed anchors instead of a second pass).
    """
    repeats = 1 if smoke else 2
    results: List[ChaosScenarioResult] = []
    for name, scenario in SCENARIOS.items():
        passes: List[ChaosScenarioResult] = []
        wall: List[float] = []
        for _ in range(repeats):
            started = time.perf_counter()
            passes.append(scenario(seed))
            wall.append(time.perf_counter() - started)
        anchors = {result.anchor for result in passes}
        if len(anchors) != 1:
            raise ChaosInvariantError(
                f"chaos {name}: non-deterministic — two passes at seed {seed} "
                f"produced different anchors {sorted(anchors)}"
            )
        result = passes[0]
        result.wall_s = min(wall)
        results.append(result)
    return ChaosBenchReport(seed=seed, repeats=repeats, scenarios=results)
