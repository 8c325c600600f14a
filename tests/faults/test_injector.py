"""FaultInjector behaviour against a live deployment."""

import pytest

from repro.api.protocol import StoreRequest
from repro.common.errors import NotFoundError, SimulationError
from repro.common.hashing import checksum_of
from repro.consensus.batching import BatchConfig
from repro.core.topology import DeploymentSpec, build_deployment
from repro.devices.profiles import DESKTOP_PROFILES, XEON_E5_1603
from repro.faults import (
    FAULT_INJECTED_TOPIC,
    ByzantineFault,
    ChurnFault,
    FaultInjector,
    FaultPlan,
    OrdererStallFault,
    PartitionFault,
    PeerCrashFault,
)

CHECKSUM = checksum_of(b"faults")


def make_deployment(seed=11):
    return build_deployment(
        DeploymentSpec(
            name="faults-test",
            peer_profiles=DESKTOP_PROFILES,
            orderer_profile=XEON_E5_1603,
            storage_profile=XEON_E5_1603,
            client_profile=DESKTOP_PROFILES[2],
            client_colocated_with=None,
            batch_config=BatchConfig(max_message_count=1),
            seed=seed,
        )
    )


def submit_at(deployment, at, key):
    store = deployment.client.as_store()

    def fire():
        outcome = store.submit(
            StoreRequest(key=key, checksum=CHECKSUM, location="x://", size_bytes=64)
        )
        handles[key] = outcome.handle

    handles = submit_at.handles.setdefault(id(deployment), {})
    deployment.engine.schedule_at(at, fire)
    return handles


submit_at.handles = {}


class TestInstallLifecycle:
    def test_double_install_raises(self):
        deployment = make_deployment()
        injector = FaultInjector(FaultPlan(seed=1), deployment.fabric)
        injector.install()
        with pytest.raises(SimulationError, match="already installed"):
            injector.install()

    def test_injections_are_published_on_the_aggregate_bus(self):
        deployment = make_deployment()
        seen = []
        deployment.fabric.events.subscribe(
            FAULT_INJECTED_TOPIC, lambda t, p: seen.append(p["kind"])
        )
        plan = FaultPlan(seed=1, faults=(ChurnFault(1.0, 2.0, "client"),))
        FaultInjector(plan, deployment.fabric).install()
        deployment.engine.run(until=3.0)
        assert seen == ["partition", "heal"]


class TestPartitionWindows:
    def test_zero_duration_window_is_a_no_op(self):
        deployment = make_deployment()
        plan = FaultPlan(seed=1, faults=(PartitionFault(1.0, 1.0, (("client",),)),))
        injector = FaultInjector(plan, deployment.fabric).install()
        handles = submit_at(deployment, 1.0, "zd")
        deployment.drain()
        assert not deployment.fabric.network.partitions.is_partitioned
        assert handles["zd"].is_valid
        assert injector.log == []

    def test_overlapping_windows_intersect(self):
        deployment = make_deployment()
        partitions = deployment.fabric.network.partitions
        plan = FaultPlan(
            seed=1,
            faults=(
                PartitionFault(1.0, 3.0, (("client",),)),
                PartitionFault(2.0, 4.0, (("peer0.org1",),)),
            ),
        )
        FaultInjector(plan, deployment.fabric).install()
        observed = {}

        def probe(tag):
            observed[tag] = (
                partitions.can_communicate("client", "peer1.org2"),
                partitions.can_communicate("peer0.org1", "peer1.org2"),
                partitions.can_communicate("client", "peer0.org1"),
            )

        for tag, at in (("first", 1.5), ("both", 2.5), ("second", 3.5), ("healed", 4.5)):
            deployment.engine.schedule_at(at, lambda tag=tag: probe(tag))
        deployment.engine.run(until=5.0)
        assert observed["first"] == (False, True, False)
        assert observed["both"] == (False, False, False)
        assert observed["second"] == (True, False, False)
        assert observed["healed"] == (True, True, True)
        assert not partitions.is_partitioned

    def test_unknown_site_name_raises_at_the_boundary(self):
        deployment = make_deployment()
        plan = FaultPlan(seed=1, faults=(PartitionFault(1.0, 2.0, (("typo-site",),)),))
        FaultInjector(plan, deployment.fabric).install()
        with pytest.raises(NotFoundError, match="typo-site"):
            deployment.engine.run(until=3.0)


class TestPointFaults:
    def test_crash_and_restart_name_a_known_peer(self):
        fabric = make_deployment().fabric
        with pytest.raises(NotFoundError):
            fabric.crash_peer("ghost.org9")
        with pytest.raises(NotFoundError):
            fabric.restart_peer("ghost.org9")

    def test_crashed_peer_recovers_missed_blocks_on_restart(self):
        deployment = make_deployment()
        plan = FaultPlan(seed=1, faults=(PeerCrashFault(1.0, 3.0, "peer0.org1"),))
        injector = FaultInjector(plan, deployment.fabric).install()
        handles = submit_at(deployment, 2.0, "during-crash")
        deployment.drain()
        handle = handles["during-crash"]
        assert handle.is_valid
        # The crashed peer missed the delivery but replayed it on restart.
        assert deployment.fabric.peer("peer0.org1").committed(handle.tx_id)
        assert [entry["kind"] for entry in injector.log] == [
            "peer_crash",
            "peer_restart",
        ]

    def test_stalled_orderer_defers_commits_until_resume(self):
        deployment = make_deployment()
        plan = FaultPlan(seed=1, faults=(OrdererStallFault(1.0, 4.0),))
        FaultInjector(plan, deployment.fabric).install()
        handles = submit_at(deployment, 2.0, "stalled")
        deployment.drain()
        handle = handles["stalled"]
        assert handle.is_valid
        assert handle.committed_at >= 4.0
        assert deployment.fabric.shard(0).orderer.intake_backlog == 0

    def test_byzantine_on_empty_ledger_is_recorded_as_skipped(self):
        deployment = make_deployment()
        plan = FaultPlan(seed=1, faults=(ByzantineFault(1.0, "peer0.org1"),))
        injector = FaultInjector(plan, deployment.fabric).install()
        deployment.engine.run(until=2.0)
        assert [entry["kind"] for entry in injector.log] == ["byzantine_skipped"]

    def test_byzantine_tamper_breaks_exactly_that_peers_chain(self):
        deployment = make_deployment()
        handles = submit_at(deployment, 0.5, "bz")
        plan = FaultPlan(seed=1, faults=(ByzantineFault(2.0, "peer0.org1"),))
        injector = FaultInjector(plan, deployment.fabric).install()
        deployment.drain()
        assert handles["bz"].is_valid
        assert [entry["kind"] for entry in injector.log] == ["byzantine_tamper"]
        for peer in deployment.peers:
            intact = peer.block_store.verify_chain()
            assert intact == (peer.name != "peer0.org1")


class TestDeterminism:
    def test_same_plan_same_seed_same_log(self):
        def run():
            deployment = make_deployment()
            plan = FaultPlan(
                seed=7,
                faults=(
                    ChurnFault(1.0, 2.0, "client"),
                    OrdererStallFault(2.5, 3.0),
                    ByzantineFault(4.0, "peer1.org2"),
                ),
            )
            injector = FaultInjector(plan, deployment.fabric).install()
            submit_at(deployment, 0.5, "d0")
            submit_at(deployment, 3.2, "d1")
            deployment.drain()
            return injector.log

        assert run() == run()


class TestDeadlockReporting:
    def test_never_resumed_orderer_reports_deadlock(self):
        deployment = make_deployment()
        deployment.fabric.shard(0).orderer.stall()
        handles = submit_at(deployment, 0.5, "stuck")
        outcome = deployment.fabric.flush_and_drain()
        assert outcome.stop_reason == "deadlock"
        assert handles["stuck"].validation_code is None
        assert deployment.fabric.in_flight() > 0
