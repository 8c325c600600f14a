"""Deployment builders for the paper's two testbeds.

``build_desktop_deployment`` assembles the four-machine x86-64 network
(2× Xeon E5-1603, 1× i7-4700MQ, 1× i3-2310M; the first Xeon also runs the
orderer) and ``build_rpi_deployment`` the four Raspberry Pi 3B+ network.
Both attach an SSHFS off-chain storage backend on a separate node and a
client application, mirroring Section 4 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.consensus.batching import BatchConfig
from repro.consensus.raft import RaftOrderingService
from repro.consensus.scheduler import make_scheduler
from repro.consensus.solo import SoloOrderingService
from repro.core.client import HyperProvClient
from repro.chaincode.hyperprov import HyperProvChaincode
from repro.devices.model import DeviceModel
from repro.devices.profiles import (
    DESKTOP_PROFILES,
    HardwareProfile,
    RPI_PROFILES,
    XEON_E5_1603,
)
from repro.energy.meter import PowerMeter
from repro.energy.power import PowerModel
from repro.fabric.channel import Channel
from repro.fabric.network import FabricNetwork
from repro.fabric.peer import Peer
from repro.membership.identity import Organization
from repro.membership.msp import MSP
from repro.membership.policies import MajorityPolicy
from repro.network.fabric import NetworkFabric
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import DeterministicRandom
from repro.storage.content import ContentAddressedStore
from repro.storage.sshfs import SSHFSStorageBackend


@dataclass
class DeploymentSpec:
    """Parameters of a deployment build."""

    #: Hardware profile per peer node, in order.
    peer_profiles: Sequence[HardwareProfile]
    #: Hardware profile of the node running the ordering service.
    orderer_profile: HardwareProfile
    #: Hardware profile of the off-chain storage node.
    storage_profile: HardwareProfile
    #: Hardware profile of the machine running the client application.
    client_profile: HardwareProfile
    #: Index of the peer the client co-locates with (None = separate host).
    client_colocated_with: Optional[int] = 0
    #: Orderer batching parameters.
    batch_config: BatchConfig = field(default_factory=BatchConfig)
    #: ``"solo"`` or ``"raft"`` (a three-node cluster).
    ordering: str = "solo"
    #: Enable FastFabric-style parallel validation on every peer.
    parallel_validation: bool = False
    #: Channels the deployment hosts.  Every peer node joins every channel
    #: (one ledger per channel, as in Fabric); each extra channel gets its
    #: own ordering service on its own orderer machine, so the ordering
    #: path scales horizontally while peers and storage stay shared.
    shards: int = 1
    #: Orderer intake policy: ``"fifo"`` or ``"fair-share"`` (per shard).
    scheduler: str = "fifo"
    #: Per-envelope orderer processing time; 0 keeps intake synchronous
    #: (the historical behaviour).  Positive values bound each channel's
    #: ordering rate, which is what makes scheduling policy and shard
    #: scaling observable.
    orderer_intake_interval_s: float = 0.0
    #: Field-value secondary indexes attached to every peer ledger at build
    #: time (same syntax as ``PipelineConfig.indexes``; empty = none).
    indexes: Sequence[str] = ()
    seed: int = 42
    name: str = "deployment"


@dataclass
class HyperProvDeployment:
    """Everything the benchmarks need from one assembled deployment."""

    spec: DeploymentSpec
    engine: SimulationEngine
    network: NetworkFabric
    fabric: FabricNetwork
    channel: Channel
    peers: List[Peer]
    devices: Dict[str, DeviceModel]
    storage_backend: SSHFSStorageBackend
    storage: ContentAddressedStore
    client: HyperProvClient
    client_device: DeviceModel
    power_meters: Dict[str, PowerMeter]

    def drain(self) -> None:
        """Flush pending batches and run the simulation to quiescence."""
        self.fabric.flush_and_drain()


def build_deployment(spec: DeploymentSpec) -> HyperProvDeployment:
    """Assemble a full HyperProv deployment from a :class:`DeploymentSpec`."""
    if not spec.peer_profiles:
        raise ConfigurationError("a deployment needs at least one peer")
    if spec.shards < 1:
        raise ConfigurationError("a deployment needs at least one channel shard")

    engine = SimulationEngine()
    rng = DeterministicRandom(spec.seed)
    network = NetworkFabric(engine=engine, rng=rng.fork("network"))

    # Organizations: one per peer node, like the paper's four-machine setup.
    organizations = [Organization(f"org{i + 1}") for i in range(len(spec.peer_profiles))]
    msp = MSP(organizations)
    channel = Channel(name="hyperprov-channel", msp=msp, batch_config=spec.batch_config)

    devices: Dict[str, DeviceModel] = {}
    peers: List[Peer] = []
    for index, (org, profile) in enumerate(zip(organizations, spec.peer_profiles)):
        peer_name = f"peer{index}.{org.name}"
        device = DeviceModel(
            name=peer_name, profile=profile, rng=rng.fork(f"device:{peer_name}")
        )
        devices[peer_name] = device
        identity = org.enroll(f"peer{index}", role="peer")
        peer = Peer(
            name=peer_name,
            identity=identity,
            device=device,
            channel=channel,
            parallel_validation=spec.parallel_validation,
        )
        peers.append(peer)

    # Ordering service.
    orderer_node = "orderer"
    orderer_device = DeviceModel(
        name=orderer_node, profile=spec.orderer_profile, rng=rng.fork("device:orderer")
    )
    devices[orderer_node] = orderer_device
    network.register_node(orderer_node, profile=spec.orderer_profile.nic)

    def build_orderer(name: str, rng_label: str) -> object:
        scheduler = make_scheduler(spec.scheduler)
        if spec.ordering == "solo":
            return SoloOrderingService(
                name=name,
                engine=engine,
                batch_config=spec.batch_config,
                scheduler=scheduler,
                intake_interval_s=spec.orderer_intake_interval_s,
            )
        if spec.ordering == "raft":
            return RaftOrderingService(
                name=name,
                engine=engine,
                network=network,
                batch_config=spec.batch_config,
                rng=rng.fork(rng_label),
                scheduler=scheduler,
                intake_interval_s=spec.orderer_intake_interval_s,
            )
        raise ConfigurationError(f"unknown ordering mode {spec.ordering!r}")

    orderer = build_orderer(orderer_node, "raft")

    fabric = FabricNetwork(
        engine=engine,
        network=network,
        channel=channel,
        orderer=orderer,
        orderer_node=orderer_node,
        orderer_device=orderer_device,
    )
    for peer in peers:
        fabric.add_peer(peer)

    # Chaincode: HyperProv, endorsed by a majority of the organizations.
    policy = MajorityPolicy([org.name for org in organizations])
    channel.instantiate_chaincode(HyperProvChaincode(), endorsement_policy=policy)

    # Extra channel shards: each gets its own ordering service on its own
    # orderer machine, and every peer node joins with a per-channel ledger
    # replica sharing the node's device model (one peer process, many
    # channels — so CPU contention across channels is still modelled).
    for shard_index in range(1, spec.shards):
        shard_channel = Channel(
            name=f"hyperprov-channel-{shard_index}",
            msp=msp,
            batch_config=spec.batch_config,
        )
        shard_orderer_node = f"{orderer_node}-{shard_index}"
        shard_orderer_device = DeviceModel(
            name=shard_orderer_node,
            profile=spec.orderer_profile,
            rng=rng.fork(f"device:{shard_orderer_node}"),
        )
        devices[shard_orderer_node] = shard_orderer_device
        network.register_node(shard_orderer_node, profile=spec.orderer_profile.nic)
        shard_orderer = build_orderer(shard_orderer_node, f"raft-{shard_index}")
        index = fabric.add_channel(
            shard_channel,
            orderer=shard_orderer,
            orderer_node=shard_orderer_node,
            orderer_device=shard_orderer_device,
        )
        for peer in peers:
            replica = Peer(
                name=peer.name,
                identity=peer.identity,
                device=peer.device,
                channel=shard_channel,
                parallel_validation=spec.parallel_validation,
            )
            fabric.add_peer(replica, shard=index)
        shard_channel.instantiate_chaincode(
            HyperProvChaincode(), endorsement_policy=policy
        )

    # Off-chain storage on its own node.
    storage_node = "storage"
    storage_device = DeviceModel(
        name=storage_node, profile=spec.storage_profile, rng=rng.fork("device:storage")
    )
    devices[storage_node] = storage_device
    storage_backend = SSHFSStorageBackend(
        network=network,
        storage_device=storage_device,
        storage_node=storage_node,
    )
    storage = ContentAddressedStore(storage_backend)

    # Client application.
    client_org = organizations[0]
    client_identity = client_org.enroll("hyperprov-client", role="client")
    if spec.client_colocated_with is not None:
        host_node = peers[spec.client_colocated_with].name
        client_device = devices[host_node]
        anchor_peer = peers[spec.client_colocated_with].name
    else:
        host_node = "client"
        client_device = DeviceModel(
            name=host_node, profile=spec.client_profile, rng=rng.fork("device:client")
        )
        devices[host_node] = client_device
        anchor_peer = peers[0].name
    fabric.add_client(
        "hyperprov-client",
        identity=client_identity,
        device=client_device,
        host_node=host_node,
        anchor_peer=anchor_peer,
    )
    client = HyperProvClient(
        network=fabric, client_name="hyperprov-client", storage=storage
    )

    if spec.indexes:
        fabric.enable_secondary_indexes(tuple(spec.indexes))

    power_meters = {
        name: PowerMeter(PowerModel(device)) for name, device in devices.items()
    }

    return HyperProvDeployment(
        spec=spec,
        engine=engine,
        network=network,
        fabric=fabric,
        channel=channel,
        peers=peers,
        devices=devices,
        storage_backend=storage_backend,
        storage=storage,
        client=client,
        client_device=client_device,
        power_meters=power_meters,
    )


def build_desktop_deployment(
    batch_config: Optional[BatchConfig] = None,
    ordering: str = "solo",
    parallel_validation: bool = False,
    shards: int = 1,
    scheduler: str = "fifo",
    orderer_intake_interval_s: float = 0.0,
    indexes: Sequence[str] = (),
    seed: int = 42,
) -> HyperProvDeployment:
    """The paper's desktop setup: 2× Xeon E5-1603, i7-4700MQ, i3-2310M.

    One Xeon also hosts the orderer; the client runs on the i7 machine
    (co-located with its peer); off-chain storage is a separate node.
    ``shards`` adds channels, each ordered by its own Xeon-class machine.
    """
    spec = DeploymentSpec(
        name="desktop",
        peer_profiles=DESKTOP_PROFILES,
        orderer_profile=XEON_E5_1603,
        storage_profile=XEON_E5_1603,
        client_profile=DESKTOP_PROFILES[2],
        client_colocated_with=2,
        batch_config=batch_config or BatchConfig(),
        ordering=ordering,
        parallel_validation=parallel_validation,
        shards=shards,
        scheduler=scheduler,
        orderer_intake_interval_s=orderer_intake_interval_s,
        indexes=indexes,
        seed=seed,
    )
    return build_deployment(spec)


def build_rpi_deployment(
    batch_config: Optional[BatchConfig] = None,
    ordering: str = "solo",
    parallel_validation: bool = False,
    shards: int = 1,
    scheduler: str = "fifo",
    orderer_intake_interval_s: float = 0.0,
    indexes: Sequence[str] = (),
    seed: int = 42,
) -> HyperProvDeployment:
    """The paper's edge setup: 4× Raspberry Pi 3B+ on one switch.

    The orderer runs on one of the RPis, the client is co-located with a
    peer (both processes on the same RPi, as in the paper's energy
    measurements), and the SSHFS storage node is a separate machine.
    """
    spec = DeploymentSpec(
        name="rpi",
        peer_profiles=RPI_PROFILES,
        orderer_profile=RPI_PROFILES[0],
        storage_profile=XEON_E5_1603,
        client_profile=RPI_PROFILES[0],
        client_colocated_with=0,
        batch_config=batch_config or BatchConfig(),
        ordering=ordering,
        parallel_validation=parallel_validation,
        shards=shards,
        scheduler=scheduler,
        orderer_intake_interval_s=orderer_intake_interval_s,
        indexes=indexes,
        seed=seed,
    )
    return build_deployment(spec)
