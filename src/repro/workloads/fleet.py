"""Fleet-scale shard-disjoint topology and metadata-post workload.

The paper's testbeds are four-machine networks; this module scales the
simulator itself to a *fleet*: thousands of devices posting provenance
metadata across several independent sites.  Each site is one
:class:`~repro.fabric.network.ChannelShard` — its own channel, ordering
service, peers and device population — and sites share **nothing**: no
peer, no link, no RNG stream, no transaction-id namespace.

That disjointness is the load-bearing property.  A site produces exactly
the same virtual-time behaviour whether it runs

* next to its siblings on one engine (``build_fleet(spec)`` — the
  sequential baseline), or
* alone in a worker process (``build_fleet(spec, sites=[s])`` — what the
  parallel executor forks), because

  - every RNG stream is label-forked (stateless: seed + label) so link
    jitter and device draws never depend on construction or draw order
    across sites,
  - transaction ids come from a per-site namespace (``tx-s{site}-N``), so
    id lengths — which feed proposal ``size_bytes`` and therefore virtual
    transfer times — never depend on cross-site submission interleaving,
  - per-site event chains only schedule per-site events, so the engine's
    (timestamp, insertion) order preserves each site's relative order
    under any interleaving, and
  - fault injection is site-local: partition windows isolate one replica
    *per site* at fleet-wide virtual times, and churn is cut out of the
    arrival schedules themselves (:class:`~repro.workloads.arrivals.CohortArrivalPlan`).

The commit log (one line per submitted post, in submission order) plus its
SHA-256 anchor digest is how equivalence is checked — byte-identical
between the sequential engine and the parallel executor.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaincode.hyperprov import HyperProvChaincode
from repro.common.errors import ConfigurationError
from repro.common.hashing import checksum_of
from repro.common.ids import IdGenerator
from repro.common.metrics import MetricsRegistry
from repro.consensus.batching import BatchConfig
from repro.consensus.solo import SoloOrderingService
from repro.devices.model import DeviceModel
from repro.devices.profiles import DESKTOP_PROFILES, RPI_PROFILES, XEON_E5_1603
from repro.fabric.channel import Channel
from repro.fabric.network import FabricNetwork
from repro.fabric.peer import Peer
from repro.fabric.proposal import TransactionHandle
from repro.membership.identity import Organization
from repro.membership.msp import MSP
from repro.membership.policies import MajorityPolicy
from repro.network.fabric import NetworkFabric
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import DeterministicRandom
from repro.workloads.arrivals import CohortArrivalPlan


#: Peer replicas per site: an anchor, and one that partition windows cut off.
PEERS_PER_SITE = 2

#: Declared off-chain payload size of every fleet post, bytes.
PAYLOAD_SIZE_BYTES = 1024


def site_peer_name(site: int, replica: int) -> str:
    return f"s{site}-peer{replica}"


def site_orderer_name(site: int) -> str:
    return f"s{site}-orderer"


def device_name(index: int) -> str:
    return f"dev{index}"


@dataclass(frozen=True)
class FleetSpec:
    """Parameters of a fleet run (pickleable: crosses the worker boundary).

    Workers rebuild their site locally from this spec instead of receiving
    topologies or 10k arrival timelines over a pipe — the command boundary
    between the coordinator and a shard worker is this object plus the
    site index.
    """

    devices: int = 1000
    shards: int = 2
    #: Per-device metadata-post rate (posts/second of virtual time).
    rate_per_device_s: float = 0.02
    duration_s: float = 300.0
    seed: int = 42
    #: Fraction of devices that leave mid-run and rejoin (schedule gaps).
    churn_fraction: float = 0.0
    #: ``(start_s, end_s)`` windows during which each site's last peer
    #: replica is partitioned away (it catches up after the heal).
    partition_windows: Tuple[Tuple[float, float], ...] = ()
    batch_config: BatchConfig = field(default_factory=BatchConfig)

    def validate(self) -> None:
        if self.devices < 1:
            raise ConfigurationError("a fleet needs at least one device")
        if self.shards < 1:
            raise ConfigurationError("a fleet needs at least one shard")
        if self.devices < self.shards:
            raise ConfigurationError("a fleet needs at least one device per shard")
        if self.rate_per_device_s < 0:
            raise ConfigurationError("per-device rate cannot be negative")
        if self.duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        self.batch_config.validate()
        previous_end = 0.0
        for start, end in self.partition_windows:
            if start < previous_end:
                raise ConfigurationError(
                    "partition windows must be sorted and non-overlapping"
                )
            if end <= start:
                raise ConfigurationError("partition window must end after it starts")
            previous_end = end

    def arrival_plan(self) -> CohortArrivalPlan:
        """The fleet's (deterministic) arrival schedules, churn gaps cut."""
        return CohortArrivalPlan(
            devices=self.devices,
            shards=self.shards,
            rate_per_device_s=self.rate_per_device_s,
            duration_s=self.duration_s,
            seed=self.seed,
            churn_fraction=self.churn_fraction,
        )

    def site_of_device(self, index: int) -> int:
        return index % self.shards


@dataclass
class FleetDeployment:
    """One built fleet: all sites on one engine, or a single-site slice."""

    spec: FleetSpec
    #: Sites hosted by this build, in shard-index order.
    sites: List[int]
    engine: SimulationEngine
    network: NetworkFabric
    fabric: FabricNetwork
    #: site → shard index on ``fabric`` (identity for combined builds).
    shard_of_site: Dict[int, int]
    #: Submission-ordered ``(device_index, handle)`` pairs per site,
    #: populated by :func:`submit_fleet`.
    handles: Dict[int, List[Tuple[int, TransactionHandle]]] = field(
        default_factory=dict
    )

    def drain(self, max_events: int = 50_000_000) -> None:
        self.fabric.flush_and_drain(max_events=max_events)


def build_fleet(
    spec: FleetSpec, sites: Optional[Sequence[int]] = None
) -> FleetDeployment:
    """Assemble fleet sites on one engine.

    ``sites=None`` builds every site (the combined/sequential deployment);
    ``sites=[s]`` builds one site alone — the shard-worker build.  Both
    derive every stream and namespace from per-site labels, so the builds
    are virtual-time interchangeable.
    """
    spec.validate()
    selected = list(range(spec.shards)) if sites is None else sorted(set(sites))
    for site in selected:
        if not 0 <= site < spec.shards:
            raise ConfigurationError(f"site {site} is out of range for {spec.shards} shards")
    if not selected:
        raise ConfigurationError("at least one site must be built")

    engine = SimulationEngine()
    rng = DeterministicRandom(spec.seed)
    network = NetworkFabric(engine=engine, rng=rng.fork("network"))

    fabric = FabricNetwork(engine=engine, network=network)
    shard_of_site: Dict[int, int] = {}
    site_orgs: Dict[int, Organization] = {}
    for site in selected:
        org = Organization(f"org-s{site}")
        site_orgs[site] = org
        msp = MSP([org])
        channel = Channel(
            name=f"fleet-channel-{site}", msp=msp, batch_config=spec.batch_config
        )
        orderer_node = site_orderer_name(site)
        orderer_device = DeviceModel(
            name=orderer_node,
            profile=XEON_E5_1603,
            rng=rng.fork(f"device:{orderer_node}"),
        )
        network.register_node(orderer_node, profile=XEON_E5_1603.nic)
        orderer = SoloOrderingService(
            name=orderer_node, engine=engine, batch_config=spec.batch_config
        )
        peers: List[Peer] = []
        for replica in range(PEERS_PER_SITE):
            peer_node = site_peer_name(site, replica)
            profile = DESKTOP_PROFILES[replica % len(DESKTOP_PROFILES)]
            device = DeviceModel(
                name=peer_node, profile=profile, rng=rng.fork(f"device:{peer_node}")
            )
            identity = org.enroll(f"peer{replica}-s{site}", role="peer")
            peers.append(
                Peer(name=peer_node, identity=identity, device=device, channel=channel)
            )
        index = fabric.add_channel(
            channel,
            orderer=orderer,
            orderer_node=orderer_node,
            orderer_device=orderer_device,
            tx_ids=IdGenerator(f"tx-s{site}"),
        )
        for peer in peers:
            fabric.add_peer(peer, shard=index)
        channel.instantiate_chaincode(
            HyperProvChaincode(), endorsement_policy=MajorityPolicy([org.name])
        )
        shard_of_site[site] = index

    built = set(selected)
    for index in range(spec.devices):
        site = spec.site_of_device(index)
        if site not in built:
            continue
        name = device_name(index)
        org = site_orgs[site]
        identity = org.enroll(name, role="client")
        device = DeviceModel(
            name=name,
            profile=RPI_PROFILES[index % len(RPI_PROFILES)],
            rng=rng.fork(f"device:{name}"),
        )
        fabric.add_client(
            name,
            identity=identity,
            device=device,
            host_node=name,
            anchor_peer=site_peer_name(site, 0),
        )

    deployment = FleetDeployment(
        spec=spec,
        sites=selected,
        engine=engine,
        network=network,
        fabric=fabric,
        shard_of_site=shard_of_site,
    )
    _schedule_partition_windows(deployment)
    return deployment


def _schedule_partition_windows(deployment: FleetDeployment) -> None:
    """Install the spec's partition windows as simulation events.

    Each window isolates the *last* peer replica of every built site (the
    anchor replica and orderer stay connected, so commits keep flowing and
    the isolated replica catches up from the ordered-block log after the
    heal).  Window times are fleet-wide, so the groups a solo build
    installs are exactly the site-local slice of the combined groups —
    intra-site reachability is identical either way.
    """
    spec = deployment.spec
    if not spec.partition_windows:
        return
    partitions = deployment.network.partitions
    groups = [
        [site_peer_name(site, PEERS_PER_SITE - 1)] for site in deployment.sites
    ]
    for start, end in spec.partition_windows:
        deployment.engine.schedule_at(
            start,
            lambda g=groups: partitions.partition(g),
            label="fleet:partition",
        )
        deployment.engine.schedule_at(end, partitions.heal, label="fleet:heal")


def submit_fleet(deployment: FleetDeployment) -> int:
    """Schedule every metadata post of the deployment's sites.

    Submissions happen in merged ``(time, device)`` order; a solo build's
    order is exactly the site-local subsequence of the combined order, so
    per-site handle minting (and therefore tx ids) match.  Only the built
    sites' devices are sampled.  Returns the number of posts scheduled.
    """
    spec = deployment.spec
    post_counts: Dict[int, int] = {}
    submitted = 0
    for site in deployment.sites:
        deployment.handles.setdefault(site, [])
    for at_time, index in spec.arrival_plan().merged(deployment.sites):
        site = spec.site_of_device(index)
        sequence = post_counts.get(index, 0)
        post_counts[index] = sequence + 1
        key = f"fleet/{device_name(index)}/r{sequence}"
        args = [
            key,
            checksum_of(key.encode("utf-8")),
            f"ext://{key}",
            "[]",
            "{}",
            str(PAYLOAD_SIZE_BYTES),
        ]
        handle = deployment.fabric.submit_transaction(
            device_name(index),
            "hyperprov",
            "set",
            args,
            at_time=at_time,
            payload_size_bytes=PAYLOAD_SIZE_BYTES,
            shard=deployment.shard_of_site[site],
        )
        deployment.handles[site].append((index, handle))
        submitted += 1
    return submitted


def fleet_registries(deployment: FleetDeployment) -> List[MetricsRegistry]:
    """Every registry of the deployment, each labelled with its ``site``.

    A peer or orderer serves one site and carries its number; the fabric
    and network registries serve every site the engine hosts and carry
    them comma-joined (``"0,1"`` on a two-site engine).  A one-site build,
    which is what the parallel executor runs, labels everything with that
    site.  Order: the fabric, each site's peers and orderer, the network.
    """
    hosted = ",".join(str(site) for site in deployment.sites)
    fabric = deployment.fabric
    fabric.metrics.labels["site"] = hosted
    deployment.network.metrics.labels["site"] = hosted
    registries = [fabric.metrics]
    for site in deployment.sites:
        shard = fabric.shard(deployment.shard_of_site[site])
        for registry in [peer.metrics for peer in shard.ordered_peers] + [shard.orderer.metrics]:
            registry.labels["site"] = str(site)
            registries.append(registry)
    registries.append(deployment.network.metrics)
    return registries


def commit_log_lines(deployment: FleetDeployment, site: int) -> List[str]:
    """One line per post of one site, in submission order.

    Lines carry everything virtual-time-observable about a post — tx id,
    submit/commit times (``repr`` so float identity is exact), validation
    code and block number — so equal logs mean equal simulations.
    """
    lines: List[str] = []
    for index, handle in deployment.handles.get(site, []):
        if handle.is_complete:
            status = handle.validation_code.name
            committed = repr(handle.committed_at)
            block = str(handle.commit_block)
        else:
            status = "PENDING"
            committed = "-"
            block = "-"
        lines.append(
            f"s{site};{device_name(index)};{handle.tx_id};"
            f"{handle.submitted_at!r};{status};{committed};{block}"
        )
    return lines


def commit_anchor(lines_by_site: Dict[int, List[str]]) -> str:
    """SHA-256 over every site's commit log, in site order.

    The determinism anchor committed to ``ANCHORS.json`` and gated in
    CI: the sequential engine and the parallel executor must produce the
    same digest.
    """
    digest = hashlib.sha256()
    for site in sorted(lines_by_site):
        for line in lines_by_site[site]:
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
    return digest.hexdigest()


def commit_counts(deployment: FleetDeployment, site: int) -> Dict[str, int]:
    """Committed / failed / pending post counts for one site."""
    committed = failed = pending = 0
    for _, handle in deployment.handles.get(site, []):
        if not handle.is_complete:
            pending += 1
        elif handle.is_valid:
            committed += 1
        else:
            failed += 1
    return {"committed": committed, "failed": failed, "pending": pending}
