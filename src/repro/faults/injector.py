"""Turns a :class:`~repro.faults.plan.FaultPlan` into simulation events.

The injector binds a plan to one :class:`~repro.fabric.network.FabricNetwork`
and schedules every injection on the deployment's discrete-event engine:

* Partition and churn windows are applied at their boundary instants.
  Overlapping windows compose with intersection semantics (two nodes can
  talk only if every active window allows it), implemented by grouping
  nodes on the tuple of group ids they hold across all active faults.
  After every boundary the orderer-reachable peers that fell behind are
  caught up, so partial heals recover immediately.
* Peer crashes/restarts and orderer stalls/resumes are point events.
* Link degradation is handed to the network fabric, which gates the
  extra latency / drop / duplicate behaviour on its own clock.
* Byzantine rewrites fire once, via the target peer's copy-on-write
  ``tamper`` hook, forging the last argument of the chosen transaction
  with bytes drawn from the plan-seeded RNG.

Every applied injection is appended to :attr:`FaultInjector.log` and
published as a ``fault_injected`` event on the deployment's aggregate
bus, so benchmarks can assert on exactly what happened and when.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.common.errors import SimulationError
from repro.faults.plan import (
    ByzantineFault,
    ChurnFault,
    FaultPlan,
    LinkDegradeFault,
    OrdererStallFault,
    PartitionFault,
    PeerCrashFault,
)
from repro.fabric.network import FabricNetwork
from repro.simulation.randomness import DeterministicRandom

#: Topic carrying one payload per applied injection on ``fabric.events``.
FAULT_INJECTED_TOPIC = "fault_injected"


class FaultInjector:
    """Schedules a fault plan against one deployment, deterministically."""

    def __init__(self, plan: FaultPlan, fabric: FabricNetwork) -> None:
        self.plan = plan.validate()
        self.fabric = fabric
        self.engine = fabric.engine
        self.rng = DeterministicRandom(plan.seed).fork("faults")
        #: Chronological record of every injection actually applied.
        self.log: List[Dict[str, Any]] = []
        self._installed = False

    # ------------------------------------------------------------- install
    def install(self) -> "FaultInjector":
        """Schedule every injection; call once, before driving the run."""
        if self._installed:
            raise SimulationError("fault plan is already installed")
        self._installed = True

        window_faults = self.plan.of_type(PartitionFault, ChurnFault)
        boundaries = sorted(
            {fault.start_s for fault in window_faults}
            | {fault.end_s for fault in window_faults}
        )
        for boundary in boundaries:
            self.engine.schedule_at(
                boundary,
                lambda at=boundary: self._apply_partition_state(at),
                label=f"fault:partition@{boundary}",
            )

        for crash in self.plan.of_type(PeerCrashFault):
            self.engine.schedule_at(
                crash.start_s,
                lambda fault=crash: self._crash(fault),
                label=f"fault:crash:{crash.peer}",
            )
            self.engine.schedule_at(
                crash.end_s,
                lambda fault=crash: self._restart(fault),
                label=f"fault:restart:{crash.peer}",
            )

        for stall in self.plan.of_type(OrdererStallFault):
            self.engine.schedule_at(
                stall.start_s,
                lambda fault=stall: self._stall(fault),
                label=f"fault:stall:{stall.shard}",
            )
            self.engine.schedule_at(
                stall.end_s,
                lambda fault=stall: self._resume(fault),
                label=f"fault:resume:{stall.shard}",
            )

        for link in self.plan.of_type(LinkDegradeFault):
            # The network gates the window on its own clock; nothing to
            # schedule.  Registration errors (typo'd node) surface now.
            self.fabric.network.inject_link_fault(
                link.source,
                link.destination,
                start_s=link.start_s,
                end_s=link.end_s,
                extra_latency_s=link.extra_latency_s,
                drop_rate=link.drop_rate,
                duplicate_rate=link.duplicate_rate,
            )
            self._note(
                "link_degrade",
                at=link.start_s,
                source=link.source,
                destination=link.destination,
                publish=False,
            )

        for byz in self.plan.of_type(ByzantineFault):
            self.engine.schedule_at(
                byz.at_s,
                lambda fault=byz: self._tamper(fault),
                label=f"fault:byzantine:{byz.peer}",
            )
        return self

    # ------------------------------------------------- partition boundaries
    def _active_windows(self, at: float) -> List[Tuple[Tuple[str, ...], ...]]:
        """Group sets of every partition/churn fault active at ``at``."""
        active: List[Tuple[Tuple[str, ...], ...]] = []
        for fault in self.plan.of_type(PartitionFault, ChurnFault):
            if fault.start_s <= at < fault.end_s:
                if isinstance(fault, ChurnFault):
                    active.append(((fault.device,),))
                else:
                    active.append(fault.groups)
        return active

    def _apply_partition_state(self, at: float) -> None:
        partitions = self.fabric.network.partitions
        active = self._active_windows(at)
        if not active:
            if partitions.is_partitioned:
                partitions.heal()
                caught_up = self.fabric.catch_up_peers(at_time=self.engine.now)
                self._note("heal", at=at, caught_up=caught_up)
            return
        # Intersection semantics: a node's effective group is the tuple of
        # group ids it holds across every active window (implicit group -1
        # where unmentioned).  Nodes sharing the tuple can still talk.
        membership: Dict[str, List[int]] = {}
        for window_index, groups in enumerate(active):
            for group_index, group in enumerate(groups):
                for node in group:
                    slots = membership.setdefault(node, [-1] * len(active))
                    slots[window_index] = group_index
        merged: Dict[Tuple[int, ...], List[str]] = {}
        for node in sorted(membership):
            merged.setdefault(tuple(membership[node]), []).append(node)
        groups = [merged[key] for key in sorted(merged)]
        partitions.partition(groups)
        # A boundary can *shrink* the cut (partial heal): bring peers that
        # are reachable again up to date right away.
        caught_up = self.fabric.catch_up_peers(at_time=self.engine.now)
        self._note(
            "partition",
            at=at,
            groups=[list(group) for group in groups],
            caught_up=caught_up,
        )

    # --------------------------------------------------------- point faults
    def _crash(self, fault: PeerCrashFault) -> None:
        self.fabric.crash_peer(fault.peer)
        self._note("peer_crash", at=fault.start_s, peer=fault.peer)

    def _restart(self, fault: PeerCrashFault) -> None:
        self.fabric.restart_peer(fault.peer, at_time=self.engine.now)
        self._note("peer_restart", at=fault.end_s, peer=fault.peer)

    def _stall(self, fault: OrdererStallFault) -> None:
        self.fabric.shard(fault.shard).orderer.stall()
        self._note("orderer_stall", at=fault.start_s, shard=fault.shard)

    def _resume(self, fault: OrdererStallFault) -> None:
        self.fabric.shard(fault.shard).orderer.resume()
        self._note("orderer_resume", at=fault.end_s, shard=fault.shard)

    def _tamper(self, fault: ByzantineFault) -> None:
        peer = self.fabric.peer(fault.peer, shard=fault.shard)
        height = peer.block_store.height
        number = fault.block_number if fault.block_number >= 0 else height - 1
        if number < 0 or number >= height:
            self._note(
                "byzantine_skipped", at=fault.at_s, peer=fault.peer, block=number
            )
            return
        block = peer.block_store.block(number)
        if fault.tx_position >= len(block.transactions):
            self._note(
                "byzantine_skipped", at=fault.at_s, peer=fault.peer, block=number
            )
            return
        clone = peer.tamper(number, fault.tx_position)
        forged = self.rng.bytes(32).hex()
        if clone.args:
            clone.args[-1] = forged
        else:
            clone.args.append(forged)
        self._note(
            "byzantine_tamper",
            at=fault.at_s,
            peer=fault.peer,
            block=number,
            tx_position=fault.tx_position,
        )

    # ------------------------------------------------------------- plumbing
    def _note(self, kind: str, publish: bool = True, **details: Any) -> None:
        payload = {"kind": kind, **details}
        self.log.append(payload)
        if publish:
            self.fabric.events.publish(FAULT_INJECTED_TOPIC, payload)
