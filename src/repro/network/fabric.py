"""The network fabric connecting every simulated node.

The fabric owns the directed links between registered nodes, applies the
partition manager, charges transfer time to the virtual clock of the
discrete-event engine, and records per-node traffic statistics that the
energy model later converts into NIC activity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, NotFoundError, PartitionError
from repro.common.ids import IdGenerator
from repro.common.metrics import Counter, MetricsRegistry
from repro.network.link import Link, LinkProfile, GIGABIT_LAN
from repro.network.partitions import PartitionManager
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import DeterministicRandom


@dataclass
class Message:
    """A unit of communication between two nodes."""

    message_id: str
    source: str
    destination: str
    msg_type: str
    payload: Any
    size_bytes: int
    sent_at: float = 0.0
    delivered_at: float = 0.0
    metadata: Dict[str, Any] = field(default_factory=dict)


@dataclass
class DeliveryReceipt:
    """Returned by :meth:`NetworkFabric.send`; describes the delivery."""

    message: Message
    latency_s: float
    delivered: bool


MessageHandler = Callable[[Message], None]


@dataclass
class LinkFault:
    """Degrades one directed link inside a virtual-time window.

    ``drop_rate`` models a dropped frame recovered by one retransmission
    (the transfer is charged twice); ``duplicate_rate`` models a spurious
    retransmission (the sender's byte counter is charged twice but the
    receiver sees one logical delivery).  Both draw from the fault's own
    forked RNG stream so runs stay byte-reproducible regardless of what
    else consumes randomness.
    """

    source: str
    destination: str
    start_s: float
    end_s: float
    extra_latency_s: float = 0.0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    rng: Optional[DeterministicRandom] = field(default=None, repr=False)

    def active_at(self, now: float) -> bool:
        return self.start_s <= now < self.end_s


class NetworkFabric:
    """Registry of nodes and links plus synchronous/scheduled delivery."""

    def __init__(self, engine: SimulationEngine, rng: DeterministicRandom) -> None:
        self.engine = engine
        self._rng = rng
        self.metrics = MetricsRegistry(component="network")
        #: Each node's ``bytes`` series, resolved when it registers: a by-name
        #: look-up on every transfer is measurable.
        self._bytes: Dict[str, Counter] = {}
        self._message_latency = self.metrics.histogram("message.latency_s")
        self.partitions = PartitionManager()
        self._handlers: Dict[str, MessageHandler] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._node_profiles: Dict[str, LinkProfile] = {}
        self._ids = IdGenerator("msg")
        # Unknown-site partitions must raise, not no-op (chaos-plan typos).
        self.partitions.bind_known_nodes(lambda: self._handlers.keys())
        #: Scheduled link degradations; empty on fault-free runs so the
        #: transfer hot path never pays a per-message fault check.
        self._link_faults: List[LinkFault] = []

    # ------------------------------------------------------------------ nodes
    def register_node(
        self,
        name: str,
        handler: Optional[MessageHandler] = None,
        profile: Optional[LinkProfile] = None,
    ) -> None:
        """Add a node to the fabric with an optional inbound message handler."""
        self._handlers[name] = handler or (lambda message: None)
        self._node_profiles[name] = profile or GIGABIT_LAN
        self._bytes[name] = self.metrics.counter("bytes", node=name)

    def has_node(self, name: str) -> bool:
        """Whether ``name`` is registered: one dict look-up, whatever the node count."""
        return name in self._handlers

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Every registered node, sorted (sorts on each read: not for membership)."""
        return tuple(sorted(self._handlers))

    def bytes_sent_by(self, node: str) -> int:
        """Total bytes a node has put on the wire (used by the energy model)."""
        return int(self.metrics.get_counter("bytes", node=node))

    # ------------------------------------------------------------------ links
    def _link(self, source: str, destination: str) -> Link:
        key = (source, destination)
        link = self._links.get(key)
        if link is None:
            # The slower endpoint's profile dominates a LAN path.
            src_profile = self._node_profiles.get(source, GIGABIT_LAN)
            dst_profile = self._node_profiles.get(destination, GIGABIT_LAN)
            profile = min(
                (src_profile, dst_profile), key=lambda p: p.bandwidth_bps
            )
            link = self._links[key] = Link(
                source, destination, profile, rng=self._rng.fork(f"{source}->{destination}")
            )
        return link

    # ----------------------------------------------------------- link faults
    def inject_link_fault(
        self,
        source: str,
        destination: str,
        start_s: float,
        end_s: float,
        extra_latency_s: float = 0.0,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
    ) -> LinkFault:
        """Degrade one directed link inside ``[start_s, end_s)`` virtual time."""
        if source not in self._handlers:
            raise NotFoundError(f"source node {source!r} is not registered")
        if destination not in self._handlers:
            raise NotFoundError(f"destination node {destination!r} is not registered")
        if end_s < start_s:
            raise ConfigurationError(f"link fault window [{start_s}, {end_s}) is inverted")
        fault = LinkFault(
            source=source,
            destination=destination,
            start_s=start_s,
            end_s=end_s,
            extra_latency_s=extra_latency_s,
            drop_rate=drop_rate,
            duplicate_rate=duplicate_rate,
            rng=self._rng.fork(f"linkfault:{source}->{destination}:{start_s}"),
        )
        self._link_faults.append(fault)
        return fault

    def _apply_link_faults(
        self, source: str, destination: str, size_bytes: int, duration: float
    ) -> float:
        """Fold active fault windows into one transfer's duration.

        Only called when at least one fault is installed, so fault-free
        runs keep byte-identical virtual time (no extra RNG draws).
        """
        now = self.engine.now
        for fault in self._link_faults:
            if fault.source != source or fault.destination != destination:
                continue
            if not fault.active_at(now):
                continue
            duration += fault.extra_latency_s
            rng = fault.rng or self._rng
            if fault.drop_rate > 0.0 and rng.random() < fault.drop_rate:
                # Dropped frame, recovered by one retransmission: the bytes
                # cross the wire twice and the transfer takes twice as long.
                duration *= 2.0
                self._bytes[source].inc(size_bytes)
                self.metrics.counter("fault.frames", kind="dropped").inc()
            if fault.duplicate_rate > 0.0 and rng.random() < fault.duplicate_rate:
                # Spurious retransmission: extra bytes on the wire, but the
                # receiver dedupes so latency is unaffected.
                self._bytes[source].inc(size_bytes)
                self.metrics.counter("fault.frames", kind="duplicated").inc()
        return duration

    # --------------------------------------------------------------- delivery
    def _check_route(self, source: str, destination: str) -> None:
        if source not in self._handlers:
            raise NotFoundError(f"source node {source!r} is not registered")
        if destination not in self._handlers:
            raise NotFoundError(f"destination node {destination!r} is not registered")
        if not self.partitions.can_communicate(source, destination):
            raise PartitionError(
                f"{source!r} and {destination!r} are in different network partitions"
            )

    def estimate_transfer_time(self, source: str, destination: str, size_bytes: int) -> float:
        """Transfer time for moving ``size_bytes`` from ``source`` to ``destination``.

        Unlike :meth:`send`, no handler is invoked — the protocol layers use
        this when they already know where the payload logically lands (the
        endorsement/ordering/commit flow) — but the traffic is still charged
        to the sending node so per-node byte accounting stays meaningful.
        """
        self._check_route(source, destination)
        if source == destination:
            return 0.0
        duration = self._link(source, destination).transfer_time(size_bytes)
        if self._link_faults:
            duration = self._apply_link_faults(source, destination, size_bytes, duration)
        self._bytes[source].inc(size_bytes)
        return duration

    def send(
        self,
        source: str,
        destination: str,
        msg_type: str,
        payload: Any,
        size_bytes: int,
        deliver: bool = True,
    ) -> DeliveryReceipt:
        """Deliver a message synchronously, charging transfer time to the clock.

        Loopback messages (``source == destination``) are free, matching the
        co-located peer/client processes on each RPi in the paper's setup.
        """
        self._check_route(source, destination)
        message = Message(
            message_id=self._ids.next(),
            source=source,
            destination=destination,
            msg_type=msg_type,
            payload=payload,
            size_bytes=size_bytes,
            sent_at=self.engine.now,
        )
        if source == destination:
            latency = 0.0
        else:
            latency = self._link(source, destination).transfer_time(size_bytes)
            if self._link_faults:
                latency = self._apply_link_faults(source, destination, size_bytes, latency)
        self._bytes[source].inc(size_bytes)
        self._message_latency.observe(latency)
        message.delivered_at = message.sent_at + latency
        if deliver:
            handler = self._handlers[destination]
            handler(message)
        return DeliveryReceipt(message=message, latency_s=latency, delivered=deliver)

    def send_later(
        self,
        source: str,
        destination: str,
        msg_type: str,
        payload: Any,
        size_bytes: int,
    ) -> DeliveryReceipt:
        """Schedule delivery through the discrete-event engine.

        The receiving handler runs as a simulation event at the computed
        arrival time rather than inline, which is what the Raft layer uses
        so that message interleavings respect virtual time.
        """
        receipt = self.send(source, destination, msg_type, payload, size_bytes, deliver=False)
        handler = self._handlers[destination]
        self.engine.schedule_at(
            receipt.message.delivered_at,
            lambda message=receipt.message: handler(message),
            label=f"deliver:{msg_type}:{destination}",
        )
        return receipt
