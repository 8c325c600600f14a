"""FabricNetwork: the directory of a simulated Fabric deployment.

The HyperProv client library talks to this layer.  It hosts one
:class:`~repro.fabric.shard.ChannelShard` per channel, and each shard owns
its channel's endorsement fan-out, ordering service, block delivery and
catch-up (:mod:`repro.fabric.shard`).  What the shards share lives here:
the registered clients and their pending
:class:`~repro.fabric.proposal.TransactionHandle` objects (completed with
timestamped phases, so the benchmark harness can report throughput and
response times), the crashed-peer set, the one event bus every shard's
commits are announced on, and which shards hold which tenant's writes.

The paper's deployment is the single-shard case (``shards=1``, reached
like any other shard through ``shard(0)``); sharded deployments route
transactions across shards via the
:class:`~repro.middleware.sharding.ShardRouterMiddleware`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError, NetworkError, NotFoundError
from repro.common.events import EventBus
from repro.common.ids import IdGenerator
from repro.common.metrics import MetricsRegistry
from repro.consensus.base import OrderingService
from repro.consensus.scheduler import make_scheduler
from repro.devices.model import DeviceModel
from repro.fabric.channel import Channel
from repro.fabric.peer import CommitResult, Peer
from repro.fabric.proposal import ProposalResponse, TransactionHandle
from repro.fabric.shard import ChannelShard
from repro.ledger.block import Block
from repro.ledger.transaction import TxValidationCode
from repro.membership.identity import Identity
from repro.middleware.stages import CLIENT_OVERHEAD_S
from repro.network.fabric import NetworkFabric
from repro.simulation.engine import RunOutcome, SimulationEngine


@dataclass
class _ClientContext:
    """Book-keeping for one registered client application."""

    name: str
    identity: Identity
    device: DeviceModel
    host_node: str
    anchor_peer: str
    pending: Dict[str, TransactionHandle] = field(default_factory=dict)


class FabricNetwork:
    """A complete simulated Fabric deployment hosting one or more channels."""

    def __init__(self, engine: SimulationEngine, network: NetworkFabric) -> None:
        self.engine = engine
        self.network = network
        #: Endorsed envelopes coalesced into one orderer submission (1 = off,
        #: reproducing the unbatched per-transaction transfer exactly).
        self.order_batch_size = 1
        self.metrics = MetricsRegistry(component="fabric")
        # Resolved once, like a peer's: one is touched per committed
        # transaction, and a by-name look-up is measurable there.
        self._valid_latency = self.metrics.histogram("tx_latency_s", status="valid")
        self._invalid_latency = self.metrics.histogram("tx_latency_s", status="invalid")
        #: The one commit stream: every shard's ``block_delivered`` and
        #: ``chaincode_event:{name}`` announcements.
        self.events = EventBus()
        self._clients: Dict[str, _ClientContext] = {}
        self._tx_ids = IdGenerator("tx")
        self._shards: List[ChannelShard] = []
        #: tx-id → owning client context of every handle awaiting commit,
        #: so a block completes its handles with an O(block txs) lookup.
        self._pending_index: Dict[str, _ClientContext] = {}
        #: Peer processes currently crashed (fault injection): they endorse
        #: nothing, serve no queries and miss block deliveries until
        #: :meth:`restart_peer` brings them back and re-syncs their ledgers.
        self.offline_peers: Set[str] = set()
        #: tenant → every shard that has ordered a write under its
        #: namespace (kept by each shard, read by :meth:`tenant_shards`).
        self.tenant_placement: Dict[str, FrozenSet[int]] = {}

    # ------------------------------------------------------------- sharding
    def add_channel(
        self,
        channel: Channel,
        orderer: OrderingService,
        orderer_node: str,
        orderer_device: DeviceModel,
        tx_ids: Optional[IdGenerator] = None,
    ) -> int:
        """Host a channel ordered by ``orderer`` on ``orderer_node``; returns its shard index.

        Each shard gets its own ordering service (block cutter + intake
        scheduler), endorsement batcher and invoke pipeline, so shards
        order and commit independently of each other.  The orderer's node
        must already be registered on the network.  ``tx_ids`` gives the
        shard a transaction-id namespace of its own (the fleet's sites);
        without it the shard draws from the network's shared ``tx-N``.
        """
        index = len(self._shards)
        self._shards.append(ChannelShard(
            self, index, channel, orderer, orderer_node, orderer_device,
            tx_ids if tx_ids is not None else self._tx_ids,
        ))
        return index

    @property
    def shards(self) -> Tuple[ChannelShard, ...]:
        return tuple(self._shards)

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard(self, index: int) -> ChannelShard:
        if not 0 <= index < len(self._shards):
            raise NotFoundError(
                f"shard {index} does not exist (network has {len(self._shards)})"
            )
        return self._shards[index]

    def tenant_shards(self, tenant: str) -> FrozenSet[int]:
        """The shards that have ordered a write under ``tenant``'s namespace.

        A superset of where the namespace's committed keys live: a shard
        missing here holds none of them, so a read confined to the
        namespace need not ask it.
        """
        return self.tenant_placement.get(tenant, frozenset())

    # ------------------------------------------------------------- topology
    def add_peer(self, peer: Peer, shard: int = 0) -> None:
        """Register a peer node on one shard (joins the network fabric too)."""
        target = self.shard(shard)
        if peer.name in target.peers:
            raise ConfigurationError(
                f"peer {peer.name!r} is already part of shard {shard}"
            )
        target.peers[peer.name] = peer
        target.ordered_peers = [target.peers[name] for name in sorted(target.peers)]
        if not self.network.has_node(peer.name):
            self.network.register_node(peer.name, profile=peer.device.profile.nic)

    def add_client(
        self,
        name: str,
        identity: Identity,
        device: DeviceModel,
        host_node: Optional[str] = None,
        anchor_peer: Optional[str] = None,
    ) -> None:
        """Register a client application.

        ``host_node`` is the network node the client runs on (on the RPi
        testbed the client shares the device with a peer).  ``anchor_peer``
        is the peer whose commit completes the client's transactions (the
        same node name on every shard the client submits to).
        """
        if not self._shards or not self._shards[0].peers:
            raise ConfigurationError("add a channel and its peers before registering clients")
        host = host_node or name
        if not self.network.has_node(host):
            self.network.register_node(host, profile=device.profile.nic)
        anchor = anchor_peer or self._shards[0].ordered_peers[0].name
        if not any(anchor in shard.peers for shard in self._shards):
            raise NotFoundError(f"anchor peer {anchor!r} is not part of the network")
        self._clients[name] = _ClientContext(
            name=name,
            identity=identity,
            device=device,
            host_node=host,
            anchor_peer=anchor,
        )

    def peer(self, name: str, shard: Optional[int] = None) -> Peer:
        if shard is not None:
            peer = self.shard(shard).peers.get(name)
            if peer is None:
                raise NotFoundError(f"unknown peer {name!r} on shard {shard}")
            return peer
        for candidate in self._shards:
            peer = candidate.peers.get(name)
            if peer is not None:
                return peer
        raise NotFoundError(f"unknown peer {name!r}")

    def client_context(self, name: str) -> _ClientContext:
        context = self._clients.get(name)
        if context is None:
            raise NotFoundError(f"unknown client {name!r}")
        return context

    # ----------------------------------------------------------- submission
    def submit_transaction(
        self,
        client_name: str,
        chaincode: str,
        function: str,
        args: List[str],
        at_time: Optional[float] = None,
        payload_size_bytes: int = 0,
        shard: int = 0,
    ) -> TransactionHandle:
        """Run the full invoke flow for one transaction on one shard.

        The flow starts at ``at_time`` (defaults to "now"; a later time is
        scheduled); the returned handle completes when the client's anchor
        peer commits the block containing the transaction.  Call
        ``engine.run_until_idle()`` (or the harness's drain helper) to make
        pending batches flush.
        """
        context = self.client_context(client_name)
        target = self.shard(shard)
        start = self.engine.now if at_time is None else at_time
        handle = target.make_handle(start, function)
        if start > self.engine.now:
            self.engine.schedule_at(
                start,
                lambda: target.invoke(
                    context, chaincode, function, args, handle, payload_size_bytes
                ),
                label=f"submit:{handle.tx_id}",
            )
        else:
            target.invoke(context, chaincode, function, args, handle, payload_size_bytes)
        return handle

    def register_pending(
        self, context: _ClientContext, handle: TransactionHandle
    ) -> None:
        """Record a handle awaiting its anchor-peer commit."""
        context.pending[handle.tx_id] = handle
        self._pending_index[handle.tx_id] = context

    def set_order_batch_size(self, batch_size: int) -> None:
        """Reconfigure every shard's endorsement batcher (flushes queues)."""
        if batch_size < 1:
            raise ConfigurationError("order batch size must be at least 1")
        self.order_batch_size = batch_size
        for shard in self._shards:
            shard.batcher.flush()
            shard.batcher.batch_size = batch_size

    def enable_secondary_indexes(self, fields: Tuple[str, ...]) -> None:
        """Attach field-value secondary indexes to every peer's world state.

        One :class:`~repro.query.indexes.FieldValueIndex` per ledger (per
        peer per shard, like CouchDB indexes in Fabric), built over the
        committed state; an empty ``fields`` detaches them.  The rich-query
        planner finds them through the world state.
        """
        from repro.query.indexes import FieldValueIndex, validate_index_fields

        normalized = validate_index_fields(fields) if fields else ()
        for shard in self._shards:
            for peer in shard.peers.values():
                peer.world_state.attach_secondary_index(
                    FieldValueIndex(normalized) if normalized else None
                )

    def set_scheduler(self, name: str) -> None:
        """Swap the intake scheduler on every shard's ordering service.

        Each shard gets its own scheduler instance (per-shard tenant
        queues); any queued backlog is carried over into the new
        scheduler.
        """
        for shard in self._shards:
            shard.orderer.set_scheduler(make_scheduler(name))

    # ------------------------------------------------------ fault injection
    def crash_peer(self, name: str) -> None:
        """Take a peer process offline (all shards hosting it).

        A crashed peer endorses nothing, answers no queries and misses
        every block delivery; its ledgers survive on disk, so
        :meth:`restart_peer` recovers by replaying the missed blocks.
        """
        self.peer(name)  # validates the name
        self.offline_peers.add(name)
        self.metrics.counter("peer_crashes").inc()

    def restart_peer(self, name: str, at_time: Optional[float] = None) -> None:
        """Bring a crashed peer back and re-sync its ledgers (state recovery).

        Every shard hosting the peer replays the blocks it missed, in
        order, completing any client handles whose anchor this peer is.
        """
        self.peer(name)
        self.offline_peers.discard(name)
        now = self.engine.now if at_time is None else at_time
        for shard in self._shards:
            peer = shard.peers.get(name)
            if peer is not None:
                shard.catch_up(peer, now)
        self.metrics.counter("peer_restarts").inc()

    def catch_up_peers(self, at_time: Optional[float] = None) -> int:
        """Re-sync every reachable, online peer to its shard's chain tip.

        Called by the fault injector right after a partition heals: without
        it a previously isolated peer only catches up when the *next* block
        happens to be ordered, which may never come — leaving its clients'
        handles pending and the drain reporting a false ``"deadlock"``.
        Returns the number of peer-ledgers that were behind.
        """
        now = self.engine.now if at_time is None else at_time
        return sum(
            shard.catch_up(peer, now)
            for shard in self._shards
            for peer in shard.ordered_peers
            if shard.receives(peer.name)
        )

    # ----------------------------------------------------------- completion
    def complete_handles(
        self, block: Block, commit_results: Dict[str, CommitResult]
    ) -> None:
        """Complete the handles of every client whose anchor peer committed.

        Looked up through the tx-id index, in block-tx order (the order
        the anchor→host commit-notify transfers draw from each link).
        """
        for position, tx in enumerate(block.transactions):
            context = self._pending_index.get(tx.tx_id)
            if context is None:
                continue
            result = commit_results.get(context.anchor_peer)
            if result is None:
                # Anchor peer missed this delivery (partition); the handle
                # stays pending until the peer catches up.
                continue
            del self._pending_index[tx.tx_id]
            handle = context.pending.pop(tx.tx_id)
            code = result.validation_codes[position]
            # Commit event reaches the client over the network.
            notify = self.network.estimate_transfer_time(
                context.anchor_peer, context.host_node, 512
            )
            handle.timings["commit_notify_s"] = notify
            handle.complete(
                result.committed_at + notify, code, block_number=result.block_number
            )
            if code is TxValidationCode.VALID:
                self._valid_latency.observe(handle.latency_s)
            else:
                self._invalid_latency.observe(handle.latency_s)

    # ---------------------------------------------------------------- query
    def query(
        self,
        client_name: str,
        chaincode: str,
        function: str,
        args: List[str],
        at_time: Optional[float] = None,
        shard: int = 0,
    ) -> Tuple[ProposalResponse, float]:
        """Evaluate a read-only chaincode function on the client's anchor peer.

        Returns the response and the end-to-end latency in seconds.
        """
        context = self.client_context(client_name)
        target = self.shard(shard)
        start = self.engine.now if at_time is None else at_time
        target_name = context.anchor_peer
        peer = target.peers.get(target_name)
        if peer is None:
            raise NotFoundError(f"unknown peer {target_name!r} on shard {shard}")
        if target_name in self.offline_peers:
            raise NetworkError(f"peer {target_name!r} is down (crashed)")
        handle = target.make_handle(start, function)
        proposal = target.build_proposal(context, handle, chaincode, function, args, 0)

        prep = context.device.sign_time() + CLIENT_OVERHEAD_S
        _, prep_done = context.device.charge_cpu(start, prep)
        to_peer = self.network.estimate_transfer_time(
            context.host_node, target_name, proposal.size_bytes
        )
        response, ready_at = peer.query(proposal, prep_done + to_peer)
        back = self.network.estimate_transfer_time(
            target_name, context.host_node, response.size + 1024
        )
        return response, (ready_at + back) - start

    # -------------------------------------------------------------- helpers
    def flush_and_drain(self, max_events: int = 1_000_000) -> RunOutcome:
        """Force pending batches out and run the simulation until idle.

        Commit callbacks may submit new transactions (closed-loop
        benchmarks), which re-queue envelopes in the endorsement batchers —
        so keep alternating flush/run rounds until every shard's batcher
        and orderer are empty and the engine stays idle.

        Returns a :class:`~repro.simulation.engine.RunOutcome`: stop reason
        ``"idle"`` when every registered handle resolved, ``"deadlock"``
        when the engine has nothing left to do but handles are still
        in flight — a partition that never healed, a crashed anchor peer,
        or a stalled orderer holding its backlog.  Chaos scenarios assert
        on this instead of hanging.
        """
        executed = int(self.engine.run_until_idle(max_events=max_events))
        while True:
            flushed = sum(shard.batcher.flush() for shard in self._shards)
            if flushed:
                executed += int(self.engine.run_until_idle(max_events=max_events))
                continue
            for shard in self._shards:
                shard.orderer.flush()
            executed += int(self.engine.run_until_idle(max_events=max_events))
            if not any(shard.batcher.queued for shard in self._shards):
                break
        reason = "deadlock" if self.in_flight() > 0 else "idle"
        return RunOutcome(executed, reason)

    def ledger_heights(self) -> Dict[str, int]:
        """Per-peer block height summed across every hosted channel.

        With a single shard this is exactly the per-peer chain height (and
        should agree across peers once drained); with several shards it is
        the peer's total committed blocks over all its channel ledgers.
        """
        heights: Dict[str, int] = {}
        for shard in self._shards:
            for name, peer in shard.peers.items():
                heights[name] = heights.get(name, 0) + peer.ledger_height
        return heights

    def shard_ledger_heights(self, index: int) -> Dict[str, int]:
        """Block height of every peer on one shard."""
        return {
            name: peer.ledger_height for name, peer in self.shard(index).peers.items()
        }

    def in_flight(self) -> int:
        """Handles awaiting their anchor-peer commit, every client's.

        Counts transactions that reached the await-commit stage on any
        shard; envelopes still queued in an endorsement batcher or
        scheduled for a future virtual time are not yet registered here
        (the session facade's ``in_flight`` tracks the full
        submission-to-commit window).
        """
        return sum(len(context.pending) for context in self._clients.values())
