"""FabricNetwork: wires clients, peers and the ordering path into one system.

This is the orchestration layer the HyperProv client library talks to.  It
drives the full execute-order-validate pipeline over the simulated network
and the device models, producing per-transaction
:class:`~repro.fabric.proposal.TransactionHandle` objects with timestamped
phases so the benchmark harness can report throughput and response times.

The network is a true multi-channel host: each :class:`ChannelShard` owns
a channel, an ordering service (with its own block cutter and intake
scheduler), an endorsement batcher, an invoke pipeline and a per-channel
ledger on every joined peer; every shard's commits are announced on the
network's one event bus.  The paper's deployment is the single-shard case
(``shards=1``, reached like any other shard through ``shard(0)`` /
``shard_peers(0)``); sharded deployments route transactions across shards
via the :class:`~repro.middleware.sharding.ShardRouterMiddleware`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.common.errors import (
    ConfigurationError,
    EndorsementError,
    NetworkError,
    NotFoundError,
)
from repro.common.events import EventBus
from repro.common.ids import IdGenerator
from repro.common.metrics import MetricsRegistry
from repro.common.tenancy import TENANT_PREFIX, tenant_of_prefix
from repro.consensus.base import OrderingService
from repro.consensus.scheduler import make_scheduler
from repro.devices.model import DeviceModel
from repro.fabric.channel import Channel
from repro.fabric.peer import CommitResult, Peer, SharedCommit, SharedSimulation
from repro.fabric.proposal import Proposal, ProposalResponse, TransactionHandle
from repro.ledger.block import Block
from repro.ledger.transaction import Transaction, TxValidationCode
from repro.membership.identity import Identity
from repro.middleware.base import TransactionPipeline
from repro.middleware.batching import EndorsementBatcher
from repro.middleware.context import Context, OperationKind
from repro.middleware.stages import (
    CLIENT_OVERHEAD_S,
    AwaitCommitStage,
    BuildProposalStage,
    CollectEndorsementsStage,
    InvokeState,
    SubmitToOrdererStage,
)
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


@dataclass
class ChannelShard:
    """One channel plus the ordering/commit machinery dedicated to it."""

    index: int
    channel: Channel
    orderer: OrderingService
    orderer_node: str
    orderer_device: DeviceModel
    batcher: Optional[EndorsementBatcher] = None
    pipeline: Optional[TransactionPipeline] = None
    #: Per-channel peer replicas (same node names across shards — one peer
    #: process hosting one ledger per joined channel, as in Fabric).
    peers: Dict[str, Peer] = field(default_factory=dict)
    #: ``peers`` in name order — block delivery and endorsement fan-out
    #: order — kept by ``add_peer``.
    ordered_peers: List[Peer] = field(default_factory=list)
    #: Every block this shard's ordering service produced, in order.  Used
    #: to bring peers that missed deliveries (partitions) back up to date.
    ordered_blocks: List[Block] = field(default_factory=list)
    #: Number of the first block whose chaincode events are still
    #: unpublished.  A block cut while no peer could receive it stays at or
    #: past this mark until the first peer catches up on it.
    events_pending_from: int = 0
    #: Shard-private transaction-id namespace.  ``None`` uses the network's
    #: global ``tx-N`` counter; fleet shards get their own namespace so a
    #: shard mints the same ids whether it runs alone in a worker process
    #: or next to its siblings on one engine (tx-id length feeds proposal
    #: ``size_bytes``, so ids must match for virtual times to match).
    tx_ids: Optional[IdGenerator] = None


class FabricNetwork:
    """A complete simulated Fabric deployment hosting one or more channels."""

    def __init__(self, engine: SimulationEngine, network: NetworkFabric) -> None:
        self.engine = engine
        self.network = network
        #: Endorsed envelopes coalesced into one orderer submission (1 = off,
        #: reproducing the unbatched per-transaction transfer exactly).
        self.order_batch_size = 1
        self.metrics = MetricsRegistry("fabric")
        # Resolved once, like a peer's: these are touched per block or per
        # committed transaction, and a by-name look-up is measurable there.
        self._blocks_delivered = self.metrics.counter("blocks_delivered")
        self._txs_committed = self.metrics.counter("txs_committed")
        self._txs_invalidated = self.metrics.counter("txs_invalidated")
        self._tx_latency = self.metrics.histogram("tx_latency_s")
        #: The one commit stream: every shard's ``block_delivered`` and
        #: ``chaincode_event:{name}`` announcements (see :meth:`_announce`).
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
        self._offline_peers: Set[str] = set()
        #: tenant → every shard that has ordered a write under its
        #: namespace (see :meth:`tenant_shards`).
        self._tenant_shards: Dict[str, FrozenSet[int]] = {}

    # ------------------------------------------------------------- sharding
    def add_channel(
        self,
        channel: Channel,
        orderer: OrderingService,
        orderer_node: str,
        orderer_device: DeviceModel,
    ) -> int:
        """Host a channel ordered by ``orderer`` on ``orderer_node``; returns its shard index.

        Each shard gets its own ordering service (block cutter + intake
        scheduler), endorsement batcher and invoke pipeline, so shards
        order and commit independently of each other.  The orderer's node
        must already be registered on the network.
        """
        index = len(self._shards)
        shard = ChannelShard(
            index=index,
            channel=channel,
            orderer=orderer,
            orderer_node=orderer_node,
            orderer_device=orderer_device,
        )
        orderer.register_consumer(
            lambda block, shard_index=index: self._on_block_ordered(shard_index, block)
        )
        batcher = EndorsementBatcher(self, shard, batch_size=self.order_batch_size)
        shard.batcher = batcher
        #: The client→endorse→order→commit path as discrete pipeline stages.
        shard.pipeline = TransactionPipeline(
            [
                BuildProposalStage(self),
                CollectEndorsementsStage(self),
                batcher,
                SubmitToOrdererStage(self),
                AwaitCommitStage(self),
            ],
            terminal=lambda ctx: ctx.tags["invoke"].handle,
        )
        self._shards.append(shard)
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
        return self._tenant_shards.get(tenant, frozenset())

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
        if peer.name not in self.network.nodes:
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
        if host not in self.network.nodes:
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

    def shard_peers(self, index: int) -> List[Peer]:
        """One shard's peers in name order."""
        return list(self.shard(index).ordered_peers)

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

        The flow starts at ``at_time`` (defaults to "now"); the returned
        handle completes when the client's anchor peer commits the block
        containing the transaction.  Call ``engine.run_until_idle()`` (or
        the harness's drain helper) to make pending batches flush.
        """
        context = self.client_context(client_name)
        target = self.shard(shard)
        start = self.engine.now if at_time is None else at_time
        if at_time is not None and at_time > self.engine.now:
            handle = self._make_handle(start, function, target)
            self.engine.schedule_at(
                at_time,
                lambda: self._run_invoke(
                    context, chaincode, function, args, handle, payload_size_bytes, target
                ),
                label=f"submit:{handle.tx_id}",
            )
            return handle
        handle = self._make_handle(start, function, target)
        self._run_invoke(
            context, chaincode, function, args, handle, payload_size_bytes, target
        )
        return handle

    def _make_handle(
        self, submitted_at: float, function: str, shard: ChannelShard
    ) -> TransactionHandle:
        ids = shard.tx_ids if shard.tx_ids is not None else self._tx_ids
        return TransactionHandle(
            tx_id=ids.next(), submitted_at=submitted_at, function=function
        )

    def set_tx_namespace(self, shard: int, namespace: str) -> None:
        """Give one shard its own transaction-id namespace.

        Shard-disjoint deployments (the fleet topology) use this so each
        shard's id sequence is independent of its siblings' submission
        interleaving — a prerequisite for running the shard alone in a
        worker process and still minting byte-identical transactions.
        """
        self.shard(shard).tx_ids = IdGenerator(namespace)

    def register_pending(
        self, context: _ClientContext, handle: TransactionHandle
    ) -> None:
        """Record a handle awaiting its anchor-peer commit."""
        context.pending[handle.tx_id] = handle
        self._pending_index[handle.tx_id] = context

    def _build_proposal(
        self,
        context: _ClientContext,
        handle: TransactionHandle,
        chaincode: str,
        function: str,
        args: List[str],
        payload_size_bytes: int,
        channel_name: str,
    ) -> Proposal:
        unsigned = Proposal(
            tx_id=handle.tx_id,
            channel=channel_name,
            chaincode=chaincode,
            function=function,
            args=list(args),
            creator=context.identity.certificate,
            signature="",
            timestamp=self.engine.now,
            size_bytes=0,
        )
        # The signed bytes do not cover the signature/size fields, so the
        # proposal can be completed in place (no second construction, and
        # the cached serialization carries over).
        signed = unsigned.signed_bytes()
        unsigned.signature = context.identity.sign(signed)
        unsigned.size_bytes = len(signed) + 512 + payload_size_bytes
        return unsigned

    def _run_invoke(
        self,
        context: _ClientContext,
        chaincode: str,
        function: str,
        args: List[str],
        handle: TransactionHandle,
        payload_size_bytes: int,
        shard: ChannelShard,
    ) -> None:
        """Run one invoke through the shard's staged pipeline.

        The phases (build-proposal → collect-endorsements → submit-to-orderer
        → await-commit) live in :mod:`repro.middleware.stages`; this wrapper
        only assembles the pipeline context.
        """
        ctx = Context(
            operation=function,
            kind=OperationKind.WRITE,
            chaincode=chaincode,
            function=function,
            args=list(args),
            payload_size_bytes=payload_size_bytes,
        )
        ctx.tags["invoke"] = InvokeState(client_context=context, handle=handle, shard=shard)
        shard.pipeline.execute(ctx)

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
        peer per shard — each channel ledger is independent, exactly like
        CouchDB indexes in Fabric).  Existing committed state is reindexed
        on attach; an empty ``fields`` detaches the indexes again.  The
        rich-query planner picks them up automatically through the world
        state, so this is the only fabric-side switch the ``indexes``
        pipeline knob needs to flip.
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
        self._offline_peers.add(name)
        self.metrics.counter("peer_crashes").inc()

    def restart_peer(self, name: str, at_time: Optional[float] = None) -> None:
        """Bring a crashed peer back and re-sync its ledgers (state recovery).

        Every shard hosting the peer replays the blocks it missed, in
        order, completing any client handles whose anchor this peer is.
        """
        self.peer(name)
        self._offline_peers.discard(name)
        now = self.engine.now if at_time is None else at_time
        for shard in self._shards:
            peer = shard.peers.get(name)
            if peer is None:
                continue
            tip = len(shard.ordered_blocks)
            if peer.ledger_height < tip:
                self._catch_up_peer(shard, peer, now, up_to=tip)
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
        behind = 0
        for shard in self._shards:
            tip = len(shard.ordered_blocks)
            for name in sorted(shard.peers):
                if name in self._offline_peers:
                    continue
                if not self.network.partitions.can_communicate(
                    shard.orderer_node, name
                ):
                    continue
                peer = shard.peers[name]
                if peer.ledger_height < tip:
                    self._catch_up_peer(shard, peer, now, up_to=tip)
                    behind += 1
        return behind

    def _collect_endorsements(
        self,
        context: _ClientContext,
        proposal: Proposal,
        sent_at: float,
        shard: ChannelShard,
    ) -> Tuple[List[ProposalResponse], float, int]:
        """Gather endorsements; also reports how many peers were reachable.

        ``reachable`` counts endorsing peers the client could transport to
        (online, same partition) regardless of whether they endorsed — the
        collect stage uses it to distinguish a policy failure (peers
        answered, none valid) from a pure transport failure (nobody was
        even reachable), which surfaces as a retryable network error.
        """
        responses: List[ProposalResponse] = []
        completion_times: List[float] = []
        reachable = 0
        # Lives for this fan-out only: replicas whose reads agree adopt the
        # first endorser's chaincode run instead of repeating it.
        shared = SharedSimulation(proposal)
        for peer in shard.ordered_peers:
            peer_name = peer.name
            if peer_name in self._offline_peers:
                continue
            if not self.network.partitions.can_communicate(context.host_node, peer_name):
                continue
            reachable += 1
            to_peer = self.network.estimate_transfer_time(
                context.host_node, peer_name, proposal.size_bytes
            )
            try:
                response, ready_at = peer.endorse(proposal, sent_at + to_peer, shared)
            except EndorsementError:
                continue
            back = self.network.estimate_transfer_time(
                peer_name, context.host_node, response.size + 1024
            )
            responses.append(response)
            completion_times.append(ready_at + back)
        if not completion_times:
            return responses, sent_at, reachable
        return responses, max(completion_times), reachable

    def _submit_to_orderer(
        self,
        transaction: Transaction,
        handle: TransactionHandle,
        shard: ChannelShard,
    ) -> None:
        handle.ordered_at = self.engine.now
        duration = shard.orderer_device.serialization_time(transaction.size_bytes)
        shard.orderer_device.charge_cpu(self.engine.now, duration)
        shard.orderer.submit(transaction)

    # ------------------------------------------------------------- delivery
    def _on_block_ordered(self, shard_index: int, block: Block) -> None:
        """Deliver a freshly cut block to the shard's peers, complete handles."""
        shard = self._shards[shard_index]
        shard.ordered_blocks.append(block)
        self._place_tenants(shard_index, block)
        duration = shard.orderer_device.serialization_time(block.size_bytes)
        _, sent_at = shard.orderer_device.charge_cpu(self.engine.now, duration)

        shard_peers = shard.ordered_peers
        if self._offline_peers:
            # Crashed peer processes miss the delivery entirely; they
            # re-sync through _catch_up_peer on restart.
            offline = [p for p in shard_peers if p.name in self._offline_peers]
            for _ in offline:
                self.metrics.counter("missed_deliveries").inc()
            shard_peers = [p for p in shard_peers if p.name not in self._offline_peers]
        arrivals = {}
        for peer in shard_peers:
            if not self.network.partitions.can_communicate(
                shard.orderer_node, peer.name
            ):
                continue
            transfer = self.network.estimate_transfer_time(
                shard.orderer_node, peer.name, block.size_bytes
            )
            arrivals[peer.name] = sent_at + transfer

        commit_results = {}
        # Lives for this fan-out only: replicas whose ledgers agree on what
        # validation reads adopt the first replica's commit of the block
        # instead of repeating it (a catch-up delivery never carries one).
        shared = SharedCommit(block)
        for peer in shard_peers:
            if peer.name not in arrivals:
                # Peer is unreachable (partition): it misses this block and
                # will catch up from the orderer's delivery service once the
                # partition heals and the next block reaches it.
                self.metrics.counter("missed_deliveries").inc()
                continue
            self._catch_up_peer(shard, peer, arrivals[peer.name], up_to=block.number)
            commit_results[peer.name] = peer.deliver_block(
                block, arrivals[peer.name], shared
            )

        self._blocks_delivered.inc()
        self._announce(shard, block, commit_results)
        if commit_results:
            self._publish_chaincode_events(
                shard, block, next(iter(commit_results.values()))
            )
        self._complete_handles_indexed(block, commit_results)

    def _place_tenants(self, shard_index: int, block: Block) -> None:
        """Record the tenant namespaces ``block``'s writes touch on this shard.

        Once per ordered block, invalid transactions included: the table
        only has to be a superset of where committed keys live.
        """
        table = self._tenant_shards
        for tx in block.transactions:
            for write in tx.rw_set.writes:
                if not write.key.startswith(TENANT_PREFIX):
                    continue
                tenant = tenant_of_prefix(write.key)
                placed = table.get(tenant, frozenset())
                if tenant and shard_index not in placed:
                    table[tenant] = placed | {shard_index}

    def _publish_chaincode_events(
        self, shard: ChannelShard, block: Block, result: CommitResult
    ) -> None:
        """Publish the chaincode events ``block``'s valid transactions emitted
        (what the client library's event listeners receive).

        Once per block: by the first commit of it, whether that is the
        ordered delivery or — when no peer could receive the block as it
        was cut — the first peer to catch up on it (``result`` is that
        commit; its validation codes decide which transactions count).
        """
        for tx, code in zip(block.transactions, result.validation_codes):
            if code is TxValidationCode.VALID and tx.chaincode_event is not None:
                event_name, event_payload = tx.chaincode_event
                self.events.publish(
                    f"chaincode_event:{event_name}",
                    {
                        "tx_id": tx.tx_id,
                        "name": event_name,
                        "payload": event_payload,
                        "block_number": block.number,
                        "shard": shard.index,
                    },
                )
        shard.events_pending_from = block.number + 1

    def _announce(
        self, shard: ChannelShard, block: Block, commits: Dict[str, CommitResult]
    ) -> None:
        """Tell the commit stream which peers just committed ``block``.

        The only ``block_delivered`` publish there is: once when the block
        is ordered (``commits`` holds every peer that received it) and once
        more per peer that commits it late through :meth:`_catch_up_peer`,
        so an observer following a lagging peer (a read cache) hears of the
        block when *that* peer's state changes.  Subscribers that must act
        once per block de-duplicate on ``(shard, block.number)``.
        """
        self.events.publish(
            "block_delivered",
            {"block": block, "commits": commits, "shard": shard.index},
        )

    def _catch_up_peer(
        self, shard: ChannelShard, peer: Peer, at_time: float, up_to: int
    ) -> None:
        """Deliver any blocks the peer missed before ``up_to`` (in order).

        Handles anchored on this peer complete as each missed block lands:
        a client whose anchor sat out a partition must see its commits
        resolve on heal, not whenever the next fresh block happens by.
        """
        while peer.ledger_height < up_to:
            missed = shard.ordered_blocks[peer.ledger_height]
            transfer = self.network.estimate_transfer_time(
                shard.orderer_node, peer.name, missed.size_bytes
            )
            result = peer.deliver_block(missed, at_time + transfer)
            self.metrics.counter("catch_up_blocks").inc()
            commits = {peer.name: result}
            self._announce(shard, missed, commits)
            if missed.number >= shard.events_pending_from:
                self._publish_chaincode_events(shard, missed, result)
            self._complete_handles_indexed(missed, commits)

    def _complete_handles_indexed(
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
            self._finish_handle(context, handle, result, position)

    def _finish_handle(
        self,
        context: _ClientContext,
        handle: TransactionHandle,
        result: CommitResult,
        position: int,
    ) -> None:
        code = result.validation_codes[position]
        # Commit event reaches the client over the network.
        notify = self.network.estimate_transfer_time(
            context.anchor_peer, context.host_node, 512
        )
        handle.timings["commit_notify_s"] = notify
        handle.complete(
            result.committed_at + notify,
            code,
            block_number=result.block_number,
        )
        if code is TxValidationCode.VALID:
            self._txs_committed.inc()
        else:
            self._txs_invalidated.inc()
        self._tx_latency.observe(handle.latency_s)

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
        if target_name in self._offline_peers:
            raise NetworkError(f"peer {target_name!r} is down (crashed)")
        handle = self._make_handle(start, function, target)
        proposal = self._build_proposal(
            context, handle, chaincode, function, args, 0,
            channel_name=target.channel.name,
        )

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
