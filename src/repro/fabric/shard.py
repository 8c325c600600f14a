"""ChannelShard: one channel and the machinery that endorses, orders and commits on it.

In Fabric the channel is the unit of ledger, ordering and delivery, and
so is a shard here.  Its constructor builds the invoke pipeline every
transaction on the channel runs through (build-proposal →
collect-endorsements → endorsement batcher → submit-to-orderer →
await-commit, :mod:`repro.middleware.stages`) and registers the shard as
its ordering service's block consumer.  The shard fans a proposal out to
its endorsers, hands envelopes to its orderer, delivers every cut block
to the peers that can receive it and catches up the ones that missed
blocks.

What the shards share stays on the hosting
:class:`~repro.fabric.network.FabricNetwork`: the clients and their
pending handles, the crashed-peer set, the event bus and the tenant
placement table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.common.errors import EndorsementError
from repro.common.ids import IdGenerator
from repro.common.tenancy import TENANT_PREFIX, tenant_of_prefix
from repro.consensus.base import OrderingService
from repro.devices.model import DeviceModel
from repro.fabric.channel import Channel
from repro.fabric.peer import CommitResult, Peer, SharedCommit, SharedSimulation
from repro.fabric.proposal import Proposal, ProposalResponse, TransactionHandle
from repro.ledger.block import Block
from repro.ledger.transaction import Transaction, TxValidationCode
from repro.middleware.base import TransactionPipeline
from repro.middleware.batching import EndorsementBatcher
from repro.middleware.context import Context, OperationKind
from repro.middleware.stages import (
    AwaitCommitStage,
    BuildProposalStage,
    CollectEndorsementsStage,
    InvokeState,
    SubmitToOrdererStage,
)

if TYPE_CHECKING:  # the network imports this module
    from repro.fabric.network import FabricNetwork, _ClientContext


class ChannelShard:
    """One channel plus the endorsement, ordering and commit path dedicated to it."""

    def __init__(
        self,
        fabric: FabricNetwork,
        index: int,
        channel: Channel,
        orderer: OrderingService,
        orderer_node: str,
        orderer_device: DeviceModel,
        tx_ids: IdGenerator,
    ) -> None:
        self.fabric = fabric
        self.engine = fabric.engine
        self.network = fabric.network
        self.index = index
        self.channel = channel
        self.orderer = orderer
        self.orderer_node = orderer_node
        self.orderer_device = orderer_device
        #: Mints the shard's transaction ids: the network's shared ``tx-N``
        #: counter, or a namespace of the shard's own (fleet sites), so the
        #: shard mints the same ids whether it runs alone in a worker
        #: process or next to its siblings on one engine (tx-id length feeds
        #: proposal ``size_bytes``, so ids must match for virtual times to).
        self.tx_ids = tx_ids
        #: Per-channel peer replicas (same node names across shards: one
        #: peer process hosting one ledger per joined channel, as in Fabric).
        self.peers: Dict[str, Peer] = {}
        #: ``peers`` in name order (delivery and endorsement fan-out order),
        #: kept by ``FabricNetwork.add_peer``.
        self.ordered_peers: List[Peer] = []
        #: Every block the ordering service cut, in order: what a peer that
        #: missed deliveries catches up from.
        self.ordered_blocks: List[Block] = []
        #: Number of the first block whose chaincode events are still
        #: unpublished.  A block cut while no peer could receive it stays at
        #: or past this mark until the first peer catches up on it.
        self.events_pending_from = 0
        self._missed_deliveries = fabric.metrics.counter("missed_deliveries", shard=str(index))
        self._catch_up_blocks = fabric.metrics.counter("catch_up_blocks", shard=str(index))
        self.batcher = EndorsementBatcher(self, batch_size=fabric.order_batch_size)
        self.pipeline = TransactionPipeline(
            [
                BuildProposalStage(self),
                CollectEndorsementsStage(self),
                self.batcher,
                SubmitToOrdererStage(self),
                AwaitCommitStage(self),
            ],
            terminal=lambda ctx: ctx.tags["invoke"].handle,
        )
        orderer.register_consumer(self._on_block_ordered)

    # ----------------------------------------------------------- submission
    def make_handle(self, submitted_at: float, function: str) -> TransactionHandle:
        return TransactionHandle(
            tx_id=self.tx_ids.next(), submitted_at=submitted_at, function=function
        )

    def build_proposal(
        self,
        context: _ClientContext,
        handle: TransactionHandle,
        chaincode: str,
        function: str,
        args: List[str],
        payload_size_bytes: int,
    ) -> Proposal:
        unsigned = Proposal(
            tx_id=handle.tx_id,
            channel=self.channel.name,
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

    def invoke(
        self,
        context: _ClientContext,
        chaincode: str,
        function: str,
        args: List[str],
        handle: TransactionHandle,
        payload_size_bytes: int,
    ) -> None:
        """Run one invoke through the shard's staged pipeline."""
        ctx = Context(
            operation=function,
            kind=OperationKind.WRITE,
            chaincode=chaincode,
            function=function,
            args=list(args),
            payload_size_bytes=payload_size_bytes,
        )
        ctx.tags["invoke"] = InvokeState(client_context=context, handle=handle)
        self.pipeline.execute(ctx)

    def collect_endorsements(
        self, context: _ClientContext, proposal: Proposal, sent_at: float
    ) -> Tuple[List[ProposalResponse], float, int]:
        """Gather endorsements; also reports how many peers were reachable.

        ``reachable`` counts endorsing peers the client could transport to
        (online, same partition) regardless of whether they endorsed — the
        collect stage uses it to distinguish a policy failure (peers
        answered, none valid) from a pure transport failure (nobody was
        even reachable), which surfaces as a retryable network error.
        """
        network = self.network
        offline = self.fabric.offline_peers
        responses: List[ProposalResponse] = []
        completion_times: List[float] = []
        reachable = 0
        # Lives for this fan-out only: replicas whose reads agree adopt the
        # first endorser's chaincode run instead of repeating it.
        shared = SharedSimulation(proposal)
        for peer in self.ordered_peers:
            peer_name = peer.name
            if peer_name in offline:
                continue
            if not network.partitions.can_communicate(context.host_node, peer_name):
                continue
            reachable += 1
            to_peer = network.estimate_transfer_time(
                context.host_node, peer_name, proposal.size_bytes
            )
            try:
                response, ready_at = peer.endorse(proposal, sent_at + to_peer, shared)
            except EndorsementError:
                continue
            back = network.estimate_transfer_time(
                peer_name, context.host_node, response.size + 1024
            )
            responses.append(response)
            completion_times.append(ready_at + back)
        if not completion_times:
            return responses, sent_at, reachable
        return responses, max(completion_times), reachable

    def submit_to_orderer(self, transaction: Transaction, handle: TransactionHandle) -> None:
        handle.ordered_at = now = self.engine.now
        duration = self.orderer_device.serialization_time(transaction.size_bytes)
        self.orderer_device.charge_cpu(now, duration)
        self.orderer.submit(transaction)

    # ------------------------------------------------------------- delivery
    def receives(self, peer_name: str) -> bool:
        """Whether the peer is online and reachable from this shard's orderer."""
        return peer_name not in self.fabric.offline_peers and (
            self.network.partitions.can_communicate(self.orderer_node, peer_name)
        )

    def _on_block_ordered(self, block: Block) -> None:
        """Deliver a freshly cut block to the peers that can receive it.

        A crashed or partitioned-away peer misses the delivery and
        re-syncs through :meth:`catch_up`.  A peer that can receive it
        first catches up on what it missed before, so the block is
        recorded in :attr:`ordered_blocks` only after the fan-out.
        """
        self._place_tenants(block)
        duration = self.orderer_device.serialization_time(block.size_bytes)
        _, sent_at = self.orderer_device.charge_cpu(self.engine.now, duration)

        # Every transfer is drawn before any delivery, in peer order.
        arrivals: Dict[Peer, float] = {}
        for peer in self.ordered_peers:
            if self.receives(peer.name):
                arrivals[peer] = sent_at + self.network.estimate_transfer_time(
                    self.orderer_node, peer.name, block.size_bytes
                )
        missed = len(self.ordered_peers) - len(arrivals)
        if missed:
            self._missed_deliveries.inc(missed)

        commits: Dict[str, CommitResult] = {}
        # Lives for this fan-out only: replicas whose ledgers agree on what
        # validation reads adopt the first replica's commit of the block
        # instead of repeating it (a catch-up delivery never carries one).
        shared = SharedCommit(block)
        for peer, arrival in arrivals.items():
            self.catch_up(peer, arrival)
            commits[peer.name] = peer.deliver_block(block, arrival, shared)
        self.ordered_blocks.append(block)

        self._announce(block, commits)
        if commits:
            self._publish_chaincode_events(block, next(iter(commits.values())))
        self.fabric.complete_handles(block, commits)

    def _place_tenants(self, block: Block) -> None:
        """Record the tenant namespaces ``block``'s writes touch on this shard.

        Once per ordered block, invalid transactions included: the table
        only has to be a superset of where committed keys live.
        """
        table = self.fabric.tenant_placement
        for tx in block.transactions:
            for write in tx.rw_set.writes:
                if not write.key.startswith(TENANT_PREFIX):
                    continue
                tenant = tenant_of_prefix(write.key)
                placed = table.get(tenant, frozenset())
                if tenant and self.index not in placed:
                    table[tenant] = placed | {self.index}

    def catch_up(self, peer: Peer, at_time: float) -> bool:
        """Deliver every block ``peer`` missed, in order; whether it had missed any.

        Handles anchored on this peer complete as each missed block lands:
        a client whose anchor sat out a partition must see its commits
        resolve on heal, not whenever the next fresh block happens by.
        """
        behind = peer.ledger_height < len(self.ordered_blocks)
        while peer.ledger_height < len(self.ordered_blocks):
            missed = self.ordered_blocks[peer.ledger_height]
            transfer = self.network.estimate_transfer_time(
                self.orderer_node, peer.name, missed.size_bytes
            )
            result = peer.deliver_block(missed, at_time + transfer)
            self._catch_up_blocks.inc()
            commits = {peer.name: result}
            self._announce(missed, commits)
            if missed.number >= self.events_pending_from:
                self._publish_chaincode_events(missed, result)
            self.fabric.complete_handles(missed, commits)
        return behind

    def _publish_chaincode_events(self, block: Block, result: CommitResult) -> None:
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
                self.fabric.events.publish(
                    f"chaincode_event:{event_name}",
                    {
                        "tx_id": tx.tx_id,
                        "name": event_name,
                        "payload": event_payload,
                        "block_number": block.number,
                        "shard": self.index,
                    },
                )
        self.events_pending_from = block.number + 1

    def _announce(self, block: Block, commits: Dict[str, CommitResult]) -> None:
        """Tell the commit stream which peers just committed ``block``.

        The only ``block_delivered`` publish there is: once when the block
        is ordered (``commits`` holds every peer that received it) and once
        more per peer that commits it late through :meth:`catch_up`, so an
        observer following a lagging peer (a read cache) hears of the block
        when *that* peer's state changes.  Subscribers that must act once
        per block de-duplicate on ``(shard, block.number)``.
        """
        self.fabric.events.publish(
            "block_delivered",
            {"block": block, "commits": commits, "shard": self.index},
        )
