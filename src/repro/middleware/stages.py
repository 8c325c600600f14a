"""The Fabric invoke flow as pipeline stages, one pipeline per channel shard.

Each phase of the client→endorse→order→commit path is its own
:class:`~repro.middleware.base.Middleware`, so a middleware (the
endorsement batcher) sits between phases without touching them:

    build-proposal → collect-endorsements → [batcher] → submit-to-orderer
    → await-commit

The stages communicate through an :class:`InvokeState` parked under
``ctx.tags["invoke"]``.  Each is built for one
:class:`~repro.fabric.shard.ChannelShard` and holds it: its channel,
orderer, peers, the simulation clock and the hosting network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.common.errors import PartitionError
from repro.fabric.proposal import Proposal, ProposalResponse, TransactionHandle
from repro.ledger.transaction import Transaction, TxValidationCode
from repro.middleware.base import Handler, Middleware, Result
from repro.middleware.context import Context

#: Fixed client-side latency per request (SDK/gRPC overhead), seconds.
CLIENT_OVERHEAD_S = 0.002


@dataclass
class InvokeState:
    """Mutable per-invocation state shared by the Fabric stages.

    The request itself (chaincode, function, args, payload size) lives on
    the stage pipeline's :class:`Context`.
    """

    client_context: Any  # fabric _ClientContext (duck-typed: no import cycle)
    handle: TransactionHandle
    start: float = 0.0
    proposal: Optional[Proposal] = None
    prep_done: float = 0.0
    responses: List[ProposalResponse] = field(default_factory=list)
    endorsement_done: float = 0.0
    transaction: Optional[Transaction] = None
    assembled_at: float = 0.0


class FabricStage(Middleware):
    """Base class binding a stage to the channel shard it runs on."""

    def __init__(self, shard: Any) -> None:
        #: The ChannelShard (duck-typed: the fabric package imports this one).
        self.shard = shard

    @staticmethod
    def state(ctx: Context) -> InvokeState:
        return ctx.tags["invoke"]


class BuildProposalStage(FabricStage):
    """Client-side preparation: build, marshal and sign the proposal."""

    name = "build-proposal"

    def handle(self, ctx: Context, call_next: Handler) -> Result:
        state = self.state(ctx)
        client = state.client_context
        state.start = max(state.handle.submitted_at, self.shard.engine.now)
        state.proposal = self.shard.build_proposal(
            client, state.handle, ctx.chaincode, ctx.function,
            ctx.args, ctx.payload_size_bytes,
        )
        prep = (
            client.device.sign_time()
            + client.device.serialization_time(state.proposal.size_bytes)
            + CLIENT_OVERHEAD_S
        )
        _, state.prep_done = client.device.charge_cpu(state.start, prep)
        return call_next(ctx)


class CollectEndorsementsStage(FabricStage):
    """Phase 1: endorse on every peer, verify agreement, assemble the envelope.

    Short-circuits the pipeline (never calls ``call_next``) when the
    endorsement policy cannot be satisfied, completing the handle with
    ``ENDORSEMENT_POLICY_FAILURE`` exactly as the monolithic path did.
    """

    name = "collect-endorsements"

    def handle(self, ctx: Context, call_next: Handler) -> Result:
        shard = self.shard
        state = self.state(ctx)
        client = state.client_context
        handle = state.handle

        responses, endorsement_done, reachable = shard.collect_endorsements(
            client, state.proposal, state.prep_done
        )
        state.responses = responses
        state.endorsement_done = endorsement_done
        handle.endorsed_at = endorsement_done
        handle.timings["endorsement_s"] = endorsement_done - state.start

        if not responses and reachable == 0:
            # Pure transport failure: every endorsing peer is partitioned
            # away or crashed, so no proposal was even attempted.  Raise a
            # retryable network error (never occurs on fault-free runs)
            # instead of completing the handle — retry/store-and-forward
            # middlewares upstream own the recovery decision.
            shard.fabric.metrics.counter("endorsement_unreachable").inc()
            raise PartitionError(
                f"no endorsing peers reachable from {client.host_node!r} "
                f"for tx {handle.tx_id}"
            )

        ok_responses = [r for r in responses if r.is_ok]
        if not ok_responses:
            handle.response_payload = None
            handle.complete(endorsement_done, TxValidationCode.ENDORSEMENT_POLICY_FAILURE)
            shard.fabric.metrics.counter("endorsement_failures").inc()
            return handle

        # Fabric requires all endorsements to agree on the read/write set.
        reference = ok_responses[0].rw_set.digest()
        consistent = [r for r in ok_responses if r.rw_set.digest() == reference]

        handle.response_payload = consistent[0].payload

        # Client verifies endorsements and assembles the envelope.
        assemble = client.device.verify_time(len(consistent)) + client.device.sign_time()
        _, state.assembled_at = client.device.charge_cpu(endorsement_done, assemble)

        state.transaction = Transaction(
            tx_id=handle.tx_id,
            channel=shard.channel.name,
            chaincode=ctx.chaincode,
            function=ctx.function,
            args=list(ctx.args),
            rw_set=consistent[0].rw_set,
            endorsements=[r.endorsement for r in consistent if r.endorsement],
            creator=client.identity.certificate,
            # The client's signature over the proposal bytes, made when the
            # proposal was built; signing is deterministic, so signing the
            # same bytes again (as ``sign_time()`` above is charged for)
            # would produce the same value.
            creator_signature=state.proposal.signature,
            timestamp=state.proposal.timestamp,
            response_payload=consistent[0].payload,
            chaincode_event=consistent[0].chaincode_event,
        )
        # Nothing may change once the envelope is submitted for ordering:
        # seal it so its canonical bytes/digest are computed once and then
        # shared by the cutter, the Merkle build and every validating peer.
        state.transaction.seal()
        return call_next(ctx)


class SubmitToOrdererStage(FabricStage):
    """Phase 2: ship the assembled envelope to the ordering service.

    Honours an ``order_arrival`` tag when the endorsement batcher upstream
    coalesced this envelope into a combined transfer; otherwise the
    envelope pays its own client→orderer transfer time.
    """

    name = "submit-to-orderer"

    def handle(self, ctx: Context, call_next: Handler) -> Result:
        shard = self.shard
        state = self.state(ctx)
        arrival = ctx.tags.get("order_arrival")
        if arrival is None:
            transfer = shard.network.estimate_transfer_time(
                state.client_context.host_node,
                shard.orderer_node,
                state.transaction.size_bytes,
            )
            arrival = state.assembled_at + transfer
        state.handle.timings["to_orderer_s"] = arrival - state.assembled_at
        shard.engine.schedule_at(
            arrival,
            lambda: shard.submit_to_orderer(state.transaction, state.handle),
            label=f"order:{state.handle.tx_id}",
        )
        return call_next(ctx)


class AwaitCommitStage(FabricStage):
    """Register the handle so the anchor peer's commit completes it.

    The commit itself is asynchronous (the orderer cuts a block, the peers
    validate and the network completes the block's pending handles through
    its tx-id index); this stage wires the handle into that path.
    """

    name = "await-commit"

    def handle(self, ctx: Context, call_next: Handler) -> Result:
        state = self.state(ctx)
        self.shard.fabric.register_pending(state.client_context, state.handle)
        return call_next(ctx)
