"""The endorsement fan-out simulates once — and only when that is safe.

A replica adopts the first endorser's chaincode run only if its own world
state holds an equal ``(version, value)`` under every key that run read,
and only for the same ``Proposal`` in the same fan-out.  These tests pin
the refusals: a replica that missed a block, a replica whose state was
edited, an invocation that looked at more than point reads, and a retried
submission.  (The equivalence of adopted and independent responses is the
property test in ``tests/property/test_endorsement_adoption.py``.)
"""

import pytest

from repro.chaincode.hyperprov import HyperProvChaincode
from repro.common.hashing import checksum_of
from repro.core.topology import build_desktop_deployment
from repro.fabric.peer import Peer, SharedSimulation
from repro.ledger.transaction import TxValidationCode

CLIENT = "hyperprov-client"

#: Every way a simulation can look at the ledger besides ``get_state``.
PEEKS = {
    "range": lambda stub: stub.get_state_by_range("", ""),
    "prefix": lambda stub: stub.get_state_by_prefix("item/", ()),
    "keys": lambda stub: stub.get_state_by_keys(["item/a"]),
    "lazy-prefix": lambda stub: stub.iter_state_by_prefix("item/", ()),
    "lazy-range": lambda stub: stub.iter_state_by_range("", ""),
    "key-history": lambda stub: stub.get_history_for_key("item/a"),
    "raw-world-state": lambda stub: stub.world_state,
    "raw-history": lambda stub: stub.history,
}


class PeekingChaincode(HyperProvChaincode):
    """HyperProv that counts its runs and offers ``set`` preceded by a peek."""

    def __init__(self) -> None:
        self.invocations = []

    def invoke(self, stub):
        self.invocations.append(stub.function)
        peek = PEEKS.get(stub.function)
        if peek is None:
            return super().invoke(stub)
        peek(stub)
        return self._set(stub)


@pytest.fixture
def deployment():
    """Desktop deployment running :class:`PeekingChaincode`, every
    endorsement recorded in ``deployment.endorsed`` as ``{tx_id: [response]}``."""
    built = build_desktop_deployment(seed=11)
    built.chaincode = PeekingChaincode()
    built.channel.chaincodes.get("hyperprov").chaincode = built.chaincode
    built.endorsed = {}

    def recording(peer):
        def endorse(proposal, at_time, shared=None):
            response, ready_at = Peer.endorse(peer, proposal, at_time, shared)
            built.endorsed.setdefault(proposal.tx_id, []).append(response)
            return response, ready_at
        return endorse

    for peer in built.peers:
        peer.endorse = recording(peer)
    return built


def set_args(key, content):
    return [key, checksum_of(content), f"ssh://storage/{key}"]


def submit(deployment, function, args):
    return deployment.fabric.submit_transaction(CLIENT, "hyperprov", function, args)


def rw_set_objects(deployment, handle):
    return {id(response.rw_set) for response in deployment.endorsed[handle.tx_id]}


# ------------------------------------------------------------------- adoption
def test_replicas_in_agreement_run_the_chaincode_once(deployment):
    create = submit(deployment, "set", set_args("item/a", b"v1"))
    deployment.drain()
    update = submit(deployment, "set", set_args("item/a", b"v2"))
    deployment.drain()
    assert create.is_valid and update.is_valid
    assert deployment.chaincode.invocations == ["set", "set"]
    for handle in (create, update):
        responses = deployment.endorsed[handle.tx_id]
        assert [r.peer for r in responses] == [p.name for p in deployment.peers]
        assert len(rw_set_objects(deployment, handle)) == 1
        # What stays per replica: its own signature over the shared digest.
        signatures = {r.endorsement.signature for r in responses}
        assert len(signatures) == len(responses)
        for response in responses:
            assert deployment.channel.msp.verify_signature(
                response.endorsement.certificate,
                response.rw_set.digest().encode("ascii"),
                response.endorsement.signature,
            )
    for peer in deployment.peers:
        assert peer.metrics.counter("endorsements").value == 2


@pytest.mark.parametrize("stale_index", [0, 3], ids=["first-endorser", "last-endorser"])
def test_replica_that_missed_a_block_does_not_adopt(deployment, stale_index):
    """Cut off from the orderer while a block lands, reachable again for the
    next proposal: the stale replica simulates against its own state, its
    rw-set carries its own old version, and the digest-agreement filter
    treats it exactly as it always has."""
    stale = deployment.peers[stale_index]
    current = [peer for peer in deployment.peers if peer is not stale]
    deployment.network.partitions.partition([[stale.name]])
    submit(deployment, "set", set_args("item/a", b"v1"))
    deployment.drain()
    deployment.network.partitions.heal()
    assert stale.ledger_height == current[0].ledger_height - 1
    deployment.chaincode.invocations.clear()

    update = submit(deployment, "set", set_args("item/a", b"v2"))
    responses = {r.peer: r for r in deployment.endorsed[update.tx_id]}
    deployment.drain()

    fresh_version = current[0].world_state.get_version("item/a")
    assert responses[stale.name].rw_set.reads[0].version is None
    for peer in current:
        assert responses[peer.name].rw_set.reads[0].version is not None
        assert responses[peer.name].rw_set is not responses[stale.name].rw_set
    transaction = stale.block_store.block(update.commit_block).transactions[0]
    endorsers = [endorsement.endorser for endorsement in transaction.endorsements]
    if stale_index == 0:
        # The stale replica answered first, so its digest is the reference
        # and nobody agrees with it: one endorsement, policy failure.  The
        # three current replicas could not adopt its run either.
        assert endorsers == [stale.name]
        assert update.validation_code is TxValidationCode.ENDORSEMENT_POLICY_FAILURE
        assert len(deployment.chaincode.invocations) == 4
    else:
        assert endorsers == [peer.name for peer in current]
        assert update.is_valid and fresh_version == (update.commit_block, 0)
        assert len({id(responses[peer.name].rw_set) for peer in current}) == 1
        assert len(deployment.chaincode.invocations) == 2


def test_replica_with_edited_state_does_not_adopt(deployment):
    """Same version, different value: the versions alone would agree."""
    submit(deployment, "set", set_args("item/a", b"v1"))
    deployment.drain()
    edited = deployment.peers[2]
    entry = edited.world_state.get("item/a")
    forged = entry.value.replace(checksum_of(b"v1"), checksum_of(b"forged"))
    edited.world_state.put("item/a", forged, entry.version)
    deployment.chaincode.invocations.clear()

    update = submit(deployment, "set", set_args("item/a", b"v2"))
    deployment.drain()

    responses = {r.peer: r for r in deployment.endorsed[update.tx_id]}
    honest = [peer for peer in deployment.peers if peer is not edited]
    assert len(deployment.chaincode.invocations) == 2
    assert len({id(responses[peer.name].rw_set) for peer in honest}) == 1
    assert checksum_of(b"forged") in responses[edited.name].payload
    assert checksum_of(b"forged") not in responses[honest[0].name].payload
    transaction = honest[0].block_store.block(update.commit_block).transactions[0]
    assert [e.endorser for e in transaction.endorsements] == [p.name for p in honest]
    assert update.is_valid


@pytest.mark.parametrize("function", sorted(PEEKS))
def test_simulation_that_looked_beyond_point_reads_is_never_shared(deployment, function):
    submit(deployment, "set", set_args("item/a", b"v1"))
    deployment.drain()
    deployment.chaincode.invocations.clear()

    handle = submit(deployment, function, set_args("item/b", b"v1"))
    deployment.drain()

    assert handle.is_valid
    assert deployment.chaincode.invocations == [function] * len(deployment.peers)
    assert len(rw_set_objects(deployment, handle)) == len(deployment.peers)


def test_retried_submission_never_sees_the_previous_attempt(deployment):
    """Same ``tx_id``, new ``Proposal``: a new fan-out, a new simulation."""
    fabric = deployment.fabric
    shard = fabric.shard(0)
    context = fabric.client_context(CLIENT)
    handle = shard.make_handle(0.0, "set")
    args = set_args("item/a", b"v1")

    first = shard.build_proposal(context, handle, "hyperprov", "set", args, 0)
    first_responses, _, _ = shard.collect_endorsements(context, first, 0.0)
    # Between the attempts another writer creates the key.
    submit(deployment, "set", set_args("item/a", b"other"))
    deployment.drain()
    retry = shard.build_proposal(context, handle, "hyperprov", "set", args, 0)
    retry_responses, _, _ = shard.collect_endorsements(
        context, retry, deployment.engine.now
    )

    assert retry.tx_id == first.tx_id and retry is not first
    assert deployment.chaincode.invocations == ["set"] * 3
    assert {r.rw_set.reads[0].version for r in first_responses} == {None}
    committed = deployment.peers[0].world_state.get_version("item/a")
    assert committed is not None
    assert {r.rw_set.reads[0].version for r in retry_responses} == {committed}
    assert "previous_checksum" in retry_responses[-1].payload
    assert str(retry.timestamp) in retry_responses[-1].payload


def test_simulation_of_another_proposal_is_ignored(deployment):
    """``Peer.endorse`` adopts only what was simulated for the proposal it
    is handed, whatever the caller passes."""
    fabric = deployment.fabric
    shard = fabric.shard(0)
    context = fabric.client_context(CLIENT)

    def proposal_for(key):
        return shard.build_proposal(
            context, shard.make_handle(0.0, "set"), "hyperprov", "set",
            set_args(key, b"v1"), 0,
        )

    one, other = proposal_for("item/a"), proposal_for("item/b")
    first, second = deployment.peers[:2]
    shared = SharedSimulation(one)
    first.endorse(one, 0.0, shared)
    assert shared.stub is not None
    response, _ = second.endorse(other, 0.0, shared)
    assert response.rw_set is not shared.stub.rw_set
    assert response.rw_set.writes[0].key == "item/b"
    assert deployment.chaincode.invocations == ["set", "set"]


# ----------------------------------------------------------------- satellites
def test_queries_are_not_counted_as_endorsements(deployment):
    submit(deployment, "set", set_args("item/a", b"v1"))
    deployment.drain()
    anchor = deployment.fabric.peer(deployment.fabric.client_context(CLIENT).anchor_peer)
    endorsements = anchor.metrics.counter("endorsements").value
    endorse_samples = anchor.metrics.histogram("endorse_time_s").count

    store = deployment.client.as_store()
    for _ in range(5):
        assert store.get("item/a").checksum == checksum_of(b"v1")

    assert anchor.metrics.counter("queries").value == 5
    assert anchor.metrics.histogram("query_time_s").count == 5
    assert anchor.metrics.counter("endorsements").value == endorsements == 1
    assert anchor.metrics.histogram("endorse_time_s").count == endorse_samples == 1


def test_reads_alone_leave_the_endorsement_counter_at_zero():
    deployment = build_desktop_deployment(seed=11)
    store = deployment.client.as_store()
    for _ in range(3):
        with pytest.raises(Exception, match="not found"):
            store.get("item/missing")
    anchor = deployment.fabric.peer(deployment.fabric.client_context(CLIENT).anchor_peer)
    assert anchor.metrics.counter("queries").value == 3
    assert anchor.metrics.counter("endorsements").value == 0
    assert anchor.metrics.histogram("endorse_time_s").count == 0
