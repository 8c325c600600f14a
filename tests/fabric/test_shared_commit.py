"""The delivery fan-out commits once — and only where that is safe.

A replica adopts the first replica's commit of a block only if its own
ledger agrees on everything validation reads (height and tip, which of the
block's tx ids it already holds, the pre-block version of every key the
block reads), and only for the same ``Block`` object on the same
``Channel``.  These tests pin the refusals, what stays per replica, and
that a block a replica refuses leaves it untouched.  (The equivalence of
adopted and independent commits is the property test in
``tests/property/test_commit_adoption.py``.)
"""

import hashlib
import json

import pytest

from repro.common.errors import SealedEnvelopeError, ValidationError
from repro.common.hashing import checksum_of
from repro.core.topology import build_desktop_deployment
from repro.crypto.keys import sign
from repro.fabric.peer import Peer, SharedCommit
from repro.fabric.proposal import Proposal
from repro.ledger.block import Block, BlockHeader
from repro.ledger.transaction import ReadSetEntry, Transaction, TxValidationCode
from repro.query.planner import PATH_INDEX
from tests.internals import organization

CLIENT = "hyperprov-client"


def watch(built):
    """Record every delivery as ``(peer, block number, adopted, result)`` in
    ``built.deliveries`` and every fan-out's plan in ``built.plans``."""
    built.deliveries = []
    built.plans = []

    def recording(peer):
        def deliver_block(block, at_time, shared=None):
            adopted = shared is not None and shared.holds_for(block, peer)
            result = Peer.deliver_block(peer, block, at_time, shared)
            built.deliveries.append((peer.name, block.number, adopted, result))
            if shared is not None and shared not in built.plans:
                built.plans.append(shared)
            return result
        return deliver_block

    for peer in built.peers:
        peer.deliver_block = recording(peer)
    return built


@pytest.fixture
def deployment():
    return watch(build_desktop_deployment(seed=11))


def set_args(key, content, dependencies=(), metadata=None):
    return [
        key, checksum_of(content), f"ssh://storage/{key}",
        json.dumps(list(dependencies)), json.dumps(metadata or {}),
    ]


def submit(deployment, key, content, dependencies=(), metadata=None):
    args = set_args(key, content, dependencies, metadata)
    return deployment.fabric.submit_transaction(CLIENT, "hyperprov", "set", args)


def endorsed_transaction(deployment, key, content, tx_id="tx-endorsed"):
    """The sealed envelope the client would order for ``set(key)``: its own
    signed proposal and every peer's endorsement of it.  Nothing has
    ordered or committed it."""
    identity = deployment.fabric.client_context(CLIENT).identity
    proposal = Proposal(
        tx_id=tx_id, channel=deployment.channel.name, chaincode="hyperprov",
        function="set", args=set_args(key, content), creator=identity.certificate,
        signature="", timestamp=1.0,
    )
    proposal.signature = identity.sign(proposal.signed_bytes())
    responses = [peer.endorse(proposal, 1.0)[0] for peer in deployment.peers]
    return Transaction(
        tx_id=tx_id, channel=proposal.channel, chaincode=proposal.chaincode,
        function=proposal.function, args=list(proposal.args), rw_set=responses[0].rw_set,
        endorsements=[response.endorsement for response in responses],
        creator=identity.certificate, creator_signature=proposal.signature,
        timestamp=proposal.timestamp,
    ).seal()


def holders(peers, key):
    """How many distinct entry objects ``peers`` hold for ``key`` between them."""
    return len({id(peer.world_state.get(key)) for peer in peers})


def adopted_by(deployment, block_number):
    return {
        name: adopted
        for name, number, adopted, _ in deployment.deliveries if number == block_number
    }


def ledger_fingerprint(peer):
    """By-value view of everything a commit may write on one replica."""
    return (
        peer.ledger_height,
        [(entry.key, entry.value, entry.version)
         for entry in peer.world_state.range_query_versioned("", "")],
        peer.world_state.writes_applied,
        {key: peer.history.history_for_key(key) for key in peer.history.keys()},
        peer.history.total_entries,
        sum(peer.block_store.block(n).tx_count for n in range(peer.block_store.height)),
    )


def forged_transaction(peer, tx_id="tx-forged"):
    """An unsealed copy of the peer's latest transaction under a fresh id,
    its read versions and endorsement digests re-pointed at current state.
    Every endorser signed the old digest, so no endorsement verifies and a
    validating replica refuses it with ``ENDORSEMENT_POLICY_FAILURE``."""
    forged = peer.block_store.block(peer.block_store.height - 1).transactions[-1].tamper()
    forged.tx_id = tx_id
    forged.rw_set.reads = [
        ReadSetEntry(read.key, peer.world_state.get_version(read.key))
        for read in forged.rw_set.reads
    ]
    for endorsement in forged.endorsements:
        endorsement.response_digest = forged.rw_set.digest()
    return forged


def next_block(peer, transactions):
    return Block.build(
        number=peer.ledger_height,
        previous_hash=peer.block_store.latest_hash,
        transactions=transactions,
        timestamp=1.0,
    )


# ------------------------------------------------------------------- adoption
def test_replicas_in_agreement_validate_once(deployment):
    create = submit(deployment, "item/a", b"v1")
    deployment.drain()
    update = submit(deployment, "item/a", b"v2")
    deployment.drain()
    assert create.is_valid and update.is_valid
    first, *rest = [peer.name for peer in deployment.peers]
    for number in (0, 1):
        assert adopted_by(deployment, number) == {first: False, **{name: True for name in rest}}
    assert holders(deployment.peers, "item/a") == 1
    histories = [peer.history.history_for_key("item/a") for peer in deployment.peers]
    assert all(len(history) == 2 for history in histories)
    for position in range(2):
        assert len({id(history[position]) for history in histories}) == 1

    # What stays per replica: its own Block and flag list, its own timing on
    # its own device, its own counters.
    blocks = [peer.block_store.block(1) for peer in deployment.peers]
    assert len({id(block) for block in blocks}) == len(blocks)
    assert len({id(block.validation_flags) for block in blocks}) == len(blocks)
    results = [result for _, number, _, result in deployment.deliveries if number == 1]
    assert len({result.committed_at for result in results}) == len(results)
    for peer in deployment.peers:
        assert peer.metrics.counter("blocks_committed").value == 2
        assert peer.metrics.counter("txs_valid").value == 2
        assert peer.metrics.histogram("commit_time_s").count == 2
        assert peer.committed(update.tx_id)
        assert peer.block_store.verify_chain()


@pytest.mark.parametrize("stale_index", [0, 3], ids=["first-in-order", "last-in-order"])
@pytest.mark.parametrize("outage", ["partition", "crash"])
def test_replica_that_missed_a_block_validates_it_for_itself(deployment, outage, stale_index):
    """Catch-up deliveries never carry a plan: the replica builds its own
    entries for the block it missed, equal by value to everyone else's, and
    is back in the fan-out — adopting or offering — for the next block."""
    stale = deployment.peers[stale_index]
    current = [peer for peer in deployment.peers if peer is not stale]
    if outage == "partition":
        deployment.network.partitions.partition([[stale.name]])
    else:
        deployment.fabric.crash_peer(stale.name)
    submit(deployment, "item/a", b"v1")
    deployment.fabric.flush_and_drain()
    assert stale.ledger_height == current[0].ledger_height - 1
    if outage == "partition":
        deployment.network.partitions.heal()
    else:
        deployment.fabric.restart_peer(stale.name)

    follow_up = submit(deployment, "item/b", b"v1")
    deployment.drain()

    assert follow_up.is_valid
    assert adopted_by(deployment, 0)[stale.name] is False
    assert holders(current, "item/a") == 1
    assert holders(deployment.peers, "item/a") == 2
    assert stale.world_state.get("item/a") == current[0].world_state.get("item/a")
    assert stale.history.history_for_key("item/a") == current[0].history.history_for_key("item/a")
    assert adopted_by(deployment, 1)[stale.name] is (stale_index != 0)
    assert holders(deployment.peers, "item/b") == 1
    fingerprints = {repr(ledger_fingerprint(peer)) for peer in deployment.peers}
    assert len(fingerprints) == 1
    assert all(peer.block_store.verify_chain() for peer in deployment.peers)


def test_replica_on_another_version_reports_its_own_conflict(deployment):
    submit(deployment, "item/a", b"v1")
    deployment.drain()
    edited = deployment.peers[1]
    honest = [peer for peer in deployment.peers if peer is not edited]
    entry = edited.world_state.get("item/a")
    edited.world_state.put("item/a", entry.value, (0, 7))

    update = submit(deployment, "item/a", b"v2")
    deployment.drain()

    assert update.is_valid
    assert adopted_by(deployment, 1) == {
        deployment.peers[0].name: False, edited.name: False,
        deployment.peers[2].name: True, deployment.peers[3].name: True,
    }
    codes = {name: result.validation_codes for name, number, _, result in deployment.deliveries
             if number == 1}
    assert codes[edited.name] == [TxValidationCode.MVCC_READ_CONFLICT]
    assert all(codes[peer.name] == [TxValidationCode.VALID] for peer in honest)
    assert edited.world_state.get_version("item/a") == (0, 7)
    assert len(edited.history.history_for_key("item/a")) == 1
    assert not edited.committed(update.tx_id)
    assert holders(honest, "item/a") == 1
    assert all(peer.world_state.get_version("item/a") == (1, 0) for peer in honest)


def test_replica_that_already_holds_the_tx_id_reports_a_duplicate_alone(deployment):
    handle = submit(deployment, "item/a", b"v1")
    holder = deployment.peers[2]
    others = [peer for peer in deployment.peers if peer is not holder]
    holder._committed_tx_ids.add(handle.tx_id)
    deployment.drain()

    assert adopted_by(deployment, 0)[holder.name] is False
    codes = {name: result.validation_codes for name, _, _, result in deployment.deliveries}
    assert codes[holder.name] == [TxValidationCode.DUPLICATE_TXID]
    assert all(codes[peer.name] == [TxValidationCode.VALID] for peer in others)
    assert holder.world_state.get("item/a") is None and holder.history.total_entries == 0
    assert holders(others, "item/a") == 1
    assert holder.ledger_height == 1


def test_plan_is_honoured_for_its_own_block_object_only(deployment):
    """Two replicas sit out a block; handed the fan-out's plan afterwards,
    one gets the very ``Block`` it was made for and adopts, the other an
    equal copy of that block and validates for itself."""
    submit(deployment, "item/a", b"v1")
    adopter, refuser = deployment.peers[2:]
    for peer in (adopter, refuser):
        deployment.fabric.crash_peer(peer.name)
    deployment.fabric.flush_and_drain()
    (plan,) = deployment.plans
    block = plan.block
    copy = Block(header=block.header, transactions=block.transactions, orderer=block.orderer)
    assert copy == block and copy is not block

    adopter.deliver_block(block, 1.0, plan)
    refuser.deliver_block(copy, 1.0, plan)

    assert [adopted for _, _, adopted, _ in deployment.deliveries[-2:]] == [True, False]
    validator = deployment.peers[0]
    assert adopter.world_state.get("item/a") is validator.world_state.get("item/a")
    assert refuser.world_state.get("item/a") is not validator.world_state.get("item/a")
    assert refuser.world_state.get("item/a") == validator.world_state.get("item/a")
    # A filled plan is never refilled by a replica that could not adopt it.
    assert plan.applied[0][1] is validator.world_state.get("item/a")


@pytest.mark.parametrize("difference", ["height", "tip"])
def test_replica_on_another_height_or_tip_does_not_adopt(deployment, difference):
    """Handed the plan of a block that does not extend its own chain, a
    replica neither adopts nor commits; its own number and link checks are
    what refuse the block."""
    submit(deployment, "item/a", b"v1")
    outsider = deployment.peers[3]
    deployment.fabric.crash_peer(outsider.name)
    deployment.fabric.flush_and_drain()
    submit(deployment, "item/b", b"v1")
    deployment.fabric.flush_and_drain()
    store = deployment.peers[0].block_store
    first, second = (store.block(n) for n in range(store.height))
    plan = deployment.plans[-1]
    assert plan.block.number == 1 and plan.channel is outsider.channel
    if difference == "tip":
        # Same transactions, same state, same height — another header.
        outsider.deliver_block(
            Block.build(0, first.header.previous_hash, first.transactions, timestamp=9.0), 1.0
        )
        assert outsider.ledger_height == plan.height
        assert outsider.world_state.get("item/a") == deployment.peers[0].world_state.get("item/a")
        message = "previous-hash mismatch"
    else:
        message = "expected block number 0"
    before = ledger_fingerprint(outsider)

    assert not plan.holds_for(plan.block, outsider)
    with pytest.raises(ValidationError, match=message):
        outsider.deliver_block(plan.block, 2.0, plan)

    assert ledger_fingerprint(outsider) == before
    assert second.transactions[0].tx_id == plan.block.transactions[0].tx_id
    assert not outsider.committed(second.transactions[0].tx_id)


def test_plan_of_another_channel_is_ignored():
    """Same block, same height, same (empty) state — but another channel's
    chaincode definitions, policy and MSP would be the ones that judged."""
    built = watch(build_desktop_deployment(shards=2, seed=11))
    assert built.peers == built.fabric.shard(0).ordered_peers
    submit(built, "item/a", b"v1")
    built.drain()
    (plan,) = built.plans
    outsider = built.fabric.shard(1).ordered_peers[0]
    assert outsider.channel is not plan.channel and outsider.ledger_height == plan.height

    assert not plan.holds_for(plan.block, outsider)
    result = outsider.deliver_block(plan.block, 1.0, plan)

    assert result.validation_codes == [TxValidationCode.VALID]
    assert outsider.world_state.get("item/a") is not built.peers[0].world_state.get("item/a")
    assert outsider.world_state.get("item/a") == built.peers[0].world_state.get("item/a")


# ------------------------------------------------------- isolation after adoption
def test_tamper_after_adoption_breaks_one_replica_only(deployment):
    handle = submit(deployment, "item/a", b"v1")
    deployment.drain()
    victim, *others = deployment.peers
    original = others[0].block_store.block(0).transactions[0]
    before = [ledger_fingerprint(peer) for peer in others]
    block_hashes = [peer.block_store.block(0).hash for peer in deployment.peers]

    clone = victim.tamper(handle.commit_block, 0)
    clone.args = [clone.args[0], "f" * 64, *clone.args[2:]]

    assert not victim.block_store.verify_chain()
    for peer, fingerprint in zip(others, before):
        assert peer.block_store.verify_chain()
        assert peer.block_store.block(0).transactions[0] is original
        assert ledger_fingerprint(peer) == fingerprint
    assert original.args[1] == checksum_of(b"v1")
    with pytest.raises(SealedEnvelopeError):
        original.timestamp = 0.0
    assert [peer.block_store.block(0).hash for peer in deployment.peers] == block_hashes


def test_shared_entries_cannot_be_assigned_to(deployment):
    submit(deployment, "item/a", b"v1")
    deployment.drain()
    assert holders(deployment.peers, "item/a") == 1
    entry = deployment.peers[3].world_state.get("item/a")
    record = deployment.peers[3].history.history_for_key("item/a")[-1]
    with pytest.raises(AttributeError):
        entry.value = "forged"
    with pytest.raises(AttributeError):
        entry.version = (9, 9)
    with pytest.raises(AttributeError):
        record.value = "forged"
    assert deployment.peers[0].world_state.get("item/a").value == record.value


def test_adopting_replica_keeps_its_own_secondary_index():
    built = watch(build_desktop_deployment(indexes=("creator", "metadata.*"), seed=11))
    submit(built, "item/a", b"v1", metadata={"hot": True})
    submit(built, "item/b", b"v1", metadata={"hot": False})
    built.drain()
    submit(built, "item/b", b"v2", metadata={"hot": True})
    submit(built, "item/c", b"v1", dependencies=["item/a"], metadata={"hot": True})
    submit(built, "item/d", b"v1", metadata={"hot": False})
    built.drain()
    built.fabric.submit_transaction(CLIENT, "hyperprov", "delete", ["item/a"])
    built.drain()
    assert set(adopted_by(built, 2).values()) == {True, False}

    selector = json.dumps({"metadata.hot": True, "_explain": True, "_limit": 10})
    answers = []
    context = built.fabric.client_context(CLIENT)
    for peer in built.peers:
        # A reader on the client's host that takes its answers from ``peer``.
        reader = f"reader@{peer.name}"
        built.fabric.add_client(
            reader, identity=context.identity, device=context.device,
            host_node=context.host_node, anchor_peer=peer.name,
        )
        response, _ = built.fabric.query(reader, "hyperprov", "query", [selector])
        answers.append(json.loads(response.scan.payload()))
        assert peer.world_state.secondary_index.lookup("metadata.hot", True) == {
            "item/b", "item/c"
        }
    indexes = {id(peer.world_state.secondary_index) for peer in built.peers}
    assert len(indexes) == len(built.peers)
    assert answers[0]["plan"]["access_path"] == PATH_INDEX
    assert [record["key"] for record in answers[0]["records"]] == ["item/b", "item/c"]
    assert all(answer == answers[0] for answer in answers[1:])


# ------------------------------------------------------ bad endorsements
def assert_refused(deployment, transaction, code):
    """``transaction``, alone in the next block, is judged ``code`` by a
    replica that validates by itself, by one that validates for the fan-out
    and by one that adopts that verdict; each appends the block and writes
    nothing of it."""
    alone, validating, adopting = deployment.peers[:3]
    block = next_block(alone, [transaction])
    before = [ledger_fingerprint(peer) for peer in (alone, validating, adopting)]

    results = [alone.deliver_block(block, 1.0)]
    plan = SharedCommit(block)
    results += [peer.deliver_block(block, 1.0, plan) for peer in (validating, adopting)]

    assert [adopted for _, _, adopted, _ in deployment.deliveries[-3:]] == [False, False, True]
    for peer, result, fingerprint in zip((alone, validating, adopting), results, before):
        assert result.validation_codes == [code]
        assert (result.valid_count, result.invalid_count) == (0, 1)
        assert peer.ledger_height == fingerprint[0] + 1
        assert ledger_fingerprint(peer)[1:5] == fingerprint[1:5]
        assert not peer.committed(transaction.tx_id)
        assert peer.block_store.verify_chain()


def test_endorsement_over_another_digest_is_a_bad_signature(deployment):
    """Validation compares each endorsement's ``response_digest`` with the
    digest of the rw-set the envelope carries: a mismatch is refused by the
    replica that validates and by the one that adopts its verdict."""
    submit(deployment, "item/a", b"v1")
    deployment.drain()
    forged = forged_transaction(deployment.peers[0])
    forged.endorsements[1].response_digest = "0" * 64
    assert_refused(deployment, forged, TxValidationCode.BAD_SIGNATURE)


def test_forged_transaction_is_refused(deployment):
    submit(deployment, "item/a", b"v1")
    deployment.drain()
    assert_refused(
        deployment, forged_transaction(deployment.peers[0]),
        TxValidationCode.ENDORSEMENT_POLICY_FAILURE,
    )


def test_signature_copied_onto_another_digest_is_not_counted(deployment):
    """Each endorser's own signature, but over another transaction's rw-set:
    the digest matches the envelope, the signature does not verify, and an
    endorsement that does not verify counts for no organisation."""
    submit(deployment, "item/a", b"v1")
    deployment.drain()
    donor = endorsed_transaction(deployment, "item/b", b"v1", tx_id="tx-donor")
    grafted = endorsed_transaction(deployment, "item/c", b"v1").tamper()
    for endorsement, source in list(zip(grafted.endorsements, donor.endorsements))[:2]:
        assert endorsement.endorser == source.endorser
        endorsement.signature = source.signature
    assert_refused(deployment, grafted, TxValidationCode.ENDORSEMENT_POLICY_FAILURE)


def test_signature_under_a_key_never_registered_is_not_counted(deployment):
    """A member's CA certifies a public key whose private key never went
    through ``KeyPair.generate``: the MAC under it is well formed, but no
    verifier holds that key, so the endorsement counts for nothing."""
    submit(deployment, "item/a", b"v1")
    deployment.drain()
    rogue = endorsed_transaction(deployment, "item/b", b"v1").tamper()
    digest = rogue.rw_set.digest().encode("ascii")
    for index, endorsement in enumerate(rogue.endorsements[:2]):
        private_key = hashlib.sha256(f"unregistered:{index}".encode()).digest()
        signature = sign(private_key, digest)
        public_key = signature.partition(":")[0]  # a signature names its key
        ca = organization(deployment.channel.msp, endorsement.organization).ca
        endorsement.endorser = f"rogue{index}"
        endorsement.certificate = ca.issue(endorsement.endorser, public_key, role="peer")
        endorsement.signature = signature
        assert deployment.channel.msp.validate_certificate(endorsement.certificate)
    assert_refused(deployment, rogue, TxValidationCode.ENDORSEMENT_POLICY_FAILURE)


def test_endorser_with_a_revoked_certificate_is_not_counted(deployment):
    """Revoked after it endorsed: the signature's verdict is still memoized
    from signing, but validation checks the certificate first."""
    submit(deployment, "item/a", b"v1")
    deployment.drain()
    transaction = endorsed_transaction(deployment, "item/b", b"v1")
    for endorsement in transaction.endorsements[:2]:
        ca = organization(deployment.channel.msp, endorsement.organization).ca
        ca.revoke(endorsement.certificate)
    assert_refused(deployment, transaction, TxValidationCode.ENDORSEMENT_POLICY_FAILURE)


# ------------------------------------------------------------- refused blocks
def refused_blocks(peer, transaction):
    """One block of ``transaction``, otherwise committable, per check
    ``BlockStore.append`` makes."""
    good = next_block(peer, [transaction])
    header = good.header

    def variant(**changes):
        fields = {
            "number": header.number, "previous_hash": header.previous_hash,
            "data_hash": header.data_hash, "timestamp": header.timestamp,
        }
        fields.update(changes)
        return Block(header=BlockHeader(**fields), transactions=good.transactions)

    return {
        "number": (variant(number=header.number + 1), "expected block number"),
        "previous-hash": (variant(previous_hash="f" * 64), "previous-hash mismatch"),
        "data-hash": (variant(data_hash="0" * 64), "data hash does not match"),
    }


@pytest.mark.parametrize("check", ["number", "previous-hash", "data-hash"])
def test_refused_block_leaves_the_replica_untouched(deployment, check):
    for key in ("item/a", "item/b", "victim"):
        submit(deployment, key, b"v1")
    deployment.drain()
    peer = deployment.peers[0]
    transaction = endorsed_transaction(deployment, "victim", b"v2")
    block, message = refused_blocks(peer, transaction)[check]
    before = ledger_fingerprint(peer)
    assert peer.world_state.get_version("victim") == (0, 2)

    with pytest.raises(ValidationError, match=message):
        peer.deliver_block(block, 1.0)

    assert ledger_fingerprint(peer) == before
    assert peer.world_state.get_version("victim") == (0, 2)
    assert not peer.committed(transaction.tx_id)
    assert peer.metrics.counter("blocks_committed").value == 1
    assert peer.block_store.verify_chain()
    # The same transactions in a block that links are committed.
    result = peer.deliver_block(next_block(peer, block.transactions), 1.0)
    assert result.validation_codes == [TxValidationCode.VALID]
    assert peer.world_state.get_version("victim") == (1, 0)


def test_block_refused_by_the_first_replica_offers_no_plan(deployment):
    submit(deployment, "item/a", b"v1")
    deployment.drain()
    first, second = deployment.peers[:2]
    block, message = refused_blocks(first, endorsed_transaction(deployment, "item/b", b"v1"))[
        "data-hash"
    ]
    plan = SharedCommit(block)
    before = ledger_fingerprint(second)

    for peer in (first, second):
        with pytest.raises(ValidationError, match=message):
            peer.deliver_block(block, 1.0, plan)

    assert plan.channel is None and not plan.holds_for(block, second)
    assert ledger_fingerprint(second) == before
