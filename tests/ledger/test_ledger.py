"""Tests for transactions, blocks, world state, history and the block store."""

from dataclasses import MISSING, fields, replace

import pytest

from repro.common.errors import NotFoundError, SealedEnvelopeError, ValidationError
from repro.common.hashing import sha256_hex
from repro.common.serialization import canonical_json
from repro.crypto.certificates import CertificateAuthority
from repro.crypto.merkle import EMPTY_ROOT, merkle_root
from repro.fabric.proposal import Proposal
from repro.ledger.block import Block
from repro.ledger.blockchain import BlockStore, GENESIS_PREVIOUS_HASH
from repro.ledger.history import HistoryDatabase
from repro.ledger.transaction import Endorsement, ReadWriteSet, Transaction, TxValidationCode
from repro.ledger.world_state import VersionedValue, WorldState


def pairs(entries):
    """``(key, value)`` of each committed version a scan returns."""
    return [(entry.key, entry.value) for entry in entries]


def make_tx(tx_id: str, key: str = "k", value: str = "v", read_version=None) -> Transaction:
    rw_set = ReadWriteSet()
    rw_set.add_read(key, read_version)
    rw_set.add_write(key, value)
    return Transaction(
        tx_id=tx_id,
        channel="ch",
        chaincode="hyperprov",
        function="set",
        args=[key, value],
        rw_set=rw_set,
    )


# ----------------------------------------------------------------- transaction
def test_rw_set_digest_is_stable_and_content_sensitive():
    a = ReadWriteSet()
    a.add_read("k", (0, 1))
    a.add_write("k", "v")
    b = ReadWriteSet()
    b.add_read("k", (0, 1))
    b.add_write("k", "v")
    assert a.digest() == b.digest()
    b.add_write("other", "x")
    assert a.digest() != b.digest()


def test_transaction_digest_covers_args():
    assert make_tx("t1", value="a").digest() != make_tx("t1", value="b").digest()


def test_transaction_size_positive_and_grows_with_args():
    small = make_tx("t1", value="v")
    large = make_tx("t1", value="v" * 10_000)
    assert 0 < small.size_bytes < large.size_bytes


# ---------------------------------------------------------------- seal/tamper
def test_unsealed_transaction_recomputes_envelope_on_mutation():
    tx = make_tx("t1")
    before = tx.digest()
    tx.args[1] = "mutated"
    assert tx.digest() != before  # no stale cache on unsealed envelopes


def test_sealed_transaction_caches_envelope_and_rejects_mutation(monkeypatch):
    builds = []
    build = Transaction.envelope_bytes
    monkeypatch.setattr(
        Transaction, "envelope_bytes", lambda self: builds.append(self) or build(self)
    )
    tx = make_tx("t1")
    unsealed_digest = tx.digest()
    assert tx.seal() is tx
    reference = canonical_json(tx.to_dict())
    for _ in range(3):
        assert tx.digest() == unsealed_digest == sha256_hex(reference)
        assert tx.size_bytes == len(reference)
    # One build while unsealed, one serves the sealed digest and size forever.
    assert builds == [tx, tx]
    assert not [name for name, value in vars(tx).items() if isinstance(value, bytes)]
    assert tx.envelope_bytes() == reference  # on demand, not retained

    clone = tx.tamper()
    assert (clone.digest(), clone.size_bytes) == (tx.digest(), tx.size_bytes)
    clone.args[1] = "forged-and-longer"
    assert clone.digest() == sha256_hex(canonical_json(clone.to_dict())) != tx.digest()
    assert clone.size_bytes == len(canonical_json(clone.to_dict())) != tx.size_bytes

    with pytest.raises(TypeError):
        tx.args[1] = "forged"
    with pytest.raises(SealedEnvelopeError):
        tx.rw_set.add_write("k", "forged")
    with pytest.raises(SealedEnvelopeError):
        tx.rw_set.add_read("k", None)
    tx.seal()  # idempotent
    # Commit metadata stays assignable on sealed envelopes.
    tx.validation_code = TxValidationCode.MVCC_READ_CONFLICT
    assert tx.validation_code is TxValidationCode.MVCC_READ_CONFLICT


def test_sealed_transaction_rejects_scalar_field_mutation():
    tx = make_tx("t1").seal()
    with pytest.raises(SealedEnvelopeError):
        tx.timestamp = 999.0
    with pytest.raises(SealedEnvelopeError):
        tx.creator_signature = "forged"
    with pytest.raises(SealedEnvelopeError):
        tx.rw_set = ReadWriteSet()
    with pytest.raises(SealedEnvelopeError):
        tx.rw_set.reads = []


def generated_state(cls, **given):
    """The ``__dict__`` a generated dataclass ``__init__`` would leave, in order."""
    state = {}
    for f in fields(cls):
        if f.name in given:
            state[f.name] = given[f.name]
        elif f.default is not MISSING:
            state[f.name] = f.default
        else:
            state[f.name] = f.default_factory()
    return state


def test_hand_written_constructors_keep_the_dataclass_contract():
    """``Endorsement``, ``Proposal`` and ``Transaction`` assign their fields
    without their ``__setattr__`` guards; each leaves what the generated
    ``__init__`` did: every field in declaration order, ``args`` of a
    proposal frozen to a tuple, cache and seal slots empty — so ``repr``,
    ``==`` and ``dataclasses.replace`` behave as before."""
    cert = CertificateAuthority("ca1", "org1").issue("peer0", "pk")
    endorsement_args = dict(
        endorser="peer0", organization="org1", certificate=cert,
        signature="sig", response_digest="digest",
    )
    proposal_args = dict(
        tx_id="t1", channel="ch", chaincode="hyperprov", function="set",
        args=["k", "v"], creator=cert, signature="sig", timestamp=1.5,
    )
    tx_args = dict(
        tx_id="t1", channel="ch", chaincode="hyperprov", function="set",
        args=["k", "v"], rw_set=ReadWriteSet(),
    )
    cases = [
        (Endorsement, endorsement_args, {}),
        (Proposal, proposal_args, {"args": ("k", "v")}),
        (Transaction, tx_args, {}),
    ]
    for cls, given, frozen in cases:
        built = cls(**given)
        expected = generated_state(cls, **{**given, **frozen})
        assert list(vars(built).items()) == list(expected.items())
        assert repr(built) == "%s(%s)" % (cls.__name__, ", ".join(
            f"{f.name}={expected[f.name]!r}" for f in fields(cls) if f.repr
        ))
        assert built == cls(**given) == replace(built)
        other = "tx_id" if "tx_id" in given else "signature"
        assert built != cls(**{**given, other: "other"})

    full = Transaction(**tx_args, endorsements=[Endorsement(**endorsement_args)],
                       creator=cert, creator_signature="c", timestamp=2.0,
                       response_payload="p", chaincode_event=("e", "{}"),
                       validation_code=TxValidationCode.MVCC_READ_CONFLICT)
    assert full.tamper() == full
    assert Transaction(**tx_args).endorsements is not Transaction(**tx_args).endorsements


def test_sealed_endorsement_is_frozen_but_tamper_clone_is_not():
    ca = CertificateAuthority("ca1", "org1")
    cert = ca.issue("peer0", "pk")
    endorsement = Endorsement(
        endorser="peer0", organization="org1", certificate=cert,
        signature="sig", response_digest="digest",
    )
    tx = make_tx("t1")
    tx.endorsements.append(endorsement)
    tx.seal()
    with pytest.raises(SealedEnvelopeError):
        endorsement.signature = "forged"
    clone = tx.tamper()
    clone.endorsements[0].signature = "forged"  # private copy: allowed
    assert tx.endorsements[0].signature == "sig"
    assert clone.digest() != tx.digest()


def test_rw_set_digest_cache_invalidated_by_mutation_api():
    rw = ReadWriteSet()
    rw.add_read("k", (0, 0))
    first = rw.digest()
    assert rw.digest() == first  # cached
    rw.add_write("k", "v2")
    assert rw.digest() != first  # mutation API dropped the cache


def test_tamper_clone_is_mutable_isolated_and_hash_visible():
    tx = make_tx("t1").seal()
    clone = tx.tamper()
    assert clone.digest() == tx.digest()  # identical until mutated
    clone.args[1] = "forged"
    clone.rw_set.add_write("extra", "w")
    assert clone.digest() != tx.digest()
    # The sealed original is untouched.
    assert tx.args[1] == "v"
    assert len(tx.rw_set.writes) == 1


def test_block_tamper_swaps_in_private_clone():
    txs = [make_tx("t1").seal(), make_tx("t2").seal()]
    shared = Block.build(0, GENESIS_PREVIOUS_HASH, txs, timestamp=1.0)
    peer_copy = Block(
        header=shared.header, transactions=shared.transactions, orderer="o"
    )
    tampered = peer_copy.tamper(0)
    tampered.args[1] = "forged"
    assert not peer_copy.verify_data_hash()
    # The other Block sharing the sealed transactions still verifies.
    assert shared.verify_data_hash()
    assert shared.transactions[0].args[1] == "v"


# ----------------------------------------------------------------------- block
def test_block_build_computes_merkle_data_hash():
    block = Block.build(0, GENESIS_PREVIOUS_HASH, [make_tx("t1"), make_tx("t2")], timestamp=1.0)
    assert block.verify_data_hash()
    assert block.tx_count == 2


def test_block_data_hash_is_the_root_of_its_transaction_digests():
    txs = [make_tx("t1"), make_tx("t2"), make_tx("t3")]
    block = Block.build(0, GENESIS_PREVIOUS_HASH, txs, timestamp=1.0)
    assert block.header.data_hash == merkle_root([tx.digest() for tx in txs])
    empty = Block.build(1, block.hash, [], timestamp=2.0)
    assert empty.header.data_hash == EMPTY_ROOT and empty.verify_data_hash()


def test_block_data_hash_detects_tampering():
    block = Block.build(0, GENESIS_PREVIOUS_HASH, [make_tx("t1"), make_tx("t2")], timestamp=1.0)
    block.transactions[0].args[1] = "tampered"
    assert not block.verify_data_hash()


# ----------------------------------------------------------------- world state
def test_world_state_put_get_with_versions():
    state = WorldState()
    state.put("k", "v1", (0, 0))
    assert state.get("k").value == "v1"
    assert state.get_version("k") == (0, 0)
    state.put("k", "v2", (1, 3))
    assert state.get_version("k") == (1, 3)


def test_versioned_value_is_immutable_and_value_compared():
    entry = VersionedValue("v", (1, 2))
    for name in ("value", "version", "document", "other"):
        with pytest.raises(AttributeError):
            setattr(entry, name, "x")
    assert entry == VersionedValue(value="v", version=(1, 2))
    assert entry != VersionedValue("v", (1, 3))
    assert hash(entry) == hash(VersionedValue("v", (1, 2)))
    with pytest.raises(AttributeError):
        entry.missing


@pytest.mark.parametrize("value", ["[1]", "3", "null", '"text"', "not json", ""])
def test_versioned_value_document_is_none_for_non_object_values(value):
    assert VersionedValue(value, (0, 0)).document is None


def test_versioned_value_parses_its_document_once_and_keeps_it():
    entry = VersionedValue('{"creator": "cam", "metadata": {"hot": true}}', (0, 0))
    document = entry.document
    assert document == {"creator": "cam", "metadata": {"hot": True}}
    assert entry.document is document


def test_world_state_delete():
    state = WorldState()
    state.put("k", "v", (0, 0))
    state.delete("k", (1, 0))
    assert state.get("k") is None
    assert len(state) == 0


def test_deleting_an_absent_key_counts_the_write_and_changes_nothing():
    state = WorldState()
    state.put("a/1", "v", (0, 0))
    state.delete("a/ghost", (1, 0))
    assert state.writes_applied == 2
    assert pairs(state.range_query_versioned("", "")) == [("a/1", "v")]
    assert pairs(state.query_by_prefix_versioned("a/", ())) == [("a/1", "v")]


def test_world_state_range_query():
    state = WorldState()
    for key in ["a/1", "a/2", "b/1"]:
        state.put(key, key.upper(), (0, 0))
    assert pairs(state.range_query_versioned("a/", "a/~")) == [("a/1", "A/1"), ("a/2", "A/2")]
    assert pairs(state.range_query_versioned("a/", "")) == [
        ("a/1", "A/1"), ("a/2", "A/2"), ("b/1", "B/1")]


def test_world_state_prefix_query_and_snapshot():
    state = WorldState()
    state.put("sensors/1", "x", (0, 0))
    state.put("cameras/1", "y", (0, 1))
    assert pairs(state.query_by_prefix_versioned("sensors/", ())) == [("sensors/1", "x")]
    assert state.snapshot() == {"sensors/1": "x", "cameras/1": "y"}
    assert len(state) == 2


# -------------------------------------------------------------------- history
def test_history_records_in_order():
    history = HistoryDatabase()
    history.record("k", "t1", 0, 0, 1.0, "v1")
    history.record("k", "t2", 1, 0, 2.0, "v2")
    entries = history.history_for_key("k")
    assert [e.value for e in entries] == ["v1", "v2"]
    assert history.history_for_key("k")[-1].tx_id == "t2"
    assert len(history.history_for_key("k")) == 2


def test_history_unknown_key_is_empty():
    history = HistoryDatabase()
    assert history.history_for_key("ghost") == []
    assert history.history_for_key("ghost") == []


def test_history_tracks_deletes():
    history = HistoryDatabase()
    history.record("k", "t1", 0, 0, 1.0, "v1")
    history.record("k", "t2", 1, 0, 2.0, None, is_delete=True)
    assert history.history_for_key("k")[-1].is_delete


def test_history_keys_maintained_sorted_without_rescan():
    history = HistoryDatabase()
    for key in ["m/2", "a/1", "z/9", "a/0", "m/2", "a/1"]:
        history.record(key, f"t-{key}", 0, 0, 1.0, "v")
    assert history.keys() == ["a/0", "a/1", "m/2", "z/9"]
    # Returned list is a copy: mutating it cannot corrupt the index.
    history.keys().append("bogus")
    assert history.keys() == ["a/0", "a/1", "m/2", "z/9"]


def test_world_state_prefix_bucket_index_matches_cross_bucket_scan():
    state = WorldState()
    for key, value in [
        ("tenant/a/1", "a1"), ("tenant/b/2", "b2"), ("other/x", "x"),
        ("tenantx/y", "y"),
    ]:
        state.put(key, value, (0, 0))
    # Bucket-resolved prefix (contains the separator).
    assert pairs(state.query_by_prefix_versioned("tenant/a/", ())) == [("tenant/a/1", "a1")]
    assert pairs(state.query_by_prefix_versioned("tenant/", ())) == [
        ("tenant/a/1", "a1"), ("tenant/b/2", "b2")
    ]
    # A prefix without a separator spans buckets ("tenant" vs "tenantx").
    assert pairs(state.query_by_prefix_versioned("tenant", ())) == [
        ("tenant/a/1", "a1"), ("tenant/b/2", "b2"), ("tenantx/y", "y")
    ]
    assert pairs(state.query_by_prefix_versioned("missing/", ())) == []
    # Deletes are reflected in the bucket index too.
    state.delete("tenant/a/1", (1, 0))
    assert pairs(state.query_by_prefix_versioned("tenant/", ())) == [("tenant/b/2", "b2")]


# ------------------------------------------------------------------ blockstore
def _chain_of(count: int) -> BlockStore:
    store = BlockStore()
    for number in range(count):
        block = Block.build(
            number, store.latest_hash, [make_tx(f"t{number}")], timestamp=float(number)
        )
        store.append(block)
    return store


def test_blockstore_appends_and_links():
    store = _chain_of(3)
    assert store.height == 3
    assert store.verify_chain()
    assert store.block(1).header.previous_hash == store.block(0).hash


def test_blockstore_rejects_wrong_number():
    store = _chain_of(1)
    wrong = Block.build(5, store.latest_hash, [make_tx("x")], timestamp=0.0)
    with pytest.raises(ValidationError):
        store.append(wrong)


def test_blockstore_rejects_broken_hash_link():
    store = _chain_of(1)
    wrong = Block.build(1, GENESIS_PREVIOUS_HASH * 1, [make_tx("x")], timestamp=0.0)
    # previous hash points at genesis instead of block 0.
    if store.block(0).hash != GENESIS_PREVIOUS_HASH:
        with pytest.raises(ValidationError):
            store.append(wrong)


def test_blockstore_rejects_tampered_block_data():
    store = _chain_of(1)
    block = Block.build(1, store.latest_hash, [make_tx("t1b")], timestamp=1.0)
    block.transactions[0].args[1] = "tampered"
    with pytest.raises(ValidationError):
        store.append(block)


def test_blockstore_block_out_of_range():
    store = _chain_of(1)
    with pytest.raises(NotFoundError):
        store.block(10)
