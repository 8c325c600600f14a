"""Property-based tests (hypothesis) on core data-structure invariants."""

import json

import pytest

from hypothesis import given, strategies as st

from repro.chaincode.records import ProvenanceRecord
from repro.common.errors import ConfigurationError
from repro.common.events import EventBus
from repro.common.hashing import HashChain, checksum_of, sha256_hex
from repro.common.serialization import canonical_json
from repro.crypto.merkle import EMPTY_ROOT, merkle_root
from repro.devices.model import DeviceModel
from repro.devices.profiles import XEON_E5_1603
from repro.fabric.proposal import Proposal
from repro.ledger.block import Block
from repro.ledger.blockchain import BlockStore
from repro.ledger.transaction import Endorsement, ReadSetEntry, ReadWriteSet, Transaction
from repro.ledger.world_state import WorldState
from repro.membership.identity import Organization
from repro.faults.plan import FaultPlan, PartitionFault
from repro.membership.policies import MajorityPolicy
from repro.network.partitions import PartitionManager
from repro.query.indexes import FieldValueIndex
from repro.simulation.randomness import DeterministicRandom
from repro.simulation.resources import SimResource, interval_overlap
from repro.workloads.arrivals import sample_poisson_times
from tests.internals import indexed_keys, live_topics
from tests.property_budgets import budget

payloads = st.binary(min_size=0, max_size=256)
keys = st.text(alphabet="abcdefghij/", min_size=1, max_size=12)


def make_tx(tx_id: str, key: str, value: str) -> Transaction:
    rw_set = ReadWriteSet()
    rw_set.add_write(key, value)
    return Transaction(
        tx_id=tx_id, channel="ch", chaincode="cc", function="set",
        args=[key, value], rw_set=rw_set,
    )


# ----------------------------------------------------------------------- hashes
@budget
@given(st.lists(payloads, max_size=20))
def test_hash_chain_verify_roundtrip(items):
    chain = HashChain()
    for item in items:
        chain.extend(item)
    assert chain.verify(items)


@budget
@given(st.lists(payloads, min_size=1, max_size=20), st.integers(min_value=0, max_value=19))
def test_hash_chain_detects_any_single_mutation(items, index):
    index = index % len(items)
    chain = HashChain()
    for item in items:
        chain.extend(item)
    mutated = list(items)
    mutated[index] = mutated[index] + b"\x01"
    assert not chain.verify(mutated)


# ----------------------------------------------------------------------- merkle
def _pairwise_root(hashes):
    """The root by its definition: hash pairs level by level, an odd last
    node paired with itself, one leaf is its own root."""
    if not hashes:
        return EMPTY_ROOT
    if len(hashes) == 1:
        return hashes[0]
    padded = hashes + hashes[-1:] if len(hashes) % 2 else hashes
    return _pairwise_root([sha256_hex(padded[i] + padded[i + 1]) for i in range(0, len(padded), 2)])


@budget
@given(st.lists(payloads, max_size=33))
def test_merkle_root_matches_the_pairwise_definition(leaves):
    hashes = [sha256_hex(leaf) for leaf in leaves]
    assert merkle_root(hashes) == _pairwise_root(hashes)
    assert hashes == [sha256_hex(leaf) for leaf in leaves]  # the input is not touched


@budget
@given(st.lists(payloads, min_size=2, max_size=16, unique=True), st.integers(min_value=0))
def test_merkle_root_depends_on_leaf_order(leaves, index):
    hashes = [sha256_hex(leaf) for leaf in leaves]
    index %= len(hashes) - 1
    swapped = list(hashes)
    swapped[index], swapped[index + 1] = swapped[index + 1], swapped[index]
    assert merkle_root(swapped) != merkle_root(hashes)


# ----------------------------------------------------------------- serialization
@budget
@given(
    st.recursive(
        st.one_of(st.integers(), st.booleans(), st.text(max_size=20), st.none()),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
        ),
        max_leaves=16,
    )
)
def test_canonical_json_roundtrip(value):
    assert json.loads(canonical_json(value)) == value


@budget
@given(st.binary(max_size=64))
def test_canonical_json_encodes_any_bytes_as_their_hex(blob):
    assert json.loads(canonical_json({"b": blob})) == {"b": {"__bytes__": blob.hex()}}


@budget
@given(st.dictionaries(st.text(max_size=8), st.integers(), max_size=8))
def test_canonical_json_is_key_order_independent(mapping):
    reordered = dict(reversed(list(mapping.items())))
    assert canonical_json(mapping) == canonical_json(reordered)


# ------------------------------------------------------------------- world state
@budget
@given(st.lists(st.tuples(keys, st.text(max_size=8)), max_size=40))
def test_world_state_last_write_wins(writes):
    state = WorldState()
    expected = {}
    for position, (key, value) in enumerate(writes):
        state.put(key, value, (0, position))
        expected[key] = value
    assert state.snapshot() == expected
    for key, value in expected.items():
        assert state.get(key).value == value


@budget
@given(st.lists(keys, min_size=1, max_size=30))
def test_world_state_range_query_is_sorted_and_complete(key_list):
    state = WorldState()
    for position, key in enumerate(key_list):
        state.put(key, "v", (0, position))
    results = state.range_query_versioned("", "")
    assert [entry.key for entry in results] == sorted(set(key_list))


# -------------------------------------------------------------------- block store
@budget
@given(st.lists(st.lists(st.tuples(keys, st.text(max_size=4)), min_size=1, max_size=4),
                min_size=1, max_size=8))
def test_block_store_chain_always_verifies(batches):
    store = BlockStore()
    counter = 0
    for number, batch in enumerate(batches):
        txs = []
        for key, value in batch:
            txs.append(make_tx(f"t{counter}", key, value))
            counter += 1
        store.append(Block.build(number, store.latest_hash, txs, timestamp=float(number)))
    assert store.verify_chain()
    assert store.height == len(batches)
    assert sum(store.block(n).tx_count for n in range(store.height)) == counter


# --------------------------------------------------------------------- resources
@budget
@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100),
                          st.floats(min_value=0, max_value=5)), max_size=40),
       st.integers(min_value=1, max_value=4))
def test_resource_reservations_never_overlap_per_slot(requests, concurrency):
    resource = SimResource("cpu", concurrency=concurrency)
    spans = []
    for requested_at, duration in requests:
        reservation = resource.reserve(requested_at, duration)
        assert reservation.start >= requested_at
        assert reservation.end - reservation.start == pytest.approx(duration, abs=1e-9)
        # Each slot runs one reservation at a time, so fewer than
        # ``concurrency`` earlier ones can still be running at its start.
        running = sum(1 for start, end in spans if start <= reservation.start < end)
        assert running < concurrency
        spans.append(reservation)


# -------------------------------------------------------------------- busy log
_COMPONENTS = ("cpu", "disk", "nic")
_charges = st.lists(
    st.tuples(st.sampled_from(_COMPONENTS),
              st.floats(min_value=0, max_value=50),
              st.sampled_from([0.0, 1e-9, 0.125, 0.3, 1.0, 7.5])
              | st.floats(min_value=0, max_value=5)),
    max_size=40,
)
_windows = st.lists(
    st.tuples(st.floats(min_value=-5, max_value=80), st.floats(min_value=-5, max_value=80)),
    min_size=1, max_size=6,
)


@budget
@given(_charges, _windows)
def test_device_busy_log_equals_a_list_of_intervals(charges, windows):
    """Out-of-order starts, zero durations and queueing: ``busy_time`` and
    ``utilization`` are exactly the brute-force sums over every recorded
    span, in charge order, component by component."""
    device = DeviceModel("d", XEON_E5_1603)
    reference = {component: [] for component in _COMPONENTS}
    for component, start, duration in charges:
        span = device.occupy(component, start, duration)
        assert span[0] >= start and (duration > 0 or span == (start, start))
        if duration > 0:
            reference[component].append(span)

    def brute(window, component):
        total = 0.0
        for name in _COMPONENTS if component is None else (component,):
            for start, end in reference[name]:
                total += end - start if window is None else interval_overlap((start, end), window)
        return total

    capacity = {"cpu": XEON_E5_1603.cores, "disk": 1, "nic": 1}
    for component in (None, *_COMPONENTS):
        assert device.busy_time(component=component) == brute(None, component)
        for window in windows:
            busy = brute(window, component)
            assert device.busy_time(window=window, component=component) == busy
            if component is not None:
                length = window[1] - window[0]
                expected = min(1.0, busy / (length * capacity[component])) if length > 0 else 0.0
                assert device.utilization(window, component) == expected


# ----------------------------------------------------------------------- policies
@budget
@given(st.sets(st.sampled_from(["org1", "org2", "org3", "org4", "org5"]), max_size=5),
       st.integers(min_value=1, max_value=5))
def test_majority_policy_semantics(signers, size):
    orgs = ["org1", "org2", "org3", "org4", "org5"][:size]
    satisfied = MajorityPolicy(orgs).evaluate(signers)
    assert satisfied == (len(signers & set(orgs)) > size / 2)


# ---------------------------------------------------------------------- checksums
@budget
@given(payloads, payloads)
def test_checksum_equality_iff_payload_equality(a, b):
    if a == b:
        assert checksum_of(a) == checksum_of(b)
    else:
        assert checksum_of(a) != checksum_of(b)


# ---------------------------------------------------------------- rw-set digest
#: Quotes, backslashes, control characters, non-ASCII and astral code points.
awkward_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "ø", "\u2028", "😀"]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)
versions = st.one_of(
    st.none(), st.tuples(st.integers(0, 10**9), st.integers(0, 10**6))
)


@budget
@given(
    st.lists(st.tuples(awkward_text, versions), max_size=600),
    st.lists(st.tuples(awkward_text, st.one_of(st.none(), awkward_text), st.booleans()), max_size=5),
)
def test_rw_set_digest_equals_canonical_json_of_to_dict(reads, writes):
    """The direct encoder must stay byte-for-byte the reference encoding
    (what every endorser signs and every validator recomputes)."""
    rw_set = ReadWriteSet()
    rw_set.extend_reads([ReadSetEntry(key, version) for key, version in reads])
    for key, value, is_delete in writes:
        rw_set.add_write(key, value, is_delete=is_delete)
    assert rw_set.canonical_bytes() == canonical_json(rw_set.to_dict())
    assert rw_set.digest() == sha256_hex(canonical_json(rw_set.to_dict()))


# ------------------------------------------------------------ envelope bytes
#: Five certificates, as a whole run sees (one subject is not ASCII).
certificates = [
    Organization(name).enroll(subject, role=role).certificate
    for name, subject, role in [
        ("org1", "client", "client"), ("org1", "peer0", "peer"), ("org2", "peer1", "peer"),
        ("org3", 'peer "é"', "peer"), ("org4", "peer3", "member"),
    ]
]
endorsements = st.builds(
    Endorsement,
    endorser=awkward_text, organization=awkward_text,
    certificate=st.sampled_from(certificates),
    signature=awkward_text, response_digest=awkward_text,
)
timestamps = st.one_of(st.floats(), st.integers(-10**6, 10**12))


@budget
@given(
    st.tuples(awkward_text, awkward_text, awkward_text, awkward_text),
    st.lists(awkward_text, max_size=6),
    st.lists(st.tuples(awkward_text, versions), max_size=8),
    st.lists(st.tuples(awkward_text, st.one_of(st.none(), awkward_text), st.booleans()), max_size=4),
    st.lists(endorsements, max_size=4),
    st.one_of(st.none(), st.sampled_from(certificates)),
    timestamps,
)
def test_envelope_bytes_equal_canonical_json_of_the_envelope_dict(
    names, args, reads, writes, endorsed, creator, timestamp
):
    """The fragment-assembled envelope must stay byte-for-byte the reference
    encoding: block sizes, transaction digests and Merkle roots hang on it."""
    tx_id, channel, chaincode, function = names
    rw_set = ReadWriteSet()
    rw_set.extend_reads([ReadSetEntry(key, version) for key, version in reads])
    for key, value, is_delete in writes:
        rw_set.add_write(key, value, is_delete=is_delete)
    tx = Transaction(
        tx_id=tx_id, channel=channel, chaincode=chaincode, function=function, args=args,
        rw_set=rw_set, endorsements=endorsed, creator=creator, timestamp=timestamp,
    )
    reference = canonical_json({
        "tx_id": tx_id,
        "channel": channel,
        "chaincode": chaincode,
        "function": function,
        "args": list(args),
        "rw_set": rw_set.to_dict(),
        "endorsements": [
            {
                "endorser": e.endorser, "organization": e.organization,
                "certificate": e.certificate.to_dict(), "signature": e.signature,
                "response_digest": e.response_digest,
            }
            for e in endorsed
        ],
        "creator": creator.to_dict() if creator else None,
        "timestamp": timestamp,
    })
    assert tx.envelope_bytes() == reference == canonical_json(tx.to_dict())

    # Unsealed envelopes recompute on every call, so edits stay hash-visible.
    tx.args.append("late")
    assert tx.envelope_bytes() == canonical_json(tx.to_dict()) != reference
    tx.args.pop()

    tx.seal()
    assert tx.envelope_bytes() == reference
    assert tx.digest() == sha256_hex(reference) and tx.size_bytes == len(reference)

    # So do tamper() clones; the sealed original keeps serving its digest.
    clone = tx.tamper()
    assert clone.envelope_bytes() == reference
    clone.function = function + "!"
    assert clone.envelope_bytes() == canonical_json(clone.to_dict()) != reference
    assert clone.digest() != tx.digest() == sha256_hex(reference)
    assert tx.envelope_bytes() == reference


# ----------------------------------------------------------- signed proposal
@budget
@given(st.tuples(awkward_text, awkward_text, awkward_text, awkward_text),
       st.lists(awkward_text, max_size=6))
def test_signed_bytes_equal_canonical_json_of_the_covered_fields(names, args):
    """What the client signs and every endorser verifies stays the
    reference encoding of the five covered fields."""
    tx_id, channel, chaincode, function = names
    proposal = Proposal(
        tx_id=tx_id, channel=channel, chaincode=chaincode, function=function, args=args,
        creator=certificates[0], signature="", timestamp=0.0,
    )
    assert proposal.signed_bytes() == canonical_json({
        "tx_id": tx_id, "channel": channel, "chaincode": chaincode,
        "function": function, "args": list(args),
    })


# ----------------------------------------------------------------------- arrivals
@budget
@given(st.integers(min_value=0, max_value=2**32), st.floats(min_value=0.01, max_value=20.0),
       st.floats(min_value=0.1, max_value=50.0))
def test_poisson_times_are_sorted_inside_the_window_and_seeded(seed, rate, duration):
    times = sample_poisson_times(DeterministicRandom(seed), rate, duration)
    assert times == sorted(times)
    assert all(0.0 < t < duration for t in times)
    assert times == sample_poisson_times(DeterministicRandom(seed), rate, duration)


# --------------------------------------------------------------------- partitions
@budget
@given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=3),
                min_size=1, max_size=4))
def test_a_partition_is_accepted_iff_it_names_each_node_once(groups):
    fault = PartitionFault(0.0, 1.0, groups)
    named = [node for group in fault.groups for node in group]
    if len(set(named)) == len(named):
        FaultPlan(seed=1, faults=(fault,)).validate()
        manager = PartitionManager()
        manager.partition(fault.groups)
        for group in fault.groups:
            assert all(manager.can_communicate(group[0], node) for node in group)
    else:
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=1, faults=(fault,)).validate()
        with pytest.raises(ConfigurationError):
            PartitionManager().partition(fault.groups)


# ------------------------------------------------------------------------- events
_bus_programs = st.lists(
    st.tuples(st.sampled_from(["subscribe", "cancel", "publish"]),
              st.sampled_from(["t0", "t1", "t2"]), st.integers(min_value=0, max_value=20)),
    max_size=40,
)


@budget
@given(_bus_programs)
def test_event_bus_delivers_to_exactly_the_live_subscriptions(program):
    bus = EventBus()
    live = []  # (topic, subscription, payloads received)
    for operation, topic, pick in program:
        if operation == "subscribe":
            received = []
            subscription = bus.subscribe(topic, lambda _t, p, received=received: received.append(p))
            live.append((topic, subscription, received))
        elif operation == "cancel" and live:
            live.pop(pick % len(live))[1].cancel()
        elif operation == "publish":
            before = [len(received) for _, _, received in live]
            assert bus.publish(topic, pick) == sum(1 for t, _, _ in live if t == topic)
            assert [len(received) - count for (_, _, received), count in zip(live, before)] == [
                int(t == topic) for t, _, _ in live
            ]
        # A topic is held exactly while it has a live subscription.
        assert sorted(live_topics(bus)) == sorted({t for t, _, _ in live})


# ------------------------------------------------------------------------ indexes
@budget
@given(st.lists(st.tuples(st.sampled_from(["put", "remove"]), st.sampled_from("abcd"),
                          st.sampled_from(["alice", "bob", ""])), max_size=30))
def test_field_index_postings_follow_the_live_documents(program):
    index = FieldValueIndex(["creator"])
    live = {}
    for operation, key, creator in program:
        if operation == "put":
            record = ProvenanceRecord(key=key, checksum=checksum_of(key.encode()),
                                      location="ssh://storage/" + key, creator=creator,
                                      organization="org1", certificate_fingerprint="fp")
            index.update(key, record.to_json())
            live[key] = creator
        else:
            index.remove(key)
            live.pop(key, None)
    for creator in ("alice", "bob", ""):
        assert index.lookup("creator", creator) == {k for k, c in live.items() if c == creator}
    assert indexed_keys(index) == set(live)
