"""Property: adopting the first replica's commit changes no replica.

Two deployments are built from one seed and run the same random write
program.  On the first, the delivery fan-out shares one commit between
replicas whose ledgers agree (the production path).  On the second, every
replica's ``deliver_block`` is called without the fan-out's
``SharedCommit`` — an independent ``Peer.deliver_block(block, t)`` per
replica.  Each replica's ``CommitResult``s, world state with versions,
history, chain and device busy time must be the same on both, through
creates, updates, deletes, dependency chains, two writers of one key in
one block (``MVCC_READ_CONFLICT``), a read of a key written earlier in the
same block, unknown functions and several blocks in flight between drains.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.common.hashing import checksum_of
from repro.consensus.batching import BatchConfig
from repro.core.topology import build_desktop_deployment
from repro.fabric.peer import Peer
from repro.ledger.transaction import TxValidationCode

KEYS = [f"item/{index}" for index in range(4)]
CLIENT = "hyperprov-client"

key_indexes = st.integers(min_value=0, max_value=len(KEYS) - 1)
operations = st.one_of(
    st.tuples(st.just("set"), key_indexes, st.lists(key_indexes, max_size=2), st.booleans()),
    st.tuples(st.just("delete"), key_indexes),
    st.tuples(st.just("no-such-function"), key_indexes),
    st.tuples(st.just("drain")),
)


def build(share: bool):
    """A desktop deployment cutting three-transaction blocks; returns it
    with the list every commit is recorded into."""
    deployment = build_desktop_deployment(
        batch_config=BatchConfig(max_message_count=3), seed=7
    )
    recorded = []

    def recording(peer):
        def deliver_block(block, at_time, shared=None):
            if share:
                result = Peer.deliver_block(peer, block, at_time, shared)
            else:
                result = Peer.deliver_block(peer, block, at_time)
            recorded.append(result)
            return result
        return deliver_block

    for peer in deployment.peers:
        peer.deliver_block = recording(peer)
    return deployment, recorded


def run(program, share: bool):
    deployment, recorded = build(share)
    for step, operation in enumerate(program):
        if operation[0] == "drain":
            deployment.drain()
            continue
        function, key = operation[0], KEYS[operation[1]]
        args = [key]
        if function == "set":
            dependencies = [KEYS[index] for index in operation[2]]
            metadata = {"step": step} if operation[3] else {}
            args = [
                key, checksum_of(f"{key}@{step}".encode()), f"ssh://storage/{key}",
                json.dumps(dependencies), json.dumps(metadata),
            ]
        deployment.fabric.submit_transaction(CLIENT, "hyperprov", function, args)
    deployment.drain()
    return deployment, recorded


def blocks(peer):
    return [peer.block_store.block(number) for number in range(peer.block_store.height)]


def replica_view(peer):
    """Everything a commit leaves behind on one replica, by value."""
    tx_ids = [tx.tx_id for block in blocks(peer) for tx in block.transactions]
    return {
        "state": [(entry.key, entry.value, entry.version)
                  for entry in peer.world_state.range_query_versioned("", "")],
        "writes_applied": peer.world_state.writes_applied,
        "history": {key: peer.history.history_for_key(key) for key in peer.history.keys()},
        "history_entries": peer.history.total_entries,
        "chain": [(block.hash, list(block.validation_flags)) for block in blocks(peer)],
        "chain_verifies": peer.block_store.verify_chain(),
        "committed": [peer.committed(tx_id) for tx_id in tx_ids],
        "busy_s": peer.device.busy_time(),
    }


def result_fields(result):
    return (
        result.peer, result.block_number, result.received_at, result.committed_at,
        list(result.validation_codes), result.valid_count, result.invalid_count,
    )


def distinct_objects(deployment):
    """Per committed version and per history entry: how many objects the
    four replicas hold between them."""
    first = deployment.peers[0]
    counts = set()
    for key in (entry.key for entry in first.world_state.range_query_versioned("", "")):
        counts.add(len({id(peer.world_state.get(key)) for peer in deployment.peers}))
    for key in first.history.keys():
        for position in range(len(first.history.history_for_key(key))):
            counts.add(len({
                id(peer.history.history_for_key(key)[position]) for peer in deployment.peers
            }))
    return counts


@settings(max_examples=40, deadline=None)
@given(st.lists(operations, min_size=1, max_size=24))
def test_adopted_commits_equal_independent_commits(program):
    shared, shared_results = run(program, share=True)
    independent, independent_results = run(program, share=False)

    assert [result_fields(r) for r in shared_results] == [
        result_fields(r) for r in independent_results
    ]
    for adopting, validating in zip(shared.peers, independent.peers):
        assert replica_view(adopting) == replica_view(validating)
        assert adopting.block_store.verify_chain()
    # Nothing mutable travels with an adopted commit.
    flag_lists = [id(block.validation_flags) for peer in shared.peers for block in blocks(peer)]
    assert len(set(flag_lists)) == len(flag_lists)

    # The property is not vacuous: without faults every replica's ledger
    # agrees, so each committed version and each history entry is one
    # object across the four replicas when shared and four when not.
    if any(TxValidationCode.VALID in r.validation_codes for r in shared_results):
        assert distinct_objects(shared) == {1}
        assert distinct_objects(independent) == {len(independent.peers)}


def test_the_program_space_reaches_conflicts_inside_one_block():
    """Two writers of one key, and a reader of a key written earlier in the
    same block, are both refused by every replica — adopting or not."""
    program = [
        ("set", 0, [], False), ("set", 1, [], False), ("drain",),
        ("set", 0, [], True), ("set", 0, [], False), ("set", 2, [0], False), ("drain",),
    ]
    for share in (True, False):
        deployment, results = run(program, share=share)
        last = results[-len(deployment.peers):]
        assert {r.block_number for r in last} == {1}
        for result in last:
            assert result.validation_codes == [
                TxValidationCode.VALID,
                TxValidationCode.MVCC_READ_CONFLICT,
                TxValidationCode.MVCC_READ_CONFLICT,
            ]
        for peer in deployment.peers:
            assert peer.world_state.get_version(KEYS[0]) == (1, 0)
            assert peer.world_state.get(KEYS[2]) is None
