"""Property: adopting the first endorser's simulation changes no response.

Two deployments are built from one seed and run the same random write
program.  On the first, the fan-out shares one simulation between
replicas whose reads agree (the production path).  On the second, every
peer's ``endorse`` is called without the fan-out's ``SharedSimulation`` —
an independent ``Peer.endorse(proposal, t)`` per replica.  Each replica's
``ProposalResponse`` must be field-for-field the same on both, through
creates, updates, deletes, dependency chains, cross-organization ACL
refusals, missing dependencies and unknown functions, with several
transactions in flight between drains.
"""

import json

from hypothesis import given, strategies as st

from repro.common.hashing import checksum_of
from repro.core.topology import build_desktop_deployment
from repro.fabric.peer import Peer
from tests.internals import organization
from tests.property_budgets import budget

KEYS = [f"item/{index}" for index in range(4)]
CLIENTS = ["hyperprov-client", "org2-client"]

key_indexes = st.integers(min_value=0, max_value=len(KEYS) - 1)
client_indexes = st.integers(min_value=0, max_value=len(CLIENTS) - 1)
operations = st.one_of(
    st.tuples(
        st.just("set"), client_indexes, key_indexes,
        st.lists(key_indexes, max_size=2), st.booleans(),
    ),
    st.tuples(st.just("delete"), client_indexes, key_indexes),
    st.tuples(st.just("no-such-function"), client_indexes, key_indexes),
    st.tuples(st.just("drain")),
)


def build(share: bool):
    """A desktop deployment with a second-organization client; returns it
    with the list every endorsement is recorded into."""
    deployment = build_desktop_deployment(seed=7)
    org2 = organization(deployment.channel.msp, "org2")
    deployment.fabric.add_client(
        "org2-client",
        identity=org2.enroll("org2-client", role="client"),
        device=deployment.peers[1].device,
        host_node=deployment.peers[1].name,
        anchor_peer=deployment.peers[1].name,
    )
    recorded = []

    def recording(peer):
        def endorse(proposal, at_time, shared=None):
            if share:
                response, ready_at = Peer.endorse(peer, proposal, at_time, shared)
            else:
                response, ready_at = Peer.endorse(peer, proposal, at_time)
            recorded.append((response, ready_at))
            return response, ready_at
        return endorse

    for peer in deployment.fabric.shard(0).ordered_peers:
        peer.endorse = recording(peer)
    return deployment, recorded


def run(program, share: bool):
    deployment, recorded = build(share)
    for step, operation in enumerate(program):
        if operation[0] == "drain":
            deployment.drain()
            continue
        function, client, key = operation[0], CLIENTS[operation[1]], KEYS[operation[2]]
        args = [key]
        if function == "set":
            dependencies = [KEYS[index] for index in operation[3]]
            metadata = {"step": step} if operation[4] else {}
            args = [
                key, checksum_of(f"{key}@{step}".encode()), f"ssh://storage/{key}",
                json.dumps(dependencies), json.dumps(metadata),
            ]
        deployment.fabric.submit_transaction(client, "hyperprov", function, args)
    deployment.drain()
    return recorded


def fields(response, ready_at):
    return (
        response.tx_id, response.peer, response.status, response.payload,
        response.message, response.rw_set.digest(), response.chaincode_event,
        response.produced_at, ready_at,
        response.endorsement.signature if response.endorsement else None,
    )


@budget
@given(st.lists(operations, min_size=1, max_size=24))
def test_adopted_responses_equal_independent_endorsements(program):
    shared = run(program, share=True)
    independent = run(program, share=False)
    assert [fields(*entry) for entry in shared] == [fields(*entry) for entry in independent]

    # The property is not vacuous: without faults every replica's reads
    # agree, so each fan-out of four carried one rw-set object when shared
    # and four when not.
    def distinct_rw_sets(entries):
        by_tx = {}
        for response, _ in entries:
            by_tx.setdefault(response.tx_id, set()).add(id(response.rw_set))
        return sorted(len(objects) for objects in by_tx.values())

    transactions = sum(1 for operation in program if operation[0] != "drain")
    assert distinct_rw_sets(shared) == [1] * transactions
    assert distinct_rw_sets(independent) == [4] * transactions
