"""Property: a tenant's read asks fewer shards and answers the same.

A read confined to one tenant namespace fans out only to the namespace's
ring owner and the shards the network's placement table says have ordered
a write under it.  Random writes from tenant and non-tenant sessions on
2- and 4-shard rings (so the namespace can sit on two shards, as after a
re-size) are followed by a tenant's query, range and history.  Each answer
must equal the same read through a router whose placement names every
shard.  A fresh deployment's tenant read, query, range and history alike,
costs exactly one peer query.  A key history merged from 2 or 4 shards
comes back in the order the string-merging router produced, whose sort
key is kept here as the reference.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.service import HyperProvService
from repro.common.errors import NotFoundError
from repro.common.hashing import checksum_of
from repro.core.topology import build_desktop_deployment
from repro.fabric.peer import Peer
from repro.middleware.config import PipelineConfig
from repro.middleware.sharding import ConsistentHashRing, ShardRouterMiddleware

#: The reading tenant; a 2-shard and a 4-shard ring place it differently.
READER = "x"
#: A tenant whose namespace ``tenant/x`` (no slash) also prefixes.
NEIGHBOUR = "xy"
RELATIVE_KEYS = ["k1", "k2", "m", "zz", "~t"]
#: A non-tenant writer addresses raw ledger keys, in and around the namespace.
RAW_KEYS = ["tenant/x/k1", "tenant/x/raw", "tenant/xy/k1", "tenant/x", "plain/k1"]
EVERY_SHARD = frozenset(range(4))

writes = st.lists(
    st.tuples(
        st.sampled_from([READER, NEIGHBOUR, ""]),
        st.sampled_from([2, 4]),
        st.integers(min_value=0, max_value=len(RELATIVE_KEYS) - 1),
    ),
    min_size=1, max_size=8,
)
reads = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.sampled_from(["", "k", "k1", "z"]),
                  st.sampled_from([0, 2])),
        st.tuples(st.just("range"), st.sampled_from(["", "k", "k2"]),
                  st.sampled_from(["", "m", "zz"])),
        st.tuples(st.just("history"), st.sampled_from(RELATIVE_KEYS)),
    ),
    min_size=1, max_size=4,
)


def test_the_reader_moves_when_the_ring_grows():
    # Otherwise the 2-ring writes would not exercise a second shard.
    assert (ConsistentHashRing(2).owner("tenant/" + READER)
            != ConsistentHashRing(4).owner("tenant/" + READER))


def tenant_session(service):
    return service.session(tenant=READER, pipeline=PipelineConfig(shards=4))


def answer(session, read):
    """A read's answer, without the latency that legitimately differs."""
    if read[0] == "query":
        views = session.query({"_prefix": read[1]}, limit=read[2]).records
    elif read[0] == "range":
        return session.backend.client.get_by_range(read[1], read[2]).payload
    else:
        try:
            views = [entry.view for entry in session.history(read[1])]
        except NotFoundError as error:
            return str(error)
    return [dataclasses.replace(view, latency_s=0.0) for view in views]


@settings(max_examples=50, deadline=None)
@given(program=writes, program_reads=reads)
def test_a_confined_read_answers_what_asking_every_shard_answers(program, program_reads):
    deployment = build_desktop_deployment(seed=42, shards=4)
    service = HyperProvService(deployment)
    sessions = {}
    for step, (tenant, ring, key_index) in enumerate(program):
        if (tenant, ring) not in sessions:
            sessions[tenant, ring] = service.session(
                tenant=tenant or None, pipeline=PipelineConfig(shards=ring)
            )
        key = (RAW_KEYS if not tenant else RELATIVE_KEYS)[key_index]
        sessions[tenant, ring].submit(key, f"{step}:{tenant}:{key}".encode())
        service.drain()

    pruned, everywhere = tenant_session(service), tenant_session(service)
    everywhere.backend.client.pipeline.find(ShardRouterMiddleware).placement = (
        lambda tenant: EVERY_SHARD
    )
    for read in program_reads:
        assert answer(pruned, read) == answer(everywhere, read)


@pytest.fixture
def peer_queries(monkeypatch):
    calls = []
    original = Peer.query

    def counting(peer, *args, **kwargs):
        calls.append(peer.name)
        return original(peer, *args, **kwargs)

    monkeypatch.setattr(Peer, "query", counting)
    return calls


@pytest.mark.parametrize("read", [("query", "", 0), ("range", "", ""), ("history", "k1")])
def test_a_tenant_read_on_a_fresh_deployment_is_one_peer_query(read, peer_queries):
    service = HyperProvService(build_desktop_deployment(seed=42, shards=4))
    session = tenant_session(service)
    session.submit("k1", b"v1")
    service.drain()
    peer_queries.clear()
    assert answer(session, read)
    assert len(peer_queries) == 1


def parent_merge_order(entries):
    """The string-merging router's ``_merge_history``: the reference order."""
    def sort_key(entry):
        if not isinstance(entry, dict):
            return (0.0, 0)
        timestamp = entry.get("timestamp")
        block = entry.get("block")
        return (
            float(timestamp) if timestamp is not None else 0.0,
            int(block) if block is not None else 0,
        )

    return sorted(entries, key=sort_key)


history_writes = st.lists(
    # (writer's ring, relative key, drain after the write)
    st.tuples(st.sampled_from([2, 4]), st.sampled_from(["k1", "k2"]), st.booleans()),
    min_size=1, max_size=10,
)


@settings(max_examples=30, deadline=None)
@given(program=history_writes, reader_ring=st.sampled_from([2, 4]))
def test_a_merged_history_keeps_the_commit_order_of_the_string_merge(program, reader_ring):
    deployment = build_desktop_deployment(seed=42, shards=4)
    service = HyperProvService(deployment)
    writers = {
        ring: service.session(tenant=READER, pipeline=PipelineConfig(shards=ring))
        for ring in (2, 4)
    }
    for step, (ring, key, drain) in enumerate(program):
        # Both rings write the key: its versions land on two shards, whose
        # block numbers say nothing about the order between them.
        writers[ring].submit(
            key, checksum=checksum_of(f"{step}:{key}".encode()), location=f"ext://{step}"
        )
        if drain:
            service.drain()
    service.drain()
    reader = service.session(tenant=READER, pipeline=PipelineConfig(shards=reader_ring))
    anchor = reader.backend.client._context.anchor_peer
    for key in ("k1", "k2"):
        # What each shard the reader's ring covers answered, in shard order,
        # as the dicts the string merge sorted.
        rows = [
            {"tx_id": entry.tx_id, "block": entry.block_number, "timestamp": entry.timestamp,
             "is_delete": entry.is_delete, "value": entry.value}
            for shard in range(reader_ring)
            for entry in deployment.fabric.peer(anchor, shard=shard)
            .history.history_for_key(f"tenant/{READER}/{key}")
        ]
        if not rows:
            with pytest.raises(NotFoundError):
                reader.history(key)
            continue
        merged = [(entry.tx_id, entry.block) for entry in reader.history(key).entries]
        assert merged == [(row["tx_id"], row["block"]) for row in parent_merge_order(rows)]
