"""Continuous queries: registration, exactly-once commit-fed delivery,
tenant isolation, shard fan-in and session lifecycle."""

import pytest

from repro.api.service import HyperProvService
from repro.chaincode.records import ProvenanceRecord
from repro.common.errors import ConfigurationError, ValidationError
from repro.common.events import EventBus
from repro.common.hashing import checksum_of
from repro.consensus.batching import BatchConfig
from repro.core.topology import build_desktop_deployment
from repro.fabric.peer import CommitResult
from repro.ledger.block import Block
from repro.ledger.transaction import ReadWriteSet, Transaction, TxValidationCode, WriteSetEntry
from repro.middleware.config import PipelineConfig
from repro.query.continuous import ContinuousQueryRegistry
from tests.internals import live_topics, registered_queries


def record_value(key, creator="client1", metadata=None):
    return ProvenanceRecord(
        key=key,
        checksum=checksum_of(key.encode()),
        location=f"ssh://storage/{key}",
        creator=creator,
        organization="org1",
        certificate_fingerprint="fp",
        metadata=metadata or {},
    ).to_json()


def block_payload(number, writes, codes=None, shard=0):
    """A ``block_delivered`` payload carrying one transaction per write."""
    transactions = []
    for tx_number, write in enumerate(writes):
        rw_set = ReadWriteSet(writes=[write])
        transactions.append(
            Transaction(
                tx_id=f"tx-{number}-{tx_number}",
                channel="ch",
                chaincode="hyperprov",
                function="set",
                args=[],
                rw_set=rw_set,
            )
        )
    block = Block.build(
        number=number, previous_hash="", transactions=transactions, timestamp=1.0
    )
    result = CommitResult(
        peer="peer0",
        block_number=number,
        received_at=1.0,
        committed_at=1.0,
        validation_codes=list(codes or [TxValidationCode.VALID] * len(transactions)),
    )
    return {"block": block, "commits": {"peer0": result}, "shard": shard}


# ----------------------------------------------------------- registration
def test_register_rejects_bad_selectors():
    registry = ContinuousQueryRegistry(EventBus())
    with pytest.raises(ValidationError):
        registry.register({})
    with pytest.raises(ValidationError):
        registry.register("not a dict")
    with pytest.raises(ValidationError):
        registry.register({"_prefix": 7})
    with pytest.raises(ValidationError):
        registry.register({"creator": "x", "_limit": 5})
    with pytest.raises(ValidationError):
        registry.register({"_explain": True})
    assert registered_queries(registry) == 0


def test_prefix_only_selector_is_valid():
    registry = ContinuousQueryRegistry(EventBus())
    query = registry.register({"_prefix": "iot/"})
    assert query.active
    assert registered_queries(registry) == 1


def test_cancel_is_idempotent_and_deregisters():
    registry = ContinuousQueryRegistry(EventBus())
    query = registry.register({"creator": "x"})
    query.cancel()
    query.cancel()
    assert not query.active
    assert registered_queries(registry) == 0


def test_handle_is_a_context_manager():
    registry = ContinuousQueryRegistry(EventBus())
    with registry.register({"creator": "x"}) as query:
        assert query.active
    assert registered_queries(registry) == 0


# ------------------------------------------------------ unit-level stream
def test_matching_commits_are_delivered_exactly_once():
    bus = EventBus()
    registry = ContinuousQueryRegistry(bus)
    seen = []
    registry.register({"creator": "cam-1"}, callback=seen.append)
    bus.publish(
        "block_delivered",
        block_payload(
            0,
            [
                WriteSetEntry("iot/a", record_value("iot/a", creator="cam-1")),
                WriteSetEntry("iot/b", record_value("iot/b", creator="other")),
            ],
        ),
    )
    assert [event["key"] for event in seen] == ["iot/a"]
    assert seen[0]["block_number"] == 0
    assert seen[0]["tx_id"] == "tx-0-0"
    assert seen[0]["record"]["creator"] == "cam-1"


def test_invalidated_transactions_are_never_delivered():
    bus = EventBus()
    registry = ContinuousQueryRegistry(bus)
    seen = []
    registry.register({"_prefix": "iot/"}, callback=seen.append)
    bus.publish(
        "block_delivered",
        block_payload(
            0,
            [
                WriteSetEntry("iot/valid", record_value("iot/valid")),
                WriteSetEntry("iot/conflicted", record_value("iot/conflicted")),
            ],
            codes=[TxValidationCode.VALID, TxValidationCode.MVCC_READ_CONFLICT],
        ),
    )
    assert [event["key"] for event in seen] == ["iot/valid"]


def test_deletes_are_not_delivered():
    bus = EventBus()
    registry = ContinuousQueryRegistry(bus)
    seen = []
    registry.register({"_prefix": "iot/"}, callback=seen.append)
    bus.publish(
        "block_delivered",
        block_payload(
            0,
            [
                WriteSetEntry("iot/gone", None, is_delete=True),
                WriteSetEntry("iot/kept", record_value("iot/kept")),
            ],
        ),
    )
    assert [event["key"] for event in seen] == ["iot/kept"]


def test_reannounced_block_is_delivered_once_per_shard():
    """A block is announced again for every peer that commits it late; the
    registry fans it out the first time it carries a commit result."""
    bus = EventBus()
    registry = ContinuousQueryRegistry(bus)
    seen = []
    registry.register({"_prefix": "iot/"}, callback=seen.append)
    unseen = block_payload(0, [WriteSetEntry("iot/a", record_value("iot/a"))])
    unseen["commits"] = {}  # ordered while no peer was reachable
    first = block_payload(0, [WriteSetEntry("iot/a", record_value("iot/a"))])
    other_shard = block_payload(
        0, [WriteSetEntry("iot/b", record_value("iot/b"))], shard=1
    )
    for payload in (unseen, first, first, other_shard, first, other_shard):
        bus.publish("block_delivered", payload)
    assert [(event["key"], event["shard"]) for event in seen] == [
        ("iot/a", 0),
        ("iot/b", 1),
    ]


def test_without_callback_events_buffer_on_the_handle():
    bus = EventBus()
    registry = ContinuousQueryRegistry(bus)
    query = registry.register({"_prefix": "iot/"})
    bus.publish(
        "block_delivered",
        block_payload(0, [WriteSetEntry("iot/a", record_value("iot/a"))]),
    )
    assert query.pending_count == 1
    assert [event["key"] for event in query.pop_events()] == ["iot/a"]
    assert query.pop_events() == []
    assert query.delivered_count == 1


def test_cancelled_query_receives_nothing_more():
    bus = EventBus()
    registry = ContinuousQueryRegistry(bus)
    seen = []
    query = registry.register({"_prefix": "iot/"}, callback=seen.append)
    bus.publish(
        "block_delivered",
        block_payload(0, [WriteSetEntry("iot/a", record_value("iot/a"))]),
    )
    query.cancel()
    bus.publish(
        "block_delivered",
        block_payload(1, [WriteSetEntry("iot/b", record_value("iot/b"))]),
    )
    assert [event["key"] for event in seen] == ["iot/a"]


def test_registry_close_detaches_from_the_bus():
    bus = EventBus()
    registry = ContinuousQueryRegistry(bus)
    seen = []
    registry.register({"_prefix": "iot/"}, callback=seen.append)
    registry.close()
    assert live_topics(bus) == []
    bus.publish(
        "block_delivered",
        block_payload(0, [WriteSetEntry("iot/a", record_value("iot/a"))]),
    )
    assert seen == []
    assert registered_queries(registry) == 0


# ------------------------------------------------------- end-to-end flow
def test_session_subscribe_requires_the_pipeline_knob(desktop_deployment):
    service = HyperProvService(desktop_deployment)
    session = service.session(pipeline=PipelineConfig())
    with pytest.raises(ConfigurationError):
        session.subscribe({"_prefix": "iot/"})


def test_deliveries_follow_commits_under_churn(desktop_deployment):
    service = HyperProvService(desktop_deployment)
    session = service.session(pipeline=PipelineConfig(continuous_queries=True))
    seen = []
    session.subscribe({"metadata.kind": "telemetry"}, callback=seen.append)
    # Churn: matching writes, non-matching writes, and an overwrite of a
    # matching key — every matching *commit* is delivered, exactly once.
    session.submit("iot/a", b"v1", metadata={"kind": "telemetry"})
    session.submit("iot/b", b"v1", metadata={"kind": "admin"})
    session.drain()
    session.submit("iot/a", b"v2", metadata={"kind": "telemetry"})
    session.submit("iot/c", b"v1", metadata={"kind": "telemetry"})
    session.drain()
    keys = sorted(event["key"] for event in seen)
    assert keys == ["iot/a", "iot/a", "iot/c"]
    assert len({(e["key"], e["tx_id"]) for e in seen}) == 3  # no duplicates


@pytest.mark.parametrize("fault", ["partition", "crash"])
def test_each_commit_is_delivered_once_across_a_peer_catching_up(fault):
    deployment = build_desktop_deployment(
        seed=42, batch_config=BatchConfig(max_message_count=1)
    )
    fabric = deployment.fabric
    session = HyperProvService(deployment).session(
        pipeline=PipelineConfig(continuous_queries=True)
    )
    seen = []
    session.subscribe({"_prefix": "iot/"}, callback=seen.append)
    lagging = deployment.peers[3].name
    assert lagging != fabric.client_context(deployment.client.client_name).anchor_peer

    def write(key):
        post = session.submit(key, checksum=checksum_of(key.encode()), location="loc")
        assert fabric.flush_and_drain().stop_reason == "idle"
        assert post.ok
        return post.handle.tx_id

    tx_ids = [write("iot/before")]
    if fault == "partition":
        others = sorted(set(deployment.network.nodes) - {lagging})
        deployment.network.partitions.partition([others, [lagging]])
    else:
        fabric.crash_peer(lagging)
    tx_ids += [write("iot/missed-1"), write("iot/missed-2")]
    if fault == "partition":
        deployment.network.partitions.heal()
        assert fabric.catch_up_peers() == 1
    else:
        fabric.restart_peer(lagging)
    tx_ids.append(write("iot/after"))

    assert set(fabric.ledger_heights().values()) == {4}
    assert [event["tx_id"] for event in seen] == tx_ids
    assert [event["key"] for event in seen] == [
        "iot/before", "iot/missed-1", "iot/missed-2", "iot/after",
    ]


def test_session_close_cancels_standing_queries(desktop_deployment):
    service = HyperProvService(desktop_deployment)
    session = service.session(pipeline=PipelineConfig(continuous_queries=True))
    seen = []
    handle = session.subscribe({"_prefix": "iot/"}, callback=seen.append)
    session.submit("iot/a", b"x")
    session.close()
    assert not handle.active
    # Further commits (through a fresh session) must not reach it.
    late = service.session(pipeline=PipelineConfig(continuous_queries=True))
    late.submit("iot/b", b"x")
    late.drain()
    assert all(event["key"] != "iot/b" for event in seen)


def test_tenant_subscriptions_are_isolated_and_tenant_relative(desktop_deployment):
    service = HyperProvService(desktop_deployment)
    acme = service.session(
        tenant="acme", pipeline=PipelineConfig(continuous_queries=True)
    )
    rival = service.session(
        tenant="rival", pipeline=PipelineConfig(continuous_queries=True)
    )
    acme_seen, rival_seen = [], []
    acme.subscribe({"_prefix": "doc/"}, callback=acme_seen.append)
    rival.subscribe({"_prefix": "doc/"}, callback=rival_seen.append)
    acme.submit("doc/a", b"x")
    rival.submit("doc/r", b"x")
    service.drain()
    assert [event["key"] for event in acme_seen] == ["doc/a"]
    assert [event["key"] for event in rival_seen] == ["doc/r"]
    acme.close()
    rival.close()


def test_a_tenants_delivery_names_its_record_as_the_tenants_reads_do(desktop_deployment):
    service = HyperProvService(desktop_deployment)
    session = service.session(
        tenant="a", pipeline=PipelineConfig(continuous_queries=True)
    )
    seen = []
    session.subscribe({"metadata.kind": "lineage"}, callback=seen.append)
    session.submit("x", b"x", metadata={"kind": "lineage"})
    session.drain()
    session.submit("y", b"y", dependencies=("x",), metadata={"kind": "lineage"})
    session.drain()
    view = session.get("y")
    assert (view.key, view.dependencies) == ("y", ("x",))
    assert [
        (event["key"], event["record"]["key"], event["record"]["dependencies"])
        for event in seen
    ] == [("x", "x", []), ("y", "y", ["x"])]
    session.close()


def test_a_tenant_query_leaves_the_shared_document_as_committed():
    """One write, parsed once, matched by a tenant query and a global one:
    each gets the record as it reads it."""
    bus = EventBus()
    registry = ContinuousQueryRegistry(bus)
    tenant_seen, global_seen = [], []
    registry.register({"creator": "cam-1"}, callback=tenant_seen.append, tenant="a")
    registry.register({"creator": "cam-1"}, callback=global_seen.append)
    value = ProvenanceRecord(
        key="tenant/a/y",
        checksum=checksum_of(b"y"),
        location="ssh://storage/y",
        creator="cam-1",
        organization="org1",
        certificate_fingerprint="fp",
        dependencies=["tenant/a/x", "global/z"],
    ).to_json()
    bus.publish("block_delivered", block_payload(0, [WriteSetEntry("tenant/a/y", value)]))
    assert [(e["record"]["key"], e["record"]["dependencies"]) for e in tenant_seen] == [
        ("y", ["x", "global/z"])
    ]
    assert [(e["record"]["key"], e["record"]["dependencies"]) for e in global_seen] == [
        ("tenant/a/y", ["tenant/a/x", "global/z"])
    ]


def test_a_callback_editing_its_record_changes_no_other_delivery():
    """Two queries on one field: the first callback's edit to its record
    must neither hide the write from the second nor reach its record."""
    bus = EventBus()
    registry = ContinuousQueryRegistry(bus)
    first, second, tenant = [], [], []

    def tamper(event):
        event["record"]["metadata"]["kind"] = "tampered"
        first.append(event)

    registry.register({"metadata.kind": "x"}, callback=tamper)
    registry.register({"metadata.kind": "x"}, callback=second.append)
    registry.register({"metadata.kind": "x"}, callback=tenant.append, tenant="a")
    write = WriteSetEntry("tenant/a/k", record_value("tenant/a/k", metadata={"kind": "x"}))
    bus.publish("block_delivered", block_payload(0, [write]))
    assert [e["record"]["metadata"]["kind"] for e in first] == ["tampered"]
    assert [e["record"]["metadata"]["kind"] for e in second] == ["x"]
    assert [e["record"]["metadata"]["kind"] for e in tenant] == ["x"]
    assert first[0]["record"] is not second[0]["record"]


def test_multi_shard_commits_all_reach_one_subscriber():
    deployment = build_desktop_deployment(seed=42, shards=2)
    service = HyperProvService(deployment)
    session = service.session(
        pipeline=PipelineConfig(shards=2, continuous_queries=True)
    )
    seen = []
    session.subscribe({"_prefix": "fleet/"}, callback=seen.append)
    keys = [f"fleet/{i:02d}" for i in range(10)]
    for key in keys:
        session.submit(key, b"x")
    service.drain()
    assert sorted(event["key"] for event in seen) == keys
    assert len(seen) == len(keys)  # exactly once despite two shard streams
    assert {event["shard"] for event in seen} == {0, 1}
