"""End-to-end tests for the multi-channel (sharded) Fabric host."""

import pytest

from repro.api.protocol import StoreRequest
from repro.api.service import HyperProvService
from repro.common.errors import ValidationError
from repro.core.topology import build_desktop_deployment
from repro.middleware.cache import ReadCacheMiddleware
from repro.middleware.config import PipelineConfig
from repro.middleware.sharding import ConsistentHashRing


@pytest.fixture
def sharded(request):
    deployment = build_desktop_deployment(seed=42, shards=2)
    return deployment


def session_for(deployment, shards, **kwargs):
    service = HyperProvService(deployment)
    return service.session(pipeline=PipelineConfig(shards=shards, **kwargs))


def test_writes_spread_over_both_shards(sharded):
    session = session_for(sharded, 2)
    for i in range(16):
        session.submit(f"spread/{i}", f"v{i}".encode())
    session.drain()
    per_shard = [sum(sharded.fabric.shard_ledger_heights(i).values()) for i in (0, 1)]
    assert all(height > 0 for height in per_shard)
    # Aggregate heights equal the sum of the shard chains.
    total = sum(sharded.fabric.ledger_heights().values())
    assert total == sum(per_shard) > 0


def test_reads_follow_their_keys_shard(sharded):
    session = session_for(sharded, 2)
    ring = ConsistentHashRing(2)
    keys = [f"follow/{i}" for i in range(8)]
    for key in keys:
        session.submit(key, b"x")
    session.drain()
    for key in keys:
        view = session.get(key)
        assert view.key == key
        # The owning shard's ledger holds the key; the other does not.
        owner = ring.route(key)
        owning_peer = sharded.fabric.shard(owner).peers[
            sorted(sharded.fabric.shard(owner).peers)[0]
        ]
        assert owning_peer.world_state.get(key) is not None


def test_range_query_fans_out_across_shards(sharded):
    session = session_for(sharded, 2)
    keys = [f"fan/{i}" for i in range(12)]
    for key in keys:
        session.submit(key, b"x")
    session.drain()
    ring = ConsistentHashRing(2)
    owners = {ring.route(key) for key in keys}
    assert owners == {0, 1}  # the range genuinely spans both shards
    rows = sharded.client.get_by_range("fan/", "fan/~").payload
    assert [row["key"] for row in rows] == sorted(keys)


def test_rich_query_fans_out_and_merges(sharded):
    session = session_for(sharded, 2)
    for i in range(10):
        session.submit(f"rich/{i}", b"x", metadata={"kind": "demo"})
    session.drain()
    rows = sharded.client.as_store().query({"metadata.kind": "demo"}).records
    assert len(rows) == 10


def test_cross_shard_history_merges_after_resharding(sharded):
    """A key whose shard moves when the ring grows: history still finds
    the versions committed under the old layout, ordered by commit time."""
    deployment = build_desktop_deployment(seed=42, shards=4)
    service = HyperProvService(deployment)
    ring2, ring4 = ConsistentHashRing(2), ConsistentHashRing(4)
    key = next(
        f"mig/key-{i}" for i in range(100)
        if ring2.route(f"mig/key-{i}") != ring4.route(f"mig/key-{i}")
    )

    with service.session(pipeline=PipelineConfig(shards=2)) as before:
        before.submit(key, b"v1")
        before.drain()

    with service.session(pipeline=PipelineConfig(shards=4)) as after:
        after.submit(key, b"v2")
        after.drain()
        history = after.history(key)
        assert len(history) == 2
        # Oldest first across shards (per-shard block numbers both start
        # at 0, so ordering must come from commit timestamps).
        checks = [entry.view.checksum for entry in history]
        assert len(set(checks)) == 2
        latest = after.get(key)
        assert latest.checksum == checks[-1]


def test_cache_invalidation_works_per_shard(sharded):
    session = session_for(sharded, 2, cache=True)
    keys = [f"cache/{i}" for i in range(6)]
    for key in keys:
        session.submit(key, b"v1")
    session.drain()
    for key in keys:
        session.get(key)
        session.get(key)  # hit
    # Overwrite one key: only its entry is invalidated (via its shard's
    # commit stream), the rest still answer from cache.
    session.submit(keys[0], b"v2")
    session.drain()
    refreshed = session.get(keys[0])
    assert refreshed.checksum != ""
    # The refreshed read observed the new version, not the stale cache.
    from repro.common.hashing import checksum_of
    assert refreshed.checksum == checksum_of(b"v2")


def test_one_subscriber_sees_every_shards_blocks_exactly_once():
    deployment = build_desktop_deployment(seed=42, shards=4)
    fabric = deployment.fabric
    seen = []
    fabric.events.subscribe(
        "block_delivered",
        lambda _topic, delivery: seen.append(
            (delivery["shard"], delivery["block"].number, sorted(delivery["commits"]))
        ),
    )
    session = session_for(deployment, 4)
    for i in range(48):
        session.submit(f"spread/{i}", f"v{i}".encode())
    session.drain()

    peer_names = sorted(peer.name for peer in deployment.peers)
    expected = [
        (shard.index, block.number, peer_names)
        for shard in fabric.shards
        for block in shard.ordered_blocks
    ]
    assert sorted(seen) == expected
    assert {shard for shard, _, _ in seen} == {0, 1, 2, 3}


def test_proposals_fan_out_to_every_peer_of_their_shard_in_name_order(sharded):
    session = session_for(sharded, 2)
    for i in range(8):
        session.submit(f"fanout/{i}", f"v{i}".encode())
    session.drain()
    for shard in sharded.fabric.shards:
        names = [peer.name for peer in shard.ordered_peers]
        assert names == sorted(shard.peers)
        reader = shard.ordered_peers[0]
        transactions = [
            tx
            for number in range(reader.ledger_height)
            for tx in reader.block_store.block(number).transactions
        ]
        assert transactions
        for tx in transactions:
            assert [e.endorser for e in tx.endorsements] == names


def test_pipeline_shards_must_not_exceed_network_channels(sharded):
    with pytest.raises(ValidationError):
        session_for(sharded, 4)


def test_single_shard_deployment_unchanged(desktop_deployment):
    assert desktop_deployment.fabric.shard_count == 1
    assert desktop_deployment.fabric.shard(0).channel.name == "hyperprov-channel"
    session = HyperProvService(desktop_deployment).session()
    session.submit("compat/1", b"x")
    session.drain()
    assert set(desktop_deployment.fabric.ledger_heights().values()) == {1}


def test_flush_and_drain_covers_every_shard(sharded):
    session = session_for(sharded, 2)
    for i in range(10):
        session.submit(f"drainy/{i}", f"v{i}".encode())
    session.drain()
    for shard in sharded.fabric.shards:
        assert shard.batcher.queued == 0
        assert shard.orderer.intake_backlog == 0
    assert sharded.fabric.in_flight() == 0


def test_default_pipeline_config_leaves_deployment_scheduler_alone():
    """Regression: opening a session with an unrelated PipelineConfig must
    not silently reset a fair-share deployment back to FIFO."""
    from repro.consensus.scheduler import FairShareScheduler

    deployment = build_desktop_deployment(seed=42, scheduler="fair-share")
    built = deployment.fabric.shard(0).orderer.scheduler
    service = HyperProvService(deployment)
    with service.session(tenant="a", pipeline=PipelineConfig(cache=True)):
        pass
    scheduler = deployment.fabric.shard(0).orderer.scheduler
    assert isinstance(scheduler, FairShareScheduler)
    assert scheduler is built


def test_rejected_configure_pipeline_leaves_client_functional(desktop_deployment):
    """Regression: a config rejected for asking too many shards must not
    close the live pipeline or report the rejected config."""
    from repro.common.hashing import checksum_of

    client = desktop_deployment.client
    client.configure_pipeline(PipelineConfig(cache=True))
    with pytest.raises(ValidationError):
        client.configure_pipeline(PipelineConfig(cache=True, shards=2))
    assert client.pipeline_config.shards == 1
    cache = client.pipeline.find(ReadCacheMiddleware)
    assert cache is not None and cache._subscriptions

    store = client.as_store()
    store.submit(StoreRequest(key="alive", data=b"v1"))
    desktop_deployment.drain()
    store.get("alive")                        # populate the cache
    store.submit(StoreRequest(key="alive", data=b"v2"))
    desktop_deployment.drain()                # commit must still invalidate
    assert store.get("alive").checksum == checksum_of(b"v2")
