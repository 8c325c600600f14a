"""Cache hit/miss + invalidation and endorsement-batcher flush semantics.

These run against full deployments so the invalidation path exercises the
real commit events (block delivery) rather than mocks.
"""

from types import SimpleNamespace

import pytest

from repro.api.protocol import StoreRequest
from repro.api.service import HyperProvService
from repro.chaincode.hyperprov import HyperProvChaincode
from repro.common.errors import ConfigurationError
from repro.common.metrics import render_exposition
from repro.consensus.batching import BatchConfig
from repro.core.client import HyperProvClient
from repro.core.topology import build_desktop_deployment
from repro.middleware.base import TransactionPipeline
from repro.middleware.batching import EndorsementBatcher
from repro.middleware.cache import ReadCacheMiddleware
from repro.middleware.config import PipelineConfig
from repro.middleware.context import KEY_SCOPED_FUNCTIONS, Context, OperationKind
from repro.middleware.sharding import ShardRouterMiddleware
from tests.internals import cache_keys, live_topics, organization
from tests.middleware.contract import answer, collaborators, response_with


def read_ctx(function="get", args=("k",)):
    return Context(
        operation=function,
        kind=OperationKind.READ,
        chaincode="hyperprov",
        function=function,
        args=list(args),
    )


def read_cache(wiring, capacity=256):
    return ReadCacheMiddleware(capacity, wiring["events"], wiring["metrics"], serve_stale=False)


def configured_client(deployment, config):
    """A client of ``deployment`` on ``config``, built the way a session's is."""
    return HyperProvService(deployment).session(pipeline=config).backend.client


class TestReadCacheUnit:
    def test_hit_returns_cached_payload_with_hit_latency(self):
        calls = []
        response = response_with("payload")
        cache = read_cache(collaborators())
        pipeline = TransactionPipeline(
            [cache], terminal=lambda ctx: calls.append(1) or (response, 0.5)
        )
        miss = pipeline.execute(read_ctx())
        hit_ctx = read_ctx()
        hit = pipeline.execute(hit_ctx)
        assert len(calls) == 1
        assert miss == (response, 0.5)
        assert hit == (response, 0.0)
        assert hit_ctx.cache_hit is True

    def test_capacity_below_one_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            read_cache(collaborators(), capacity=0)

    def test_writes_are_never_cached(self):
        calls = []
        cache = read_cache(collaborators())
        pipeline = TransactionPipeline(
            [cache], terminal=lambda ctx: calls.append(1) or answer(ctx)
        )
        ctx = Context(
            operation="post", kind=OperationKind.WRITE,
            chaincode="hyperprov", function="set", args=["k"],
        )
        pipeline.execute(ctx)
        pipeline.execute(ctx)
        assert len(calls) == 2
        assert len(cache_keys(cache.store)) == 0

    def test_invalidate_key_drops_key_scoped_and_broad_entries(self):
        cache = read_cache(collaborators())
        pipeline = TransactionPipeline([cache], terminal=answer)
        pipeline.execute(read_ctx("get", args=("a",)))
        pipeline.execute(read_ctx("get", args=("b",)))
        pipeline.execute(read_ctx("getbyrange", args=("", "~")))  # broad
        assert len(cache_keys(cache.store)) == 3
        dropped = cache.invalidate_key("a")
        assert dropped == 2  # the exact-key entry for "a" plus the range scan
        assert len(cache_keys(cache.store)) == 1  # "b" survives

    @pytest.mark.parametrize(
        "function", sorted(KEY_SCOPED_FUNCTIONS - HyperProvChaincode.INVOKE_FUNCTIONS)
    )
    def test_a_key_scoped_read_depends_on_its_key_only(self, function):
        cache = read_cache(collaborators())
        pipeline = TransactionPipeline([cache], terminal=answer)
        pipeline.execute(read_ctx(function, args=("a",)))
        assert cache.invalidate_key("b") == 0
        assert cache.invalidate_key("a") == 1
        assert len(cache_keys(cache.store)) == 0

    def test_lru_eviction_respects_capacity(self):
        wiring = collaborators()
        metrics = wiring["metrics"]
        cache = read_cache(wiring, capacity=2)
        pipeline = TransactionPipeline([cache], terminal=answer)
        for key in ("a", "b", "c"):
            pipeline.execute(read_ctx("get", args=(key,)))
        assert len(cache_keys(cache.store)) == 2
        assert metrics.get_counter("cache.evictions") == 1
        # "a" was evicted; "b" and "c" remain.
        remaining = {args[0] for (_, _, args) in cache_keys(cache.store)}
        assert remaining == {"b", "c"}

    def test_provenance_recorded_event_invalidates(self):
        wiring = collaborators()
        bus = wiring["events"]
        cache = read_cache(wiring)
        pipeline = TransactionPipeline([cache], terminal=answer)
        pipeline.execute(read_ctx("get", args=("sensor/1",)))
        assert len(cache_keys(cache.store)) == 1
        write = SimpleNamespace(key="sensor/1")
        transaction = SimpleNamespace(rw_set=SimpleNamespace(writes=[write]))
        bus.publish(
            "block_delivered", {"block": SimpleNamespace(transactions=[transaction])}
        )
        assert len(cache_keys(cache.store)) == 0

    def test_close_cancels_subscriptions(self):
        wiring = collaborators()
        bus = wiring["events"]
        cache = read_cache(wiring)
        cache.handle(read_ctx(), answer)
        assert live_topics(bus) and len(cache_keys(cache.store)) == 1
        cache.close()
        assert not live_topics(bus)
        assert len(cache_keys(cache.store)) == 0  # the pipeline's own store goes with it


class TestReadCacheEndToEnd:
    def test_hit_miss_and_commit_invalidation(self):
        deployment = build_desktop_deployment(seed=42)
        client = configured_client(deployment, PipelineConfig(cache=True))

        store = client.as_store()
        store.submit(StoreRequest(key="hot/key", data=b"v1"))
        deployment.drain()

        first = store.get("hot/key")
        second = store.get("hot/key")
        assert client.metrics.get_counter("cache.misses") == 1
        assert client.metrics.get_counter("cache.hits") == 1
        # The cached read is answered locally, not via a peer round trip.
        assert second.latency_s < first.latency_s
        assert second.checksum == first.checksum

        # A new committed version must invalidate the entry...
        store.submit(StoreRequest(key="hot/key", data=b"v2"))
        deployment.drain()
        refreshed = store.get("hot/key")
        # ... so the read goes back to the peer and sees the new checksum.
        assert client.metrics.get_counter("cache.misses") == 2
        assert refreshed.checksum != first.checksum

    def test_default_cache_drops_entry_on_commit(self):
        deployment = build_desktop_deployment(seed=42)
        client = configured_client(deployment, PipelineConfig(cache=True))
        store = client.as_store()
        store.store(StoreRequest(key="hot", data=b"v1"))
        assert store.verify("hot", b"v1").matches
        assert len(cache_keys(client.pipeline.find(ReadCacheMiddleware).store)) == 1

        store.submit(StoreRequest(key="hot", data=b"v2"))
        deployment.engine.run_until_idle()  # the batch timeout cuts the block
        assert deployment.fabric.in_flight() == 0  # committed
        assert len(cache_keys(client.pipeline.find(ReadCacheMiddleware).store)) == 0
        assert store.verify("hot", b"v2").matches

    @pytest.mark.parametrize("fault", ["partition", "crash"])
    def test_anchor_catch_up_invalidates_what_was_cached_from_it(self, fault):
        """A block the reader's anchor commits late (after a partition heals
        or the peer restarts) is announced for that peer, so an entry cached
        from the lagging anchor cannot outlive the catch-up."""
        deployment = build_desktop_deployment(
            seed=42, batch_config=BatchConfig(max_message_count=1)
        )
        fabric = deployment.fabric
        anchor = fabric.client_context(deployment.client.client_name).anchor_peer
        writer_peer = deployment.peers[0]
        assert writer_peer.name != anchor
        fabric.add_client(
            "client-b",
            identity=organization(deployment.channel.msp, "org1").enroll(
                "client-b", role="client"
            ),
            device=writer_peer.device,
            host_node="client-b",
            anchor_peer=writer_peer.name,
        )
        writer = HyperProvClient(network=fabric, client_name="client-b").as_store()
        reader = configured_client(deployment, PipelineConfig(cache=True)).as_store()
        announced = []
        fabric.events.subscribe(
            "block_delivered",
            lambda _topic, delivery: announced.append(
                (delivery["block"].number, sorted(delivery["commits"]))
            ),
        )

        def write(version):
            post = writer.submit(
                StoreRequest(key="k", checksum=f"{version:064x}", location="file://k")
            )
            assert fabric.flush_and_drain().stop_reason == "idle"
            assert post.ok
            return post.record.checksum

        v1 = write(1)
        assert reader.get("k").checksum == v1
        if fault == "partition":
            others = sorted(set(deployment.network.nodes) - {anchor})
            deployment.network.partitions.partition([others, [anchor]])
        else:
            fabric.crash_peer(anchor)
        v2 = write(2)  # commits on the other three peers, drops the v1 entry
        if fault == "partition":
            # An honest answer from the lagging anchor — and it is cached again.
            assert reader.get("k").checksum == v1
            deployment.network.partitions.heal()
            assert fabric.catch_up_peers() == 1
        else:
            fabric.restart_peer(anchor)

        fresh = reader.get("k")
        assert fresh.checksum == v2
        assert not fresh.stale
        assert announced[-1] == (1, [anchor])

    def test_cache_disabled_config_reproduces_uncached_latency(self):
        deployment = build_desktop_deployment(seed=42)
        store = deployment.client.as_store()  # default config: cache off
        store.submit(StoreRequest(key="cold/key", data=b"v1"))
        deployment.drain()
        first = store.get("cold/key")
        second = store.get("cold/key")
        # Without the cache both reads pay a real peer round trip.
        assert second.latency_s > first.latency_s * 0.1
        assert "hyperprov_cache_hits" not in render_exposition([deployment.client.metrics])


def post_inline(client, key):
    """Submit a metadata-only post at the current virtual time (no storage).

    A submit with the default ``at_time`` runs the invoke synchronously, so
    the endorsement batcher's queue growth is deterministic in the test.
    """
    return client.as_store().submit(
        StoreRequest(key=key, checksum="ab" * 32, location=f"file://{key}")
    ).handle


class TestEndorsementBatcher:
    def test_count_triggered_flush(self):
        deployment = build_desktop_deployment(seed=42)
        client = configured_client(deployment, PipelineConfig(order_batch_size=3))
        batcher = deployment.fabric.shard(0).batcher

        handles = [post_inline(client, f"batch/{i}") for i in range(2)]
        assert batcher.queued == 2
        handles.append(post_inline(client, "batch/2"))
        # The third submission filled the batch: nothing left queued.
        assert batcher.queued == 0
        assert deployment.fabric.metrics.get_histogram("batcher.batch_size", shard="0").count == 1
        deployment.drain()
        assert all(h.is_valid for h in handles)

    def test_each_shard_batcher_holds_its_own_queue(self):
        deployment = build_desktop_deployment(seed=42, shards=2)
        client = configured_client(deployment, PipelineConfig(shards=2, order_batch_size=3))
        ring = client.pipeline.find(ShardRouterMiddleware).ring
        keys = [f"queued/{i}" for i in range(20)]
        for shard, count in ((0, 2), (1, 1)):
            for key in [key for key in keys if ring.route(key) == shard][:count]:
                post_inline(client, key)
        assert [shard.batcher.queued for shard in deployment.fabric.shards] == [2, 1]
        assert "batcher_queued" not in HyperProvService(deployment).exposition()
        deployment.drain()
        assert [shard.batcher.queued for shard in deployment.fabric.shards] == [0, 0]
        flushed = [deployment.fabric.metrics.get_histogram("batcher.batch_size", shard=shard)
                   for shard in ("0", "1")]
        assert [(sizes.count, sizes.total) for sizes in flushed] == [(1, 2.0), (1, 1.0)]

    def test_close_flushes_the_partial_batch(self):
        deployment = build_desktop_deployment(seed=42)
        client = configured_client(deployment, PipelineConfig(order_batch_size=3))
        batcher = deployment.fabric.shard(0).batcher
        handles = [post_inline(client, f"close/{i}") for i in range(2)]
        assert batcher.queued == 2
        batcher.close()
        assert batcher.queued == 0
        deployment.drain()
        assert all(h.is_valid for h in handles)

    def test_drain_flushes_partial_batch(self):
        deployment = build_desktop_deployment(seed=42)
        client = configured_client(deployment, PipelineConfig(order_batch_size=10))

        handles = [post_inline(client, f"partial/{i}") for i in range(4)]
        assert deployment.fabric.shard(0).batcher.queued == 4
        deployment.drain()
        assert deployment.fabric.shard(0).batcher.queued == 0
        assert all(h.is_valid for h in handles)

    def test_batched_run_commits_same_records_as_unbatched(self):
        batched = build_desktop_deployment(seed=42)
        plain = build_desktop_deployment(seed=42)
        stores = [
            (batched, configured_client(batched, PipelineConfig(order_batch_size=4)).as_store()),
            (plain, plain.client.as_store()),
        ]
        for deployment, store in stores:
            for i in range(8):
                store.submit(StoreRequest(key=f"eq/{i}", data=f"x{i}".encode()))
            deployment.drain()
        for i in range(8):
            key = f"eq/{i}"
            assert (
                batched.peers[0].world_state.get(key).value
                == plain.peers[0].world_state.get(key).value
            )

    def test_batch_size_one_is_passthrough(self):
        deployment = build_desktop_deployment(seed=42)
        deployment.client.as_store().submit(StoreRequest(key="solo/0", data=b"x"))
        assert deployment.fabric.shard(0).batcher.queued == 0
        deployment.drain()
        assert deployment.fabric.metrics.get_histogram("batcher.batch_size", shard="0").count == 0

    def test_batch_size_below_one_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            EndorsementBatcher(shard=None, batch_size=0)

    def test_invalid_batch_size_rejected_without_side_effects(self):
        deployment = build_desktop_deployment(seed=42)
        post_inline(configured_client(deployment, PipelineConfig(order_batch_size=10)), "reject/0")
        queued_before = deployment.fabric.shard(0).batcher.queued
        with pytest.raises(Exception):
            deployment.fabric.set_order_batch_size(0)
        # The rejected reconfiguration must not have force-flushed the queue.
        assert deployment.fabric.shard(0).batcher.queued == queued_before

    def test_closed_loop_drain_with_batch_larger_than_inflight(self):
        """Commit callbacks that submit new work must not starve the batcher.

        Regression test: with order_batch_size above the number of
        in-flight submissions, drain() must keep alternating batcher and
        orderer flush rounds until every chained submission commits.
        """
        from repro.bench.runner import RunConfig, StoreDataRunner

        deployment = build_desktop_deployment(seed=42)
        result = StoreDataRunner(deployment).run(
            RunConfig(
                data_size_bytes=1024,
                request_count=40,
                concurrency=8,
                seed=42,
                pipeline=PipelineConfig(order_batch_size=32),
            )
        )
        assert result["committed"] == 40 and result["failed"] == 0
        assert deployment.fabric.shard(0).batcher.queued == 0
