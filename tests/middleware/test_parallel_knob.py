"""Read-cache invalidation needs no knob: both commit feeds are followed."""

from types import SimpleNamespace

import pytest

from repro.api.protocol import StoreRequest
from repro.common.errors import ConfigurationError
from repro.common.events import EventBus
from repro.core.topology import build_desktop_deployment
from repro.middleware.cache import ReadCacheMiddleware
from repro.middleware.config import PipelineConfig, build_client_pipeline
from repro.middleware.context import Context, OperationKind


def read_ctx(key: str) -> Context:
    return Context(
        operation="get",
        kind=OperationKind.READ,
        chaincode="hyperprov",
        function="get",
        args=[key],
    )


def fake_block(*keys: str) -> SimpleNamespace:
    writes = [SimpleNamespace(key=key) for key in keys]
    transaction = SimpleNamespace(rw_set=SimpleNamespace(writes=writes))
    return SimpleNamespace(transactions=[transaction], number=1)


class TestParallelKnob:
    def test_parallel_key_is_rejected(self):
        with pytest.raises(ConfigurationError, match="parallel"):
            PipelineConfig.from_dict({"parallel": True})
        assert "parallel" not in PipelineConfig().to_dict()

    def test_commit_batch_entries_invalidate_cache(self):
        bus = EventBus()
        pipeline = build_client_pipeline(
            PipelineConfig(cache=True, tracing=False, metrics=False),
            lambda ctx: ("v", 0.1),
            events=bus,
        )
        cache = pipeline.find(ReadCacheMiddleware)
        pipeline.execute(read_ctx("k2"))
        assert len(cache) == 1
        bus.publish_batch("commit_batch", [{"block": fake_block("k2"), "shard": 0}])
        assert len(cache) == 0

    @pytest.mark.parametrize("batched", [False, True])
    def test_default_cache_invalidated_under_both_delivery_modes(self, batched):
        deployment = build_desktop_deployment(seed=42)
        deployment.fabric.config.batch_commit_delivery = batched
        client = deployment.client
        client.configure_pipeline(PipelineConfig(cache=True))
        store = client.as_store()
        store.store(StoreRequest(key="hot", data=b"v1"))  # drain flushes the window
        assert store.verify("hot", b"v1").matches
        assert len(client.read_cache) == 1

        store.submit(StoreRequest(key="hot", data=b"v2"))
        deployment.engine.run_until_idle()  # the batch timeout cuts the block
        assert deployment.fabric.in_flight() == 0  # committed
        if batched:
            # Fan-out is still buffered: the entry survives until the flush.
            assert len(client.read_cache) == 1
            assert deployment.fabric.flush_commit_events() == 1
        assert len(client.read_cache) == 0
        assert store.verify("hot", b"v2").matches

    def test_publish_batch_empty_is_noop(self):
        bus = EventBus()
        seen = []
        bus.subscribe("commit_batch", lambda _t, payload: seen.append(payload))
        assert bus.publish_batch("commit_batch", []) == 0
        assert seen == []
        assert bus.publish_batch("commit_batch", [1, 2]) == 1
        assert seen == [[1, 2]]
