"""Client integration with the transaction pipeline."""

import pytest

from repro.api.protocol import StoreRequest
from repro.middleware.cache import ReadCacheMiddleware
from repro.middleware.config import PipelineConfig
from repro.middleware.metrics import STAGE_COMMIT, STAGE_ENDORSE, STAGE_ORDER
from tests.internals import live_topics


class TestClientPipeline:
    def test_every_operator_flows_through_the_pipeline(self, desktop_deployment):
        client = desktop_deployment.client
        store = client.as_store()
        store.submit(StoreRequest(key="ops/a", data=b"a"))
        desktop_deployment.drain()
        store.get("ops/a")
        store.history("ops/a")
        store.verify("ops/a", b"a")
        client.get_dependencies("ops/a")
        store.query({"creator": "hyperprov-client"})
        client.get_by_range("ops/", "ops/~")
        operators = (
            "store_data", "get", "get_key_history", "check_hash",
            "get_dependencies", "query", "get_by_range",
        )
        uncounted = [op for op in operators if client.metrics.get_counter(f"ops.{op}") is None]
        assert uncounted == []

    def test_stage_breakdown_recorded_for_writes(self, desktop_deployment):
        client = desktop_deployment.client
        client.as_store().submit(StoreRequest(key="stage/a", data=b"a"))
        desktop_deployment.drain()
        endorse = client.metrics.get_histogram(STAGE_ENDORSE)
        order = client.metrics.get_histogram(STAGE_ORDER)
        commit = client.metrics.get_histogram(STAGE_COMMIT)
        assert endorse is not None and endorse.count == 1
        assert order is not None and order.count == 1
        assert commit is not None and commit.count == 1
        # Stage sum reconstructs the end-to-end commit latency.
        total = endorse.total + order.total + commit.total
        op = client.metrics.get_histogram("op.store_data.latency_s")
        assert op.total == pytest.approx(total, rel=1e-6)

    def test_request_ids_are_traced_per_operation(self, desktop_deployment):
        client = desktop_deployment.client
        seen = []
        desktop_deployment.fabric.events.subscribe(
            "pipeline.request", lambda t, p: seen.append(p["request_id"])
        )
        store = client.as_store()
        store.submit(StoreRequest(key="trace/a", data=b"a"))
        desktop_deployment.drain()
        store.get("trace/a")
        assert len(seen) == 2
        assert len(set(seen)) == 2

    def test_configure_pipeline_swaps_chain_and_closes_old_cache(self, desktop_deployment):
        client = desktop_deployment.client
        client.configure_pipeline(PipelineConfig(cache=True))
        assert client.pipeline.find(ReadCacheMiddleware) is not None
        client.configure_pipeline(PipelineConfig(cache=False))
        assert client.pipeline.find(ReadCacheMiddleware) is None
        # The old cache unsubscribed from the network bus on close: no
        # handler remains on the block-delivery topic it invalidated on.
        from repro.middleware.cache import BLOCK_DELIVERED_TOPIC

        assert BLOCK_DELIVERED_TOPIC not in live_topics(desktop_deployment.fabric.events)
