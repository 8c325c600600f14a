"""Client integration with the transaction pipeline."""

import pytest

from repro.api.protocol import StoreRequest
from repro.api.service import HyperProvService
from repro.middleware.cache import BLOCK_DELIVERED_TOPIC, ReadCacheMiddleware
from repro.middleware.config import PipelineConfig
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
        uncounted = [op for op in operators if client.metrics.get_counter("ops", op=op) == 0]
        assert uncounted == []

    def test_stage_breakdown_recorded_for_writes(self, desktop_deployment):
        client = desktop_deployment.client
        client.as_store().submit(StoreRequest(key="stage/a", data=b"a"))
        desktop_deployment.drain()
        endorse, order, commit = (
            client.metrics.get_histogram("stage.latency_s", stage=stage)
            for stage in ("endorse", "order", "commit")
        )
        assert endorse.count == 1
        assert order.count == 1
        assert commit.count == 1
        # Stage sum reconstructs the end-to-end commit latency.
        total = endorse.total + order.total + commit.total
        op = client.metrics.get_histogram("op.latency_s", op="store_data")
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

    def test_closing_a_cached_session_leaves_no_block_delivered_handler(
        self, desktop_deployment
    ):
        events = desktop_deployment.fabric.events
        session = HyperProvService(desktop_deployment).session(
            pipeline=PipelineConfig(cache=True)
        )
        assert session.backend.client.pipeline.find(ReadCacheMiddleware) is not None
        assert BLOCK_DELIVERED_TOPIC in live_topics(events)
        session.close()
        # The cache unsubscribed from the network bus with its session: no
        # handler remains on the block-delivery topic it invalidated on.
        assert BLOCK_DELIVERED_TOPIC not in live_topics(events)
