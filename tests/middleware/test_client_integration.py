"""Client + baseline integration with the transaction pipeline."""

import pytest

from repro.api.protocol import StoreRequest
from repro.baselines.centraldb import CentralProvenanceDatabase
from repro.baselines.provchain import PowProvenanceChain
from repro.chaincode.records import ProvenanceRecord
from repro.devices.model import DeviceModel
from repro.devices.profiles import XEON_E5_1603
from repro.middleware.config import PipelineConfig
from repro.middleware.metrics import STAGE_COMMIT, STAGE_ENDORSE, STAGE_ORDER
from repro.simulation.randomness import DeterministicRandom


def make_record(key="k", checksum="0" * 64):
    return ProvenanceRecord(
        key=key,
        checksum=checksum,
        location=f"db://x/{key}",
        creator="tester",
        organization="org1",
        certificate_fingerprint="",
    )


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
        client.query_records({"creator": "hyperprov-client"})
        client.get_by_range("ops/", "ops/~")
        counters = {
            name.split("ops.")[-1]
            for name in client.metrics.snapshot()
            if ".ops." in name
        }
        assert {
            "store_data", "get", "get_key_history", "check_hash",
            "get_dependencies", "query_records", "get_by_range",
        } <= counters

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
        cache = client.read_cache
        assert cache is not None
        client.configure_pipeline(PipelineConfig(cache=False))
        assert client.read_cache is None
        # The old cache unsubscribed from the network bus on close: no
        # handler remains on the block-delivery topic it invalidated on.
        from repro.middleware.cache import BLOCK_DELIVERED_TOPIC

        assert BLOCK_DELIVERED_TOPIC not in desktop_deployment.fabric.events.topics()


class TestBaselinePipelines:
    def test_centraldb_operations_flow_through_pipeline(self):
        device = DeviceModel("srv", XEON_E5_1603, rng=DeterministicRandom(7))
        db = CentralProvenanceDatabase(device, pipeline_config=PipelineConfig(cache=True))
        store = db.as_store()
        record = make_record("a")
        store.submit(StoreRequest(key=record.key, checksum=record.checksum,
                                  location=record.location, creator=record.creator))
        assert store.get("a").key == "a"
        assert store.get("a").key == "a"  # served from cache
        assert db.metrics.get_counter("cache.hits").value == 1
        assert db.metrics.get_counter("ops.store_record").value == 1
        assert db.metrics.get_counter("ops.get").value == 2

    def test_centraldb_store_invalidates_cache(self):
        device = DeviceModel("srv", XEON_E5_1603, rng=DeterministicRandom(7))
        db = CentralProvenanceDatabase(device, pipeline_config=PipelineConfig(cache=True))
        store = db.as_store()
        store.submit(StoreRequest(key="a", checksum="1" * 64, location="db://x/a"))
        assert store.get("a").checksum == "1" * 64
        store.submit(StoreRequest(key="a", checksum="2" * 64, location="db://x/a"))
        assert store.get("a").checksum == "2" * 64  # not the stale cached version

    def test_provchain_operations_flow_through_pipeline(self):
        device = DeviceModel("miner", XEON_E5_1603, rng=DeterministicRandom(9))
        chain = PowProvenanceChain(
            device, difficulty_bits=8, pipeline_config=PipelineConfig(cache=True)
        )
        store = chain.as_store()
        store.submit(StoreRequest(key="a", checksum="1" * 64, location="pow://a"))
        view = store.get("a")
        assert view.key == "a"
        # The cache hit below the adapter returns the same backend record.
        assert store.get("a").record is view.record
        store.submit(StoreRequest(key="a", checksum="2" * 64, location="pow://a"))
        assert store.get("a").checksum == "2" * 64
        assert chain.metrics.get_counter("ops.store_record").value == 2
        assert chain.verify_chain()

    def test_default_pipeline_preserves_legacy_behaviour(self):
        """The default (all-off) pipeline is transparent to the backend."""
        device = DeviceModel("srv", XEON_E5_1603, rng=DeterministicRandom(7))
        db = CentralProvenanceDatabase(device)
        store = db.as_store()
        record = make_record("a")
        result = store.submit(
            StoreRequest(key=record.key, checksum=record.checksum,
                         location=record.location, creator=record.creator)
        )
        assert result.latency_s > 0
        assert db.record_count == 1
        tampered = db.tamper("a", "f" * 64)
        assert store.get("a").checksum == tampered.checksum
        assert db.detect_tampering() == []
