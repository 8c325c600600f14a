"""Store-and-forward and stale-read degradation policies."""

import pytest

from repro.api.service import HyperProvService
from repro.common.errors import ConfigurationError, NetworkError
from repro.common.hashing import checksum_of
from repro.consensus.batching import BatchConfig
from repro.core.topology import DeploymentSpec, build_deployment
from repro.devices.profiles import DESKTOP_PROFILES, XEON_E5_1603
from repro.faults import FaultInjector, FaultPlan, PartitionFault
from repro.ledger.transaction import TxValidationCode
from repro.middleware.config import PipelineConfig, build_client_pipeline
from repro.middleware.context import Context, OperationKind
from repro.middleware.resilience import MAX_REPLAYS, StoreAndForwardMiddleware
from repro.fabric.proposal import TransactionHandle
from tests.internals import queued_writes
from tests.middleware.contract import answer, collaborators


def read_ctx(at_time=0.0, **kwargs):
    return Context(
        operation="get",
        kind=OperationKind.READ,
        chaincode="cc",
        function="get",
        args=["k"],
        at_time=at_time,
        **kwargs,
    )


def write_ctx(at_time=0.0):
    return Context(
        operation="post",
        kind=OperationKind.WRITE,
        chaincode="cc",
        function="post",
        args=["k", "v"],
        at_time=at_time,
    )


def store_and_forward():
    wiring = collaborators()
    return StoreAndForwardMiddleware(wiring["engine"], wiring["metrics"])


# -------------------------------------------------------- store-and-forward
class TestStoreAndForward:
    def test_parks_unreachable_write_and_replays_on_heal(self):
        saf = store_and_forward()
        engine = saf.engine
        healed = []

        def downstream(ctx):
            if engine.now < 2.0:
                raise NetworkError("partitioned")
            real = TransactionHandle(tx_id="tx-real", submitted_at=engine.now, function="post")
            healed.append(real)
            return real

        placeholder = saf.handle(write_ctx(at_time=0.0), downstream)
        assert isinstance(placeholder, TransactionHandle)
        assert placeholder.tx_id.startswith("saf-")
        assert queued_writes(saf) == 1
        engine.run(until=3.0)
        assert queued_writes(saf) == 0
        # The replayed handle completing completes the placeholder too.
        healed[0].complete(2.5, TxValidationCode.VALID, block_number=4)
        assert placeholder.is_valid
        assert placeholder.tx_id == "tx-real"
        assert placeholder.commit_block == 4
        assert placeholder.timings["saf_replays"] >= 1.0

    def test_abandons_after_max_replays(self):
        saf = store_and_forward()
        engine = saf.engine

        def always_down(ctx):
            raise NetworkError("partitioned")

        placeholder = saf.handle(write_ctx(at_time=0.0), always_down)
        engine.run_until_idle()
        # Bounded: the replay loop gave up instead of spinning forever.
        assert queued_writes(saf) == 0
        assert placeholder.validation_code is TxValidationCode.INVALID_OTHER_REASON
        assert placeholder.timings["saf_replays"] == float(MAX_REPLAYS)

    def test_close_cancels_the_pending_replay(self):
        saf = store_and_forward()
        engine = saf.engine
        attempts = []

        def always_down(ctx):
            attempts.append(engine.now)
            raise NetworkError("partitioned")

        saf.handle(write_ctx(at_time=0.0), always_down)
        saf.close()
        engine.run_until_idle()
        assert attempts == [0.0]  # the parked write is never replayed

    def test_reads_and_healthy_writes_bypass_the_queue(self):
        saf = store_and_forward()
        fresh = answer(read_ctx())
        assert saf.handle(read_ctx(), lambda c: fresh) is fresh
        handle = TransactionHandle(tx_id="tx-1", submitted_at=0.0, function="post")
        assert saf.handle(write_ctx(), lambda c: handle) is handle
        assert queued_writes(saf) == 0


# ------------------------------------------------------------- config knobs
class TestConfigWiring:
    def build(self, config):
        return build_client_pipeline(config, answer, **collaborators()).middleware_names()

    def test_resilience_knobs_change_the_middleware_names(self):
        names = self.build(
            PipelineConfig(
                store_and_forward=True, retry_attempts=2, cache=True, stale_reads=True
            )
        )
        # Ordering: SAF wraps retry, so a write parks only once retry gave up.
        assert names == ["request-id", "metrics", "store-and-forward", "retry", "read-cache"]

    def test_defaults_add_nothing(self):
        assert "store-and-forward" not in self.build(PipelineConfig())

    def test_stale_reads_require_the_cache(self):
        with pytest.raises(ConfigurationError, match="stale_reads needs cache"):
            PipelineConfig(stale_reads=True)


# ------------------------------------------------------- stale-read markers
class TestStaleReadMarkers:
    """The stale archive answers every read operator, so every one of
    them must carry the marker: never silently fresh."""

    def test_all_four_read_operators_mark_archive_answers_stale(self):
        deployment = build_deployment(
            DeploymentSpec(
                name="stale-markers",
                peer_profiles=DESKTOP_PROFILES,
                orderer_profile=XEON_E5_1603,
                storage_profile=XEON_E5_1603,
                client_profile=DESKTOP_PROFILES[2],
                client_colocated_with=None,  # the partition isolates the client alone
                batch_config=BatchConfig(max_message_count=1),
                seed=5,
            )
        )
        session = HyperProvService(deployment).session(
            pipeline=PipelineConfig(cache=True, stale_reads=True)
        )
        engine = deployment.engine
        v1, v2 = checksum_of(b"v1"), checksum_of(b"v2")
        selector = {"_prefix": "sensor/"}
        answers = {}

        def submit(checksum):
            session.submit("sensor/a", checksum=checksum, location="edge://a")

        def read_all(tag):
            answers[tag] = (
                session.get("sensor/a"),
                session.history("sensor/a"),
                session.verify("sensor/a", v1),
                session.query(selector),
            )

        engine.schedule_at(1.0, lambda: submit(v1))
        engine.schedule_at(3.0, lambda: read_all("prime"))
        engine.schedule_at(3.5, lambda: submit(v2))
        FaultInjector(
            FaultPlan(seed=5, faults=(PartitionFault(4.0, 7.0, (("client",),)),)),
            deployment.fabric,
        ).install()
        engine.schedule_at(5.0, lambda: read_all("during"))
        engine.schedule_at(9.0, lambda: read_all("after"))
        deployment.fabric.flush_and_drain()

        for tag, stale in (("prime", False), ("during", True), ("after", False)):
            view, history, verdict, page = answers[tag]
            assert [view.stale, history.stale, verdict.stale, page.stale] == [stale] * 4, tag
            assert all(record.stale is stale for record in page.records), tag
            assert all(record.stale is stale for record in (entry.view for entry in history)), tag
        # The archive still vouches for v1 mid-partition — which is exactly
        # why the verdict must say where it came from.
        assert answers["during"][2].matches and not answers["after"][2].matches
        assert answers["during"][3].records[0].checksum == v1
        assert answers["after"][3].records[0].checksum == v2