"""Deadline, circuit-breaker, store-and-forward and retry-jitter policies."""

import pytest

from repro.api.protocol import StoreRequest
from repro.common.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    NetworkError,
)
from repro.common.hashing import checksum_of
from repro.consensus.batching import BatchConfig
from repro.core.topology import DeploymentSpec, build_deployment
from repro.devices.profiles import DESKTOP_PROFILES, XEON_E5_1603
from repro.faults import FaultInjector, FaultPlan, PartitionFault
from repro.ledger.transaction import TxValidationCode
from repro.middleware.config import PipelineConfig
from repro.middleware.context import Context, OperationKind
from repro.middleware.resilience import (
    CircuitBreakerMiddleware,
    DeadlineMiddleware,
    StoreAndForwardMiddleware,
)
from repro.middleware.retry import RetryPolicy
from repro.fabric.proposal import TransactionHandle
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import DeterministicRandom


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


# --------------------------------------------------------------- deadline
class TestDeadlineMiddleware:
    def test_stamps_the_absolute_deadline(self):
        middleware = DeadlineMiddleware(deadline_s=2.0)
        ctx = read_ctx(at_time=10.0)
        middleware.handle(ctx, lambda c: ("payload", 0.5))
        assert ctx.tags["deadline_at"] == 12.0

    def test_late_read_raises_instead_of_returning_quietly(self):
        middleware = DeadlineMiddleware(deadline_s=1.0)
        with pytest.raises(DeadlineExceededError, match="past its deadline"):
            middleware.handle(read_ctx(at_time=0.0), lambda c: ("payload", 1.5))

    def test_on_time_read_passes_through(self):
        middleware = DeadlineMiddleware(deadline_s=1.0)
        assert middleware.handle(read_ctx(), lambda c: ("payload", 0.2)) == (
            "payload",
            0.2,
        )

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ConfigurationError):
            DeadlineMiddleware(deadline_s=0.0)


# ---------------------------------------------------------------- breaker
class TestCircuitBreaker:
    def failing(self, ctx):
        raise NetworkError("unreachable")

    def test_opens_after_threshold_and_rejects_fast(self):
        breaker = CircuitBreakerMiddleware(failure_threshold=3, cooldown_s=5.0)
        for _ in range(3):
            with pytest.raises(NetworkError):
                breaker.handle(write_ctx(at_time=1.0), self.failing)
        assert breaker.breaker().state == "open"
        # While open, calls are rejected without touching the backend.
        with pytest.raises(CircuitOpenError):
            breaker.handle(write_ctx(at_time=2.0), lambda c: "never-called")

    def test_half_open_probe_closes_on_success(self):
        breaker = CircuitBreakerMiddleware(failure_threshold=1, cooldown_s=1.0)
        with pytest.raises(NetworkError):
            breaker.handle(write_ctx(at_time=0.0), self.failing)
        # Past the cooldown one probe goes through; success closes.
        assert breaker.handle(write_ctx(at_time=1.5), lambda c: "ok") == "ok"
        assert breaker.breaker().state == "closed"

    def test_half_open_probe_failure_reopens_with_fresh_cooldown(self):
        breaker = CircuitBreakerMiddleware(failure_threshold=1, cooldown_s=1.0)
        with pytest.raises(NetworkError):
            breaker.handle(write_ctx(at_time=0.0), self.failing)
        with pytest.raises(NetworkError):
            breaker.handle(write_ctx(at_time=1.5), self.failing)
        state = breaker.breaker()
        assert state.state == "open"
        assert state.opened_until == 2.5

    def test_breakers_are_per_shard(self):
        breaker = CircuitBreakerMiddleware(failure_threshold=1, cooldown_s=9.0)
        ctx = write_ctx(at_time=0.0)
        ctx.tags["shard"] = 1
        with pytest.raises(NetworkError):
            breaker.handle(ctx, self.failing)
        # Shard 1 is open; shard 0 still serves.
        other = write_ctx(at_time=0.1)
        assert breaker.handle(other, lambda c: "ok") == "ok"
        blocked = write_ctx(at_time=0.2)
        blocked.tags["shard"] = 1
        with pytest.raises(CircuitOpenError):
            breaker.handle(blocked, lambda c: "ok")

    def test_success_resets_the_consecutive_failure_count(self):
        breaker = CircuitBreakerMiddleware(failure_threshold=2, cooldown_s=1.0)
        with pytest.raises(NetworkError):
            breaker.handle(write_ctx(), self.failing)
        breaker.handle(write_ctx(), lambda c: "ok")
        with pytest.raises(NetworkError):
            breaker.handle(write_ctx(), self.failing)
        assert breaker.breaker().state == "closed"


# -------------------------------------------------------- store-and-forward
class TestStoreAndForward:
    def test_parks_unreachable_write_and_replays_on_heal(self):
        engine = SimulationEngine()
        saf = StoreAndForwardMiddleware(engine, replay_interval_s=0.5)
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
        assert saf.queued == 1
        engine.run(until=3.0)
        assert saf.queued == 0
        # The replayed handle completing completes the placeholder too.
        healed[0].complete(2.5, TxValidationCode.VALID, block_number=4)
        assert placeholder.is_valid
        assert placeholder.tx_id == "tx-real"
        assert placeholder.commit_block == 4
        assert placeholder.timings["saf_replays"] >= 1.0

    def test_abandons_after_max_replays(self):
        engine = SimulationEngine()
        saf = StoreAndForwardMiddleware(engine, replay_interval_s=0.5, max_replays=3)

        def always_down(ctx):
            raise NetworkError("partitioned")

        placeholder = saf.handle(write_ctx(at_time=0.0), always_down)
        engine.run_until_idle()
        # Bounded: the replay loop gave up instead of spinning forever.
        assert saf.queued == 0
        assert placeholder.validation_code is TxValidationCode.INVALID_OTHER_REASON
        assert placeholder.timings["saf_replays"] == 3.0

    def test_reads_and_healthy_writes_bypass_the_queue(self):
        engine = SimulationEngine()
        saf = StoreAndForwardMiddleware(engine)
        assert saf.handle(read_ctx(), lambda c: "fresh") == "fresh"
        handle = TransactionHandle(tx_id="tx-1", submitted_at=0.0, function="post")
        assert saf.handle(write_ctx(), lambda c: handle) is handle
        assert saf.queued == 0

    def test_queueing_drops_the_deadline_budget(self):
        engine = SimulationEngine()
        saf = StoreAndForwardMiddleware(engine)
        ctx = write_ctx(at_time=0.0)
        ctx.tags["deadline_at"] = 1.0

        def down(inner):
            raise NetworkError("partitioned")

        saf.handle(ctx, down)
        assert "deadline_at" not in ctx.tags


# ------------------------------------------------------------ retry jitter
class TestRetryJitter:
    def test_no_jitter_keeps_the_historical_schedule(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.1, jitter_fraction=0.0)
        rng = DeterministicRandom(3)
        plain = [policy.delay_before(a, rng=rng) for a in (2, 3, 4)]
        assert plain == [policy.delay_before(a) for a in (2, 3, 4)]

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.1, jitter_fraction=0.2)
        base = RetryPolicy(max_attempts=4, backoff_s=0.1)

        def draws():
            rng = DeterministicRandom(9)
            return [policy.delay_before(a, rng=rng) for a in (2, 3, 4)]

        first, second = draws(), draws()
        assert first == second
        for jittered, attempt in zip(first, (2, 3, 4)):
            clean = base.delay_before(attempt)
            assert clean * 0.8 <= jittered <= clean * 1.2
            assert jittered != clean

    def test_jitter_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_fraction=1.0)


# ------------------------------------------------------------- config knobs
class TestConfigWiring:
    def test_resilience_knobs_change_the_middleware_names(self):
        config = PipelineConfig(
            deadline_s=2.0,
            circuit_breaker=True,
            store_and_forward=True,
            cache=True,
            stale_reads=True,
        )
        names = config.middleware_names()
        assert "deadline" in names
        assert "circuit-breaker" in names
        assert "store-and-forward" in names
        # Ordering: deadline and SAF wrap retry/cache; breaker is innermost.
        assert names.index("deadline") < names.index("store-and-forward")
        assert names[-1] == "circuit-breaker"

    def test_defaults_add_nothing(self):
        names = PipelineConfig().middleware_names()
        for name in ("deadline", "circuit-breaker", "store-and-forward"):
            assert name not in names

    def test_invalid_knobs_raise(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(deadline_s=-1.0)
        with pytest.raises(ConfigurationError):
            PipelineConfig(retry_jitter=1.0)
        with pytest.raises(ConfigurationError):
            PipelineConfig(saf_max_replays=0)
        with pytest.raises(ConfigurationError):
            PipelineConfig(circuit_cooldown_s=0.0)

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
        deployment.client.configure_pipeline(PipelineConfig(cache=True, stale_reads=True))
        store = deployment.client.as_store()
        engine = deployment.engine
        v1, v2 = checksum_of(b"v1"), checksum_of(b"v2")
        selector = {"_prefix": "sensor/"}
        answers = {}

        def submit(checksum):
            store.submit(StoreRequest(key="sensor/a", checksum=checksum, location="edge://a"))

        def read_all(tag):
            answers[tag] = (
                store.get("sensor/a"),
                store.history("sensor/a"),
                store.verify("sensor/a", v1),
                store.query(selector),
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
            assert all(record.stale is stale for record in history.records), tag
        # The archive still vouches for v1 mid-partition — which is exactly
        # why the verdict must say where it came from.
        assert answers["during"][2].matches and not answers["after"][2].matches
        assert answers["during"][3].records[0].checksum == v1
        assert answers["after"][3].records[0].checksum == v2
