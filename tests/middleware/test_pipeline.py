"""Unit tests for the transaction pipeline core and stock middlewares."""

import dataclasses

import pytest

from repro.common.errors import ConfigurationError, NetworkError, NotFoundError, TenancyError
from repro.ledger.scan import ScanPage
from repro.middleware.base import Middleware, TransactionPipeline
from repro.middleware.config import PipelineConfig, build_client_pipeline
from repro.middleware.context import KEY_SCOPED_FUNCTIONS, Context, OperationKind
from repro.middleware.retry import RetryMiddleware
from repro.middleware.tenancy import TenantPrefixMiddleware
from repro.middleware.tracing import RequestIdMiddleware
from tests.middleware.contract import answer, collaborators, response_with


def retry(max_attempts):
    wiring = collaborators()
    return RetryMiddleware(max_attempts, wiring["engine"], wiring["metrics"])


def tenant_prefix(tenant):
    return TenantPrefixMiddleware(tenant, collaborators()["metrics"])


def make_ctx(function="get", kind=OperationKind.READ, args=None, operation=None):
    return Context(
        operation=operation or function,
        kind=kind,
        chaincode="hyperprov",
        function=function,
        args=args if args is not None else ["k"],
    )


class Recorder(Middleware):
    """Records enter/exit order so chain composition is observable."""

    def __init__(self, label, log):
        self.name = label
        self.label = label
        self.log = log

    def handle(self, ctx, call_next):
        self.log.append(f"enter:{self.label}")
        result = call_next(ctx)
        self.log.append(f"exit:{self.label}")
        return result


#: What ``ShortCircuit`` answers without asking the rest of the chain.
SHORT_CIRCUITED = (response_with("short-circuited"), 0.0)


class ShortCircuit(Middleware):
    name = "short-circuit"

    def handle(self, ctx, call_next):
        return SHORT_CIRCUITED


class Failing(Middleware):
    name = "failing"

    def __init__(self, error):
        self.error = error

    def handle(self, ctx, call_next):
        raise self.error


class TestPipelineOrdering:
    def test_middlewares_run_in_declared_order(self):
        log = []
        done = answer(make_ctx())
        pipeline = TransactionPipeline(
            [Recorder("a", log), Recorder("b", log), Recorder("c", log)],
            terminal=lambda ctx: log.append("terminal") or done,
        )
        result = pipeline.execute(make_ctx())
        assert result is done
        assert log == [
            "enter:a", "enter:b", "enter:c", "terminal",
            "exit:c", "exit:b", "exit:a",
        ]

    def test_execute_returns_the_terminal_result(self):
        done = answer(make_ctx())
        pipeline = TransactionPipeline([], terminal=lambda ctx: done)
        assert pipeline.execute(make_ctx()) is done

    def test_short_circuit_skips_downstream(self):
        log = []
        pipeline = TransactionPipeline(
            [Recorder("outer", log), ShortCircuit(), Recorder("inner", log)],
            terminal=lambda ctx: log.append("terminal") or answer(ctx),
        )
        result = pipeline.execute(make_ctx())
        assert result is SHORT_CIRCUITED
        assert "enter:inner" not in log
        assert "terminal" not in log

    def test_error_short_circuits_and_propagates(self):
        log = []
        pipeline = TransactionPipeline(
            [Recorder("outer", log), Failing(NotFoundError("nope"))],
            terminal=lambda ctx: log.append("terminal") or answer(ctx),
        )
        with pytest.raises(NotFoundError):
            pipeline.execute(make_ctx())
        assert "terminal" not in log
        # The outer middleware saw the enter but never the exit.
        assert log == ["enter:outer"]

    def test_rejects_non_middleware(self):
        with pytest.raises(ConfigurationError):
            TransactionPipeline([object()], terminal=answer)

    def test_find_and_names(self):
        log = []
        recorder = Recorder("a", log)
        pipeline = TransactionPipeline([recorder], terminal=answer)
        assert pipeline.middleware_names() == ["a"]
        assert pipeline.find(Recorder) is recorder
        assert pipeline.find(ShortCircuit) is None


class TestRequestId:
    def test_assigns_stable_deterministic_ids(self):
        pipeline = TransactionPipeline(
            [RequestIdMiddleware(collaborators()["events"])], terminal=answer
        )
        first, second = make_ctx(), make_ctx()
        pipeline.execute(first)
        pipeline.execute(second)
        assert first.request_id.startswith("req-")
        assert first.request_id != second.request_id

    def test_publishes_request_and_response_events(self):
        bus = collaborators()["events"]
        seen = []
        bus.subscribe("pipeline.request", lambda t, p: seen.append((t, p)))
        bus.subscribe("pipeline.response", lambda t, p: seen.append((t, p)))
        bus.subscribe("pipeline.error", lambda t, p: seen.append((t, p)))
        pipeline = TransactionPipeline(
            [RequestIdMiddleware(bus)], terminal=answer
        )
        pipeline.execute(make_ctx())
        assert [topic for topic, _ in seen] == ["pipeline.request", "pipeline.response"]

        failing = TransactionPipeline(
            [RequestIdMiddleware(bus), Failing(NotFoundError("x"))],
            terminal=answer,
        )
        with pytest.raises(NotFoundError):
            failing.execute(make_ctx())
        assert [topic for topic, _ in seen][-1] == "pipeline.error"


class TestRetry:
    def test_retries_until_success(self):
        attempts = []

        def flaky(ctx):
            attempts.append(ctx.attempt)
            if len(attempts) < 3:
                raise NetworkError("transient")
            return done

        done = answer(make_ctx())
        pipeline = TransactionPipeline(
            [retry(3)],
            terminal=flaky,
        )
        ctx = make_ctx()
        assert pipeline.execute(ctx) is done
        assert attempts == [1, 2, 3]
        # Backoff advanced the virtual start time of later attempts.
        assert ctx.at_time is not None and ctx.at_time > 0

    def test_gives_up_and_propagates_last_error(self):
        calls = []

        def always_down(ctx):
            calls.append(ctx.attempt)
            raise NetworkError(f"down ({ctx.attempt})")

        middleware = retry(3)
        pipeline = TransactionPipeline([middleware], terminal=always_down)
        with pytest.raises(NetworkError, match=r"down \(3\)"):
            pipeline.execute(make_ctx())
        assert calls == [1, 2, 3]
        assert middleware.metrics.get_counter("retry.exhausted") == 1

    def test_non_retryable_errors_pass_straight_through(self):
        calls = []

        def not_found(ctx):
            calls.append(1)
            raise NotFoundError("no such key")

        pipeline = TransactionPipeline(
            [retry(5)], terminal=not_found
        )
        with pytest.raises(NotFoundError):
            pipeline.execute(make_ctx())
        assert calls == [1]

    def test_exponential_backoff_schedule(self):
        starts = []

        def always_down(ctx):
            starts.append(ctx.at_time)
            raise NetworkError("down")

        pipeline = TransactionPipeline(
            [retry(4)], terminal=always_down
        )
        with pytest.raises(NetworkError):
            pipeline.execute(make_ctx())
        # The first attempt starts "now"; the retries wait 0.05, 0.1, 0.2 s.
        assert starts[0] is None
        assert starts[1:] == pytest.approx([0.05, 0.15, 0.35])

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            retry(0)


class TestPipelineConfig:
    def built(self, config):
        """Names of the chain actually built."""
        return build_client_pipeline(config, answer, **collaborators()).middleware_names()

    def test_exactly_twelve_fields(self):
        assert [field.name for field in dataclasses.fields(PipelineConfig)] == [
            "retry_attempts", "cache", "cache_capacity", "order_batch_size",
            "tenant", "max_in_flight", "shards", "scheduler", "indexes",
            "continuous_queries", "store_and_forward", "stale_reads",
        ]

    def test_default_config_enables_observation_only(self):
        assert self.built(PipelineConfig()) == ["request-id", "metrics"]

    def test_full_config_ordering(self):
        assert self.built(PipelineConfig(retry_attempts=3, cache=True)) == [
            "request-id", "metrics", "retry", "read-cache",
        ]

    def test_benchmark_tenant_config_builds_the_traced_chain(self):
        # The shape of benchmarks/perf/workloads.py::tenant_pipeline plus the
        # session's tenant and cap: every probe-bound middleware, in order.
        config = PipelineConfig(
            shards=4, cache=True, cache_capacity=256,
            indexes=("creator", "metadata.*"), continuous_queries=True,
            scheduler="fair-share", retry_attempts=2,
            tenant="tenant-0", max_in_flight=64,
        )
        assert self.built(config) == [
            "request-id", "metrics", "query-planner", "admission-control",
            "tenant-prefix", "retry", "read-cache", "shard-router",
        ]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(retry_attempts=0)
        with pytest.raises(ConfigurationError):
            PipelineConfig(order_batch_size=0)

    def test_build_client_pipeline_matches_config(self):
        pipeline = build_client_pipeline(
            PipelineConfig(cache=True, retry_attempts=2),
            answer,
            **collaborators(),
        )
        assert pipeline.middleware_names() == [
            "request-id", "metrics", "retry", "read-cache",
        ]


# ------------------------------------------------------------ tenant prefix
def test_tenant_prefix_scopes_rich_query_prefix_selector():
    import json

    middleware = tenant_prefix("acme")

    scoped = make_ctx("query", args=[json.dumps({"_prefix": "sensor/", "creator": "x"})])
    middleware._rewrite_args(scoped)
    assert json.loads(scoped.args[0])["_prefix"] == "tenant/acme/sensor/"

    # Without an explicit _prefix the scan is scoped to the whole tenant
    # namespace, so candidate selection skips other tenants' keys.
    unscoped = make_ctx("query", args=[json.dumps({"creator": "x"})])
    middleware._rewrite_args(unscoped)
    assert json.loads(unscoped.args[0])["_prefix"] == "tenant/acme/"

    # Malformed selectors pass through so the chaincode still rejects them.
    for bad in ["{not json", "{}", json.dumps({"_prefix": 7})]:
        ctx = make_ctx("query", args=[bad])
        middleware._rewrite_args(ctx)
        assert ctx.args[0] == bad


def test_tenant_prefix_namespaces_the_key_of_a_delete():
    seen = []
    ctx = make_ctx("delete", kind=OperationKind.WRITE, args=["doc/1"])
    tenant_prefix("acme").handle(
        ctx, lambda inner: seen.append(list(inner.args)) or answer(inner)
    )
    assert seen == [["tenant/acme/doc/1"]]


@pytest.mark.parametrize("function", sorted(KEY_SCOPED_FUNCTIONS))
def test_tenant_prefix_namespaces_the_key_of_every_key_scoped_function(function):
    from repro.chaincode.hyperprov import HyperProvChaincode

    kind = (
        OperationKind.WRITE if function in HyperProvChaincode.INVOKE_FUNCTIONS
        else OperationKind.READ
    )
    seen = []
    ctx = make_ctx(function, kind=kind, args=["doc/1"])
    tenant_prefix("acme").handle(
        ctx, lambda inner: seen.append(list(inner.args)) or answer(inner)
    )
    assert seen == [["tenant/acme/doc/1"]]


def test_tenant_prefix_refuses_a_function_it_has_no_rule_for():
    from repro.common.errors import ValidationError

    reached = []
    ctx = make_ctx("transfer", kind=OperationKind.WRITE, args=["doc/1"])
    with pytest.raises(ValidationError, match="no namespace rule"):
        tenant_prefix("acme").handle(ctx, reached.append)
    assert reached == [] and ctx.args == ["doc/1"]


@pytest.mark.parametrize("bookmark, relative", [
    ("tenant/acme/k", "k"),
    ("tenant/other/k", None),
])
def test_tenant_prefix_hands_back_only_its_own_bookmark(bookmark, relative):
    page = ScanPage((), bookmark, enveloped=True)
    pipeline = build_client_pipeline(
        PipelineConfig(tenant="acme"), lambda ctx: (response_with(page), 0.1),
        **collaborators(),
    )
    ctx = make_ctx("getbyrange", args=["a", "b", "1", ""])
    if relative is None:
        with pytest.raises(TenancyError, match="tenant/other/k"):
            pipeline.execute(ctx)
    else:
        response, _ = pipeline.execute(ctx)
        assert response.scan.bookmark == relative
