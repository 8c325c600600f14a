"""Service facade tests: sessions, futures, tenant isolation, admission."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.api import HyperProvService
from repro.common.errors import AdmissionRejectedError, ConfigurationError, NotFoundError
from repro.middleware.cache import ReadCacheMiddleware
from repro.middleware.tenancy import AdmissionControlMiddleware
from repro.middleware.config import PipelineConfig, build_client_pipeline
from repro.common.tenancy import strip_namespace, tenant_namespace
from tests.middleware.contract import collaborators


@pytest.fixture
def service(desktop_deployment) -> HyperProvService:
    return HyperProvService(desktop_deployment)


# ----------------------------------------------------------------- sessions
def test_default_session_gets_a_client_of_its_own(service, desktop_deployment):
    session = service.session()
    client, stock = session.backend.client, desktop_deployment.client
    assert client is not stock
    assert client.client_name == stock.client_name
    assert client.network is stock.network and client.storage is stock.storage
    handle = session.submit("svc/1", b"payload")
    assert session.in_flight == 1 and not handle.done
    session.drain()
    assert session.in_flight == 0 and handle.ok
    assert session.get("svc/1").checksum == handle.record.checksum


def test_a_session_configures_its_own_path_and_nothing_else(service):
    cached = service.session(pipeline=PipelineConfig(cache=True))
    client = cached.backend.client
    cache = client.pipeline.find(ReadCacheMiddleware)
    cached.store("iso/a", b"v1")
    miss = cached.get("iso/a")

    retrying = service.session(pipeline=PipelineConfig(retry_attempts=3))
    assert retrying.backend is not cached.backend
    assert retrying.backend.client.pipeline.middleware_names() == [
        "request-id", "metrics", "retry",
    ]
    # The first session keeps its chain, its live cache and its answers.
    assert client.pipeline.middleware_names() == ["request-id", "metrics", "read-cache"]
    assert client.pipeline.find(ReadCacheMiddleware) is cache
    hit = cached.get("iso/a")
    assert hit.checksum == miss.checksum and hit.latency_s < miss.latency_s
    assert client.metrics.get_counter("cache.hits") == 1
    # A later plain session gets the stock chain, not the last one opened.
    plain = service.session()
    assert plain.backend.client.pipeline.middleware_names() == ["request-id", "metrics"]


def test_a_pipeline_naming_a_tenant_needs_the_same_tenant_argument(service):
    with pytest.raises(ConfigurationError):
        service.session(pipeline=PipelineConfig(tenant="acme"))
    with pytest.raises(ConfigurationError):
        service.session(tenant="globex", pipeline=PipelineConfig(tenant="acme"))
    session = service.session(tenant="acme", pipeline=PipelineConfig(tenant="acme"))
    session.store("k", b"v")
    assert session.get("k").key == "k"
    assert session.backend.client.pipeline_config.tenant == "acme"


def test_a_pipeline_naming_a_cap_needs_the_same_cap_argument(service):
    with pytest.raises(ConfigurationError):
        service.session(tenant="acme", pipeline=PipelineConfig(max_in_flight=2))
    with pytest.raises(ConfigurationError):
        service.session(
            tenant="acme", pipeline=PipelineConfig(max_in_flight=2), max_in_flight=3
        )
    session = service.session(
        tenant="acme", pipeline=PipelineConfig(max_in_flight=2), max_in_flight=2
    )
    session.submit("a", b"1")
    session.submit("b", b"2")
    with pytest.raises(AdmissionRejectedError):
        session.submit("c", b"3")
    session.drain()


def test_multiple_submissions_stay_in_flight_until_drain(service):
    session = service.session()
    handles = [session.submit(f"svc/batch/{i}", b"x" * 64) for i in range(5)]
    assert session.in_flight == 5
    assert all(not handle.done for handle in handles)
    session.drain()
    assert all(handle.done and handle.ok for handle in handles)


def test_session_counts_submissions_without_keeping_them(service, desktop_deployment):
    """A closed-loop caller drives the engine itself and never drains the
    session: a committed, dropped handle must not stay reachable."""
    session = service.session()
    handle = session.submit("svc/dropped", b"payload")
    dropped = weakref.ref(handle)
    assert session.in_flight == 1
    del handle
    desktop_deployment.drain()  # the engine commits it; session.drain() is never called
    assert session.in_flight == 0
    gc.collect()
    assert dropped() is None


def test_context_manager_drains_on_exit(service):
    with service.session() as session:
        handle = session.submit("svc/ctx", b"payload")
        assert not handle.done
    assert handle.done and handle.ok


def test_done_callbacks_fire_on_commit(service):
    session = service.session()
    completions = []
    handle = session.submit("svc/cb", b"payload")
    handle.add_done_callback(lambda h: completions.append(h.committed_at))
    assert completions == []
    session.drain()
    assert len(completions) == 1 and completions[0] > 0
    # Late registration on a completed handle fires immediately.
    handle.add_done_callback(lambda h: completions.append(h.committed_at))
    assert len(completions) == 2


def test_session_with_pipeline_config_applies_order_batch(service, desktop_deployment):
    session = service.session(pipeline=PipelineConfig(order_batch_size=4))
    for index in range(4):
        session.submit(f"svc/obatch/{index}", b"y" * 32)
    session.drain()
    flushes = desktop_deployment.fabric.metrics.get_histogram("batcher.batch_size", shard="0")
    assert flushes.count >= 1


# ------------------------------------------------------------------ tenancy
def test_namespace_helpers_roundtrip():
    assert tenant_namespace("acme") == "tenant/acme/"
    assert strip_namespace("acme", "tenant/acme/k") == "k"
    assert strip_namespace("acme", "tenant/other/k") == "tenant/other/k"
    with pytest.raises(ConfigurationError):
        tenant_namespace("bad/name")
    with pytest.raises(ConfigurationError):
        tenant_namespace("")


def test_tenants_cannot_read_each_others_keys(service):
    alice = service.session(tenant="alice")
    bob = service.session(tenant="bob")
    alice.store("shared-name", b"alice-data")
    with pytest.raises(NotFoundError):
        bob.get("shared-name")
    with pytest.raises(NotFoundError):
        bob.history("shared-name")


def test_same_relative_key_is_distinct_per_tenant(service):
    alice = service.session(tenant="alice")
    bob = service.session(tenant="bob")
    alice.store("reading", b"alice-value")
    bob.store("reading", b"bob-value")
    assert alice.get("reading").checksum != bob.get("reading").checksum
    # Views are tenant-relative: no namespace prefix leaks out.
    assert alice.get("reading").key == "reading"
    assert len(alice.history("reading")) == 1


def test_tenant_dependencies_stay_in_namespace(service, desktop_deployment):
    alice = service.session(tenant="alice")
    alice.store("raw", b"base")
    alice.store("derived", b"out", dependencies=("raw",))
    view = alice.get("derived")
    assert view.dependencies == ("raw",)  # relative view...
    stored = desktop_deployment.peers[0].world_state.get("tenant/alice/derived")
    assert stored.document["dependencies"] == ["tenant/alice/raw"]  # namespaced ledger


def test_tenant_open_range_reaches_keys_sorting_after_tilde(service, desktop_deployment):
    # An open end is the namespace's end, not ``tenant/a/~``: keys past
    # ``~`` in code-point order are the tenant's too.
    keys = ["k1", "zz", "~tilde", "\x7fdel", "é-key"]
    tenant = service.session(tenant="a")
    for key in keys:
        tenant.store(key, key.encode())
    ranged = tenant.backend.client.get_by_range("", "").payload
    assert [row["key"] for row in ranged] == sorted(keys)
    everything = desktop_deployment.client.get_by_range("", "").payload
    assert [row["key"] for row in everything] == ["tenant/a/" + key for key in sorted(keys)]


def test_tenant_keys_are_namespaced_on_the_ledger(service, desktop_deployment):
    alice = service.session(tenant="alice")
    alice.store("item", b"v")
    peer = desktop_deployment.peers[0]
    assert "tenant/alice/item" in peer.history.keys()


def test_verify_is_tenant_scoped(service):
    alice = service.session(tenant="alice")
    bob = service.session(tenant="bob")
    alice.store("doc", b"alice-doc")
    bob.store("doc", b"bob-doc")
    assert alice.verify("doc", b"alice-doc")
    assert not alice.verify("doc", b"bob-doc")


# --------------------------------------------------------------- admission
def test_admission_cap_rejects_excess_in_flight(service):
    session = service.session(tenant="capped", max_in_flight=3)
    for index in range(3):
        session.submit(f"burst/{index}", b"x")
    with pytest.raises(AdmissionRejectedError) as excinfo:
        session.submit("burst/overflow", b"x")
    assert excinfo.value.tenant == "capped"
    assert excinfo.value.limit == 3


def test_admission_slots_free_after_drain(service):
    session = service.session(tenant="capped", max_in_flight=2)
    session.submit("a", b"1")
    session.submit("b", b"2")
    session.drain()
    session.submit("c", b"3")  # no longer rejected
    session.drain()
    assert session.get("c").checksum is not None


def test_admission_does_not_limit_reads(service):
    session = service.session(tenant="capped", max_in_flight=1)
    session.store("r", b"v")
    session.submit("in-flight", b"w")  # occupies the single slot
    for _ in range(5):
        assert session.get("r").key == "r"  # reads pass freely
    session.drain()


def test_admission_cap_is_shared_across_sessions_of_one_tenant(service):
    first = service.session(tenant="acme", max_in_flight=4)
    second = service.session(tenant="acme", max_in_flight=4)
    for index in range(2):
        first.submit(f"s1/{index}", b"x")
        second.submit(f"s2/{index}", b"x")
    # Four in flight tenant-wide: both sessions are now at the cap.
    with pytest.raises(AdmissionRejectedError):
        first.submit("s1/overflow", b"x")
    with pytest.raises(AdmissionRejectedError):
        second.submit("s2/overflow", b"x")
    # A different tenant is unaffected.
    other = service.session(tenant="globex", max_in_flight=4)
    other.submit("s3/0", b"x")
    first.drain()


def test_after_a_drain_every_session_of_a_tenant_reads_nothing_in_flight(service):
    """The in-flight count lives once, in the tenant's shared counter; no
    per-session copy is left at 1 when another session's commit frees it."""
    first = service.session(tenant="acme", max_in_flight=4)
    second = service.session(tenant="acme", max_in_flight=4)
    first.submit("a", b"x")
    second.submit("b", b"x")
    service.drain()
    counters = [
        session.backend.client.pipeline.find(AdmissionControlMiddleware)._counter
        for session in (first, second)
    ]
    assert counters[0] is counters[1]
    assert counters[0].value == 0
    assert "admission_in_flight" not in service.exposition()


def test_admission_cap_without_tenant(service):
    session = service.session(max_in_flight=2)
    session.submit("anon/1", b"x")
    session.submit("anon/2", b"x")
    with pytest.raises(AdmissionRejectedError):
        session.submit("anon/3", b"x")
    session.drain()


# ---------------------------------------------------------- config surface
def test_pipeline_config_names_include_tenancy_middlewares():
    pipeline = build_client_pipeline(
        PipelineConfig(tenant="acme", max_in_flight=8), lambda ctx: None, **collaborators()
    )
    # Admission sits above the prefix: a rejected write costs nothing.
    assert pipeline.middleware_names() == [
        "request-id", "metrics", "admission-control", "tenant-prefix",
    ]


def test_pipeline_config_validates_tenancy_fields():
    with pytest.raises(ConfigurationError):
        PipelineConfig(tenant="has/slash")
    with pytest.raises(ConfigurationError):
        PipelineConfig(max_in_flight=-1)
