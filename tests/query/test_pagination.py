"""Bookmark pagination: chaincode envelopes, the client surface, tenant
namespacing and multi-shard fan-out merging."""

import json

import pytest

from repro.api.service import HyperProvService
from repro.chaincode.hyperprov import HyperProvChaincode
from repro.chaincode.records import ProvenanceRecord
from repro.chaincode.shim import ChaincodeStub
from repro.common.hashing import checksum_of
from repro.core.topology import build_desktop_deployment
from repro.ledger.history import HistoryDatabase
from repro.ledger.world_state import WorldState
from repro.middleware.config import PipelineConfig


def record(key):
    return ProvenanceRecord(
        key=key,
        checksum=checksum_of(key.encode()),
        location=f"ssh://storage/{key}",
        creator="client1",
        organization="org1",
        certificate_fingerprint="fp",
    )


def state_with_keys(*keys):
    state = WorldState()
    for position, key in enumerate(keys):
        state.put(key, record(key).to_json(), (0, position))
    return state


def getbyrange(state, args):
    return HyperProvChaincode().invoke(
        ChaincodeStub(
            tx_id="tx-1",
            channel="ch",
            function="getbyrange",
            args=args,
            world_state=state,
            history=HistoryDatabase(),
            creator=None,
            timestamp=1.0,
        )
    )


FIVE = ["r/0", "r/1", "r/2", "r/3", "r/4"]


# --------------------------------------------------- chaincode getbyrange
def test_two_argument_getbyrange_stays_a_plain_list():
    response = getbyrange(state_with_keys(*FIVE), ["r/", "r/~"])
    rows = json.loads(response.scan.payload())
    assert isinstance(rows, list)
    assert [row["key"] for row in rows] == FIVE


def test_getbyrange_limit_pages_with_bookmark_resume():
    state = state_with_keys(*FIVE)
    first = json.loads(getbyrange(state, ["r/", "r/~", "2"]).scan.payload())
    assert [row["key"] for row in first["records"]] == ["r/0", "r/1"]
    assert first["bookmark"] == "r/1"
    second = json.loads(getbyrange(state, ["r/", "r/~", "2", "r/1"]).scan.payload())
    assert [row["key"] for row in second["records"]] == ["r/2", "r/3"]
    # The last page fills exactly, so one trailing empty page closes the walk.
    third = json.loads(getbyrange(state, ["r/", "r/~", "2", "r/3"]).scan.payload())
    assert [row["key"] for row in third["records"]] == ["r/4"]
    assert third["bookmark"] is None


def test_getbyrange_zero_limit_returns_everything_in_one_envelope():
    envelope = json.loads(getbyrange(state_with_keys(*FIVE), ["r/", "r/~", "0"]).scan.payload())
    assert [row["key"] for row in envelope["records"]] == FIVE
    assert envelope["bookmark"] is None


def test_getbyrange_resumes_past_a_deleted_bookmark_key():
    state = state_with_keys(*FIVE)
    first = json.loads(getbyrange(state, ["r/", "r/~", "2"]).scan.payload())
    state.delete(first["bookmark"], (1, 0))  # r/1 vanishes between pages
    second = json.loads(
        getbyrange(state, ["r/", "r/~", "2", first["bookmark"]]).scan.payload()
    )
    assert [row["key"] for row in second["records"]] == ["r/2", "r/3"]


@pytest.mark.parametrize("bad_limit", ["abc", "-1"])
def test_getbyrange_rejects_bad_limits(bad_limit):
    assert not getbyrange(state_with_keys(*FIVE), ["r/", "r/~", bad_limit]).is_ok


# -------------------------------------------------------- client surface
def submit_keys(deployment, keys):
    from repro.api.protocol import StoreRequest

    store = deployment.client.as_store()
    for key in keys:
        store.submit(StoreRequest(key=key, data=key.encode()))
    deployment.drain()


def test_client_query_pagination_walks_every_match(desktop_deployment):
    keys = [f"page/{i}" for i in range(5)]
    submit_keys(desktop_deployment, keys)
    store = desktop_deployment.client.as_store()
    collected, bookmark, pages = [], None, 0
    while True:
        result = store.query({"_prefix": "page/"}, limit=2, bookmark=bookmark)
        collected.extend(view.key for view in result.records)
        pages += 1
        if result.bookmark is None:
            break
        bookmark = result.bookmark
    assert collected == keys
    assert pages == 3


def test_client_query_explain_surfaces_the_plan(desktop_deployment):
    submit_keys(desktop_deployment, ["plan/a", "plan/b"])
    result = desktop_deployment.client.as_store().query(
        {"_prefix": "plan/"}, explain=True
    )
    assert [view.key for view in result.records] == ["plan/a", "plan/b"]
    assert result.plan["access_path"] == "prefix"


def test_client_get_by_range_pagination(desktop_deployment):
    keys = [f"rng/{i}" for i in range(5)]
    submit_keys(desktop_deployment, keys)
    client = desktop_deployment.client
    first = client.get_by_range("rng/", "rng/~", limit=3)
    assert [row["key"] for row in first.payload] == keys[:3]
    assert first.bookmark == "rng/2"
    second = client.get_by_range("rng/", "rng/~", limit=3, bookmark=first.bookmark)
    assert [row["key"] for row in second.payload] == keys[3:]
    assert second.bookmark is None


def test_unpaginated_query_has_no_bookmark(desktop_deployment):
    submit_keys(desktop_deployment, ["solo/a"])
    result = desktop_deployment.client.as_store().query({"_prefix": "solo/"})
    assert result.bookmark is None
    assert result.plan is None


# ------------------------------------------------------- tenant sessions
def test_tenant_session_pagination_is_tenant_relative(desktop_deployment):
    service = HyperProvService(desktop_deployment)
    acme = service.session(tenant="acme", pipeline=PipelineConfig())
    rival = service.session(tenant="rival", pipeline=PipelineConfig())
    for i in range(4):
        acme.submit(f"doc/{i}", b"x")
    rival.submit("doc/intruder", b"x")
    service.drain()

    first = acme.query({"_prefix": "doc/"}, limit=2)
    assert [view.key for view in first.records] == ["doc/0", "doc/1"]
    assert first.bookmark == "doc/1"  # tenant-relative resume token
    second = acme.query({"_prefix": "doc/"}, limit=2, bookmark=first.bookmark)
    assert [view.key for view in second.records] == ["doc/2", "doc/3"]
    # The other tenant's rows are invisible at every page.
    everything = acme.query({"_prefix": "doc/"})
    assert [view.key for view in everything.records] == [f"doc/{i}" for i in range(4)]
    acme.close()
    rival.close()


def test_tenant_range_bookmark_round_trips_through_the_namespace(desktop_deployment):
    service = HyperProvService(desktop_deployment)
    session = service.session(tenant="acme", pipeline=PipelineConfig())
    for i in range(4):
        session.submit(f"doc/{i}", b"x")
    service.drain()
    client = session.backend.client
    first = client.get_by_range("doc/", "doc/~", limit=2)
    # Keys and bookmark are both tenant-relative — clients feed the
    # bookmark back verbatim and the tenancy middleware re-namespaces it
    # on the way down.
    assert [row["key"] for row in first.payload] == ["doc/0", "doc/1"]
    assert first.bookmark == "doc/1"
    second = client.get_by_range("doc/", "doc/~", limit=2, bookmark=first.bookmark)
    assert [row["key"] for row in second.payload] == ["doc/2", "doc/3"]
    session.close()


# ------------------------------------------------------- shard fan-out
@pytest.fixture
def sharded():
    return build_desktop_deployment(seed=42, shards=2)


def test_sharded_query_pagination_merges_to_one_global_walk(sharded):
    service = HyperProvService(sharded)
    session = service.session(pipeline=PipelineConfig(shards=2))
    keys = [f"fan/{i:02d}" for i in range(12)]
    for key in keys:
        session.submit(key, b"x")
    session.drain()
    collected, bookmark = [], None
    while True:
        result = session.query({"_prefix": "fan/"}, limit=5, bookmark=bookmark)
        page_keys = [view.key for view in result.records]
        assert len(page_keys) <= 5
        collected.extend(page_keys)
        if result.bookmark is None:
            break
        bookmark = result.bookmark
    # Every key exactly once, globally key-ordered across both shards.
    assert collected == keys


def test_sharded_range_pagination(sharded):
    service = HyperProvService(sharded)
    session = service.session(pipeline=PipelineConfig(shards=2))
    keys = [f"srange/{i:02d}" for i in range(9)]
    for key in keys:
        session.submit(key, b"x")
    session.drain()
    collected, bookmark = [], None
    while True:
        result = session.backend.client.get_by_range(
            "srange/", "srange/~", limit=4, bookmark=bookmark
        )
        collected.extend(row["key"] for row in result.payload)
        if result.bookmark is None:
            break
        bookmark = result.bookmark
    assert collected == keys


def test_sharded_explain_reports_fan_out(sharded):
    service = HyperProvService(sharded)
    session = service.session(pipeline=PipelineConfig(shards=2))
    for i in range(6):
        session.submit(f"xfan/{i}", b"x")
    session.drain()
    result = session.query({"_prefix": "xfan/"}, explain=True)
    assert result.plan["fan_out"] == 2
    assert len(result.plan["shards"]) == 2
    assert result.plan["access_path"] == "prefix"
