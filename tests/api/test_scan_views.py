"""What a caller gets back from a scan: private views, built once from rows.

The client is another simulated machine that happens to share a Python
heap with the peers.  These tests pin the boundary the row path crosses:

* whatever a caller does to a returned view or record changes no later
  answer, no peer's parsed ``document`` and no other replica;
* decoding is per-row attribute work, not per-row JSON: the number of
  ``json.loads``/``json.dumps`` calls a query makes does not depend on how
  many rows it returns;
* the tenant filter and the shard merge hold on the rows themselves — a
  tenant's merged page on a 4-shard router equals the single-shard page,
  carries nobody else's row, and its bookmarks resume without overlap;
* a tenant session's views — and its client's leftover operators — carry
  no namespaced string anywhere;
* a read builds one ``RecordView`` per returned row and nothing else per
  row, and a committed value that is not a well-typed record fails (or is
  skipped) the same way on every read.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import HyperProvService, RecordView, StoreRequest
from repro.chaincode.records import ProvenanceRecord
from repro.common.errors import TenancyError, ValidationError
from repro.common.hashing import checksum_of
from repro.core.topology import build_desktop_deployment
from repro.ledger.scan import HistoryPage, ScanPage
from repro.middleware.config import PipelineConfig


@pytest.fixture
def service(desktop_deployment) -> HyperProvService:
    return HyperProvService(desktop_deployment)


def _store_items(session, count: int, label: str = "") -> None:
    session.store("scan/raw", f"{label}raw".encode())
    for index in range(count):
        session.store(
            f"scan/item-{index:02d}", f"{label}payload-{index}".encode(),
            dependencies=("scan/raw",),
            metadata={"hot": index % 2 == 0, "nested": {"tags": ["a", index]}},
        )


def _documents(deployment) -> dict:
    """Every peer's parsed documents, snapshotted through JSON (no sharing)."""
    return {
        peer.name: json.dumps(
            {entry.key: entry.document for entry in peer.world_state.range_query_versioned("", "")}, sort_keys=True
        )
        for peer in deployment.peers
    }


def _flat(views) -> list:
    return [dataclasses.asdict(view) | {"latency_s": 0.0} for view in views]


# ---------------------------------------------------------------- isolation
def test_mutating_returned_views_and_records_moves_nothing(service, desktop_deployment):
    session = service.session()
    _store_items(session, 6)
    client = desktop_deployment.client
    selector = {"_prefix": "scan/item", "metadata.hot": True}

    before = _flat(session.query(selector, limit=10).records)
    documents = _documents(desktop_deployment)
    assert len(before) == 3

    page = session.query(selector, limit=10)
    for view in page.records:
        view.metadata["hot"] = "tampered"
        view.metadata["nested"]["tags"].append("tampered")
        view.metadata.clear()
    for view in client.as_store().query(selector, limit=10).records:
        view.metadata["nested"]["tags"].clear()
        view.metadata["extra"] = True
    for row in client.get_by_range("scan/item", "scan/item~").payload:
        row["record"].metadata["nested"]["tags"].append("tampered")
        row["record"].metadata.clear()
    explained = session.query(selector, limit=10, explain=True)
    explained.plan["residual_fields"].append("tampered")
    explained.plan.clear()

    assert _flat(session.query(selector, limit=10).records) == before
    assert _documents(desktop_deployment) == documents
    assert session.query(selector, limit=10, explain=True).plan["residual_fields"] == [
        "metadata.hot"
    ]
    # Another replica answers the same rows (its versions are the shared ones).
    other = next(
        peer.name for peer in desktop_deployment.peers
        if peer.name != client._context.anchor_peer
    )
    response, _latency = desktop_deployment.fabric.query(
        client.client_name, "hyperprov", "query",
        [json.dumps({**selector, "_limit": 10}, sort_keys=True)], peer_name=other,
    )
    assert [row.key for row in response.scan.rows] == [view["key"] for view in before]
    assert [row.document["metadata"] for row in response.scan.rows] == [
        view["metadata"] for view in before
    ]
    # The range answer was private too.
    ranged = client.get_by_range("scan/item", "scan/item~").payload
    assert len(ranged) == 6
    assert all(row["record"].dependencies == ("scan/raw",) for row in ranged)
    assert ranged[0]["record"].metadata["nested"]["tags"] == ["a", 0]


def test_every_view_field_is_a_plain_attribute_when_the_read_returns(service):
    session = service.session()
    _store_items(session, 2)
    view = session.query({"_prefix": "scan/item"}).records[0]
    fields = {field.name for field in dataclasses.fields(view)}
    assert set(vars(view)) == fields  # nothing left to compute on first access
    assert view == dataclasses.replace(view)
    with pytest.raises(dataclasses.FrozenInstanceError):
        view.key = "other"


# ------------------------------------------------------------- decode count
def _json_calls(monkeypatch, action) -> dict:
    calls = {"loads": 0, "dumps": 0}
    loads, dumps = json.loads, json.dumps

    def counting_loads(*args, **kwargs):
        calls["loads"] += 1
        return loads(*args, **kwargs)

    def counting_dumps(*args, **kwargs):
        calls["dumps"] += 1
        return dumps(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(json, "loads", counting_loads)
        patch.setattr(json, "dumps", counting_dumps)
        action()
    return calls


def test_json_calls_of_a_query_do_not_grow_with_the_rows_returned(service, monkeypatch):
    session = service.session()
    for index in range(60):
        session.submit(
            f"count/{index:02d}", checksum=checksum_of(f"count-{index}".encode()),
            location=f"ext://count/{index}", metadata={"hot": True},
        )
    session.drain()
    selector = {"_prefix": "count/", "metadata.hot": True}
    pages = {}

    def ask(limit):
        pages[limit] = session.query(selector, limit=limit)

    ask(50)  # every visited version has parsed its document once
    small = _json_calls(monkeypatch, lambda: ask(5))
    large = _json_calls(monkeypatch, lambda: ask(50))
    assert (len(pages[5].records), len(pages[50].records)) == (5, 50)
    assert small == large
    # What is left is the request, not the rows: the chaincode parses the selector.
    assert large["loads"] == 1

    client = session.backend.client
    client.get_by_range("count/00", "count/55")
    narrow = _json_calls(monkeypatch, lambda: client.get_by_range("count/00", "count/05"))
    wide = _json_calls(monkeypatch, lambda: client.get_by_range("count/00", "count/55"))
    assert narrow == wide and wide["loads"] == 0


def _tenant_reads_on_four_shards():
    """A cached ``acme`` session on 4 shards: ``one`` has 1 version, ``four`` 4."""
    deployment = build_desktop_deployment(shards=4)
    service = HyperProvService(deployment)
    session = service.session(tenant="acme", pipeline=PipelineConfig(shards=4, cache=True))
    for key, versions in (("one", 1), ("four", 4)):
        for version in range(versions):
            session.submit(key, f"{key}.{version}".encode())
            service.drain()
    return session


def test_a_tenants_reads_on_four_shards_render_no_page(monkeypatch):
    session = _tenant_reads_on_four_shards()
    client = session.backend.client
    rendered = []
    for page_type in (ScanPage, HistoryPage):
        render = page_type.payload

        def counting(page, _render=render):
            rendered.append(type(page).__name__)
            return _render(page)

        monkeypatch.setattr(page_type, "payload", counting)
    reads = {
        "query": lambda: session.query({"_prefix": ""}),
        "paged query": lambda: session.query({"_prefix": ""}, limit=1),
        "range": lambda: client.get_by_range("", ""),
        "history": lambda: session.history("four"),
    }
    hits = client.metrics.counter("cache.hits")
    for name, read in reads.items():
        for attempt in ("miss", "hit"):
            before = hits.value
            assert read(), name
            assert (hits.value > before) is (attempt == "hit"), (name, attempt)
    assert rendered == []


def test_a_tenants_history_on_four_shards_parses_each_version_once(monkeypatch):
    session = _tenant_reads_on_four_shards()
    for key, versions in (("one", 1), ("four", 4)):
        answers = []
        calls = _json_calls(monkeypatch, lambda: answers.append(session.history(key)))
        assert len(answers[0]) == versions
        assert calls == {"loads": versions, "dumps": 0}


def test_a_record_outside_the_tenants_namespace_fails_its_view():
    document = ProvenanceRecord(
        key="tenant/b/x", checksum=checksum_of(b"x"), location="loc", creator="c",
        organization="org1", certificate_fingerprint="", dependencies=["tenant/b/raw"],
    ).to_json()
    assert RecordView.from_document(document, "b").key == "x"
    with pytest.raises(TenancyError, match="outside tenant 'a'"):
        RecordView.from_document(document, "a")
    assert issubclass(TenancyError, ValidationError)
    # Dependencies stay lenient: a foreign one comes back as it is.
    own = json.loads(document) | {"key": "tenant/a/y"}
    assert RecordView.from_document(own, "a").dependencies == ("tenant/b/raw",)


# ------------------------------------------------------- construction count
def _constructions(monkeypatch, action) -> dict:
    """How many views and records ``action`` builds (every way there is to build one)."""
    built = {"views": 0, "records": 0}
    view_init, record_init = RecordView.__init__, ProvenanceRecord.__init__
    from_document = RecordView.from_document.__func__

    def counting_view_init(self, *args, **kwargs):
        built["views"] += 1
        view_init(self, *args, **kwargs)

    def counting_from_document(cls, *args, **kwargs):
        built["views"] += 1
        return from_document(cls, *args, **kwargs)

    def counting_record_init(self, *args, **kwargs):
        built["records"] += 1
        record_init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(RecordView, "__init__", counting_view_init)
        patch.setattr(RecordView, "from_document", classmethod(counting_from_document))
        patch.setattr(ProvenanceRecord, "__init__", counting_record_init)
        action()
    return built


@pytest.mark.parametrize("tenant", [None, "acme"])
def test_a_read_builds_one_view_per_row_and_no_record_per_row(service, monkeypatch, tenant):
    session = service.session(tenant=tenant)
    for index in range(60):
        for version in range(4 if index == 0 else 1):
            session.submit(
                f"count/{index:02d}", checksum=checksum_of(f"{index}.{version}".encode()),
                location=f"ext://count/{index}", metadata={"hot": True},
            )
            session.drain()
    selector = {"_prefix": "count/", "metadata.hot": True}
    for reader in (session, session.backend):
        answers = []
        built = {
            rows: _constructions(
                monkeypatch, lambda: answers.append(reader.query(selector, limit=rows))
            )
            for rows in (5, 50)
        }
        assert [len(page.records) for page in answers] == [5, 50]
        assert (built[5]["views"], built[50]["views"]) == (5, 50)
        # The peer's chaincode may build records of its own; none per returned row.
        assert built[5]["records"] == built[50]["records"]

        built = {
            key: _constructions(monkeypatch, lambda: answers.append(reader.history(key)))
            for key in ("count/01", "count/00")
        }
        assert [len(history) for history in answers[2:]] == [1, 4]
        assert (built["count/01"]["views"], built["count/00"]["views"]) == (1, 4)
        assert built["count/01"]["records"] == built["count/00"]["records"]

        built = _constructions(monkeypatch, lambda: reader.get("count/00"))
        assert built == {"views": 1, "records": 0}


# --------------------------------------------------------- malformed values
def _malformed(document: dict) -> dict:
    """Committed values that are not well-typed records, by what is wrong."""
    def broken(**fields):
        return json.dumps({**document, "key": "bad/x", **fields}, sort_keys=True)

    return {
        "not JSON": "not json",
        "not an object": "[1, 2]",
        "dependencies not a list": broken(dependencies="bad/good"),
        "metadata not an object": broken(metadata=[1]),
        "non-numeric timestamp": broken(timestamp="soon"),
        "non-numeric size_bytes": broken(size_bytes="big"),
        "null size_bytes": broken(size_bytes=None),
    }


def test_a_value_that_is_not_a_well_typed_record_fails_every_read_alike(desktop_deployment):
    """Put straight into the peers' state: no chaincode ``set`` would commit these."""
    client = desktop_deployment.client
    store = client.as_store()
    store.store(StoreRequest(key="bad/good", data=b"fine"))
    document = json.loads(desktop_deployment.peers[0].world_state.get("bad/good").value)
    reads = {
        "get": lambda: store.get("bad/x"),
        "history": lambda: store.history("bad/x"),
        "query": lambda: store.query({"creator": "hyperprov-client"}),
        "get_by_range": lambda: client.get_by_range("bad/", "bad/~"),
    }
    for version, (what, value) in enumerate(_malformed(document).items(), start=1):
        for peer in desktop_deployment.peers:
            peer.world_state.put("bad/x", value, (90 + version, 0))
            peer.history.record("bad/x", f"tx-bad-{version}", 90 + version, 0, 1.0, value)
        for name, read in reads.items():
            if name == "query" and what in ("not JSON", "not an object"):
                # The chaincode's selector match skips what has no document.
                assert [view.key for view in read().records] == ["bad/good"], what
                continue
            with pytest.raises(ValidationError, match="malformed provenance record"):
                read()


# ------------------------------------------------------- tenants and shards
TENANTS = ("acme", "globex", "initech")


def _tenant_sessions(shards: int):
    deployment = build_desktop_deployment(shards=shards)
    service = HyperProvService(deployment)
    sessions = {
        tenant: service.session(tenant=tenant, pipeline=PipelineConfig(shards=shards))
        for tenant in TENANTS
    }
    # Same key names in every namespace, different payloads per tenant.
    for tenant, session in sessions.items():
        _store_items(session, 9, label=f"{tenant}:")
    return deployment, sessions


def _walk_pages(session, selector, limit):
    pages, bookmark = [], None
    for _ in range(20):
        page = session.query(selector, limit=limit, bookmark=bookmark)
        pages.append(page)
        bookmark = page.bookmark
        if bookmark is None:
            break
    return pages


def test_a_tenants_merged_page_equals_the_single_shard_page():
    _sharded_deployment, sharded = _tenant_sessions(shards=4)
    _single_deployment, single = _tenant_sessions(shards=1)
    selector = {"_prefix": "scan/item"}
    for tenant in TENANTS:
        merged = _walk_pages(sharded[tenant], selector, limit=4)
        plain = _walk_pages(single[tenant], selector, limit=4)
        merged_rows = [view for page in merged for view in page.records]
        plain_rows = [view for page in plain for view in page.records]
        keys = [view.key for view in merged_rows]
        # Pages resume strictly after their bookmark: no overlap, nothing lost.
        assert keys == [f"scan/item-{index:02d}" for index in range(9)]
        assert [page.bookmark for page in merged] == [page.bookmark for page in plain]
        assert all("tenant/" not in (page.bookmark or "") for page in merged)
        assert [(v.key, v.checksum, v.dependencies, v.metadata) for v in merged_rows] == [
            (v.key, v.checksum, v.dependencies, v.metadata) for v in plain_rows
        ]
        # Nobody else's row: every checksum is of this tenant's own payload.
        assert [view.checksum for view in merged_rows] == [
            checksum_of(f"{tenant}:payload-{index}".encode()) for index in range(9)
        ]


def test_the_tenant_filter_holds_on_rows_a_selector_cannot_scope():
    """A selector on record fields matches every namespace on the shard;
    the rows of the others are dropped from the page, hence from its text."""
    deployment, sessions = _tenant_sessions(shards=1)
    acme = sessions["acme"]
    client = acme.backend.client
    response, _latency, _ctx = client._query(
        "query", "query", [json.dumps({"metadata.hot": True})]
    )
    assert [row.key for row in response.scan.rows] == [
        f"tenant/acme/scan/item-{index:02d}" for index in range(0, 9, 2)
    ]
    assert response.payload is None
    decoded = json.loads(response.scan.payload())
    assert [row["key"] for row in decoded] == [row.key for row in response.scan.rows]
    # Unscoped, the same selector sees all three namespaces on the peer.
    everyone, _ = deployment.fabric.query(
        client.client_name, "hyperprov", "query", [json.dumps({"metadata.hot": True})]
    )
    assert len(everyone.scan.rows) == 3 * len(response.scan.rows)


# ------------------------------------------------------------ namespace leak
def _strings(value, seen=None):
    """Every string reachable from ``value`` through fields and containers."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _strings(key, seen)
            yield from _strings(item, seen)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _strings(item, seen)
    elif hasattr(value, "__dict__"):
        yield from _strings(vars(value), seen)


def test_no_string_reachable_from_a_tenant_sessions_views_is_namespaced(service):
    acme = service.session(tenant="acme")
    acme.store("a/raw", b"raw")
    acme.store("a/derived", b"v1", dependencies=("a/raw",))
    acme.store("a/derived", b"v2", dependencies=("a/raw",), metadata={"hot": True})

    view = acme.get("a/derived")
    assert view.key == "a/derived" and view.dependencies == ("a/raw",)
    answers = [
        view,
        acme.history("a/derived"),
        acme.query({"_prefix": "a/"}),
        acme.query({"metadata.hot": True}, limit=1),
    ]
    # The store answers what the session answers; the client's leftover
    # operators answer in the same namespace-free keys.
    client = acme.backend.client
    direct = acme.backend.get("a/derived")
    assert dataclasses.asdict(direct) | {"latency_s": 0.0} == _flat([view])[0]
    dependencies = client.get_dependencies("a/derived")
    ranged = client.get_by_range("", "")
    assert dependencies.payload == ["a/raw"]
    assert [row["key"] for row in ranged.payload] == ["a/derived", "a/raw"]
    answers += [direct, dependencies, ranged]
    leaked = [text for answer in answers for text in _strings(answer) if "tenant/" in text]
    assert leaked == []
