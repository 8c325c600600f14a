"""Tests for lineage walked over committed records, alone and through a client."""

import pytest

from repro.api.protocol import StoreRequest
from repro.api.service import HyperProvService
from repro.chaincode.records import ProvenanceRecord
from repro.common.errors import NotFoundError, ValidationError
from repro.common.hashing import checksum_of
from repro.core.topology import build_desktop_deployment
from repro.middleware.config import PipelineConfig
from repro.middleware.sharding import ConsistentHashRing
from repro.provenance import lineage_report


def record_for(key, payload, dependencies=(), creator="client1", organization="org1"):
    return ProvenanceRecord(
        key=key,
        checksum=checksum_of(payload),
        location=f"ssh://storage/{key}",
        creator=creator,
        organization=organization,
        certificate_fingerprint="fp",
        dependencies=list(dependencies),
        size_bytes=len(payload),
    )


def artifact(key, payload):
    return f"artifact:{key}@{checksum_of(payload)[:16]}"


@pytest.fixture
def pipeline_records():
    """raw-a, raw-b -> merged -> report (a realistic derivation pipeline)."""
    return [
        record_for("raw-a", b"a"),
        record_for("raw-b", b"b", creator="client2"),
        record_for("merged", b"ab", dependencies=["raw-a", "raw-b"]),
        record_for("report", b"summary", dependencies=["merged"]),
    ]


# ---------------------------------------------------------------- artifacts
def test_artifact_version_id_is_stable():
    """Re-posting the same bytes names the same artifact; new bytes a new one."""
    first = lineage_report([record_for("k", b"v1")], "k").root
    again = lineage_report([record_for("k", b"v1"), record_for("k", b"v1")], "k").root
    other = lineage_report([record_for("k", b"v1"), record_for("k", b"v2")], "k").root
    assert first == again == artifact("k", b"v1")
    assert other == artifact("k", b"v2")


def test_ingest_rejects_missing_dependency():
    with pytest.raises(ValidationError, match="never-recorded"):
        lineage_report([record_for("derived", b"x", dependencies=["never-recorded"])], "derived")


def test_ingest_rejects_invalid_record():
    bad = record_for("k", b"x")
    bad.checksum = "short"
    with pytest.raises(ValidationError):
        lineage_report([bad], "k")


def test_every_record_is_validated_not_only_those_of_the_key():
    bad = record_for("other", b"x")
    bad.checksum = "short"
    with pytest.raises(ValidationError):
        lineage_report([record_for("k", b"v1"), bad], "k")


def test_latest_artifact_tracks_newest_version():
    report = lineage_report([record_for("k", b"v1"), record_for("k", b"v2")], "k")
    assert report.root == artifact("k", b"v2")


def test_a_dependency_resolves_to_the_version_latest_at_ingest():
    records = [
        record_for("a", b"v1"),
        record_for("d", b"d", dependencies=["a"]),
        record_for("a", b"v2"),
    ]
    derived = lineage_report(records, "d")
    assert (derived.ancestors, derived.depth) == ([artifact("a", b"v1")], 1)
    # The newer version of ``a`` came later, so nothing derives from it, but
    # the descendants of a key are walked from every one of its versions.
    source = lineage_report(records, "a")
    assert (source.root, source.ancestors) == (artifact("a", b"v2"), [])
    assert source.descendants == [artifact("d", b"d")]


def test_unknown_key_raises(pipeline_records):
    with pytest.raises(NotFoundError):
        lineage_report(pipeline_records, "ghost")


# ------------------------------------------------------------------ reports
def test_ancestors_of_report_cover_whole_pipeline(pipeline_records):
    report = lineage_report(pipeline_records, "report")
    assert report.ancestors == sorted(
        [artifact("raw-a", b"a"), artifact("raw-b", b"b"), artifact("merged", b"ab")]
    )


def test_descendants_of_raw_input(pipeline_records):
    report = lineage_report(pipeline_records, "raw-a")
    assert report.descendants == sorted(
        [artifact("merged", b"ab"), artifact("report", b"summary")]
    )
    assert report.ancestors == [] and report.depth == 0


def test_lineage_report_contents(pipeline_records):
    report = lineage_report(pipeline_records, "report")
    assert report.ancestor_count == 3
    assert report.descendant_count == 0
    assert report.depth == 2
    assert report.contributing_agents == ["agent:org1/client1", "agent:org1/client2"]


def test_agents_for_key_only_includes_contributors(pipeline_records):
    assert lineage_report(pipeline_records, "raw-a").contributing_agents == [
        "agent:org1/client1"
    ]


def test_depth_is_the_shortest_distance_to_the_farthest_ancestor():
    """A shortcut edge counts: depth is a BFS distance, not the longest path."""
    records = [
        record_for("a", b"a"),
        record_for("b", b"b", dependencies=["a"]),
        record_for("c", b"c", dependencies=["b"]),
        record_for("d", b"d", dependencies=["c", "a"]),
    ]
    report = lineage_report(records, "d")
    assert report.ancestors == sorted(artifact(k, k.encode()) for k in "abc")
    assert report.depth == 2


# --------------------------------------------------------------- edge cases
def test_a_self_dependency_derives_from_the_previous_version():
    records = [
        record_for("k", b"v1", creator="c1"),
        record_for("k", b"v2", dependencies=["k"], creator="c2"),
    ]
    report = lineage_report(records, "k")
    assert report.root == artifact("k", b"v2")
    assert report.ancestors == [artifact("k", b"v1")]
    # The later version derives from the earlier one, so it is a descendant
    # of the key: descendants are walked from every version, not the root.
    assert report.descendants == [artifact("k", b"v2")]
    assert report.depth == 1
    assert report.contributing_agents == ["agent:org1/c1", "agent:org1/c2"]
    # A first version cannot depend on itself: nothing earlier exists.
    with pytest.raises(ValidationError):
        lineage_report([record_for("k", b"v1", dependencies=["k"])], "k")


def test_a_reposted_checksum_closes_a_cycle():
    records = [
        record_for("k", b"same", creator="c1"),
        record_for("j", b"j", dependencies=["k"], creator="c3"),
        # Same bytes under k again: the same artifact, now derived from j.
        record_for("k", b"same", dependencies=["j"], creator="c2"),
    ]
    k, j = artifact("k", b"same"), artifact("j", b"j")
    report = lineage_report(records, "k")
    assert (report.root, report.ancestors, report.descendants, report.depth) == (
        k, [j], [j], 1
    )
    # The merged artifact carries the agents of both its posts, j its own.
    assert report.contributing_agents == ["agent:org1/c1", "agent:org1/c2", "agent:org1/c3"]
    other = lineage_report(records, "j")
    assert (other.ancestors, other.descendants) == ([k], [k])


# ------------------------------------------------------------ through a client
def test_lineage_crosses_shards():
    """Versions of one key on two shards: descendants come from both."""
    deployment = build_desktop_deployment(seed=42, shards=2)
    service = HyperProvService(deployment)
    ring = ConsistentHashRing(2)
    source, late = [key for key in (f"cross/{i}" for i in range(64)) if ring.route(key) == 1][:2]

    # A one-shard pipeline writes everything to shard 0 ...
    with service.session(pipeline=PipelineConfig(shards=1)) as one:
        one.submit(source, b"v1")
        one.drain()
        one.submit("cross/early", b"early", dependencies=(source,))
        one.drain()
    # ... the two-shard ring puts the second version and its derivative on 1.
    with service.session(pipeline=PipelineConfig(shards=2)) as two:
        two.submit(source, b"v2")
        two.drain()
        two.submit(late, b"late", dependencies=(source,))
        two.drain()
    for shard, payload in ((0, b"v1"), (1, b"v2")):
        peers = deployment.fabric.shard(shard).peers
        held = peers[sorted(peers)[0]].world_state.get_value(source)
        assert checksum_of(payload) in held

    client = deployment.client
    engine = deployment.fabric.engine
    before = (engine.now, engine.pending_events)
    report = client.get_lineage(source)
    assert report.root == artifact(source, b"v2")
    assert report.descendants == sorted(
        [artifact("cross/early", b"early"), artifact(late, b"late")]
    )
    assert client.get_lineage("cross/early").ancestors == [artifact(source, b"v1")]
    assert client.get_lineage(late).ancestors == [artifact(source, b"v2")]
    # Lineage reads committed history: no virtual time, nothing scheduled.
    assert (engine.now, engine.pending_events) == before


def test_a_tenants_lineage_holds_only_its_own_artifacts():
    """Two tenants and a global client write the same relative keys."""
    deployment = build_desktop_deployment(seed=42)
    service = HyperProvService(deployment)
    store = deployment.client.as_store()
    store.submit(StoreRequest(key="raw", data=b"global raw"))
    deployment.drain()
    clients = {}
    for tenant in ("a", "b"):
        session = service.session(tenant=tenant)
        session.submit("raw", f"{tenant} raw".encode())
        session.drain()
        session.submit("derived", f"{tenant} derived".encode(), dependencies=("raw",))
        session.drain()
        clients[tenant] = session.backend.client
    # A non-tenant client may write into a namespace with a dependency
    # outside it; the tenant's walk drops that edge without error.
    store.submit(StoreRequest(key="tenant/a/foreign", data=b"foreign", dependencies=("raw",)))
    deployment.drain()

    for tenant, client in clients.items():
        own_raw = artifact("raw", f"{tenant} raw".encode())
        own_derived = artifact("derived", f"{tenant} derived".encode())
        assert client.get_dependencies("derived").payload == ["raw"]
        derived = client.get_lineage("derived")
        assert (derived.root, derived.ancestors, derived.descendants) == (
            own_derived, [own_raw], []
        )
        raw = client.get_lineage("raw")
        assert (raw.root, raw.descendants) == (own_raw, [own_derived])
    foreign = clients["a"].get_lineage("foreign")
    assert (foreign.root, foreign.ancestors) == (artifact("foreign", b"foreign"), [])
    with pytest.raises(NotFoundError):
        clients["b"].get_lineage("foreign")

    # The global client sees every namespace under its ledger keys.
    everything = deployment.client.get_lineage("raw")
    assert everything.root == artifact("raw", b"global raw")
    assert everything.descendants == [artifact("tenant/a/foreign", b"foreign")]


def test_a_key_only_the_global_client_wrote_is_not_a_tenants():
    deployment = build_desktop_deployment(seed=42)
    deployment.client.as_store().submit(StoreRequest(key="only-global", data=b"g"))
    deployment.drain()
    tenant = HyperProvService(deployment).session(tenant="a")
    with pytest.raises(NotFoundError):
        tenant.backend.client.get_lineage("only-global")
    assert deployment.client.get_lineage("only-global").root == artifact("only-global", b"g")
