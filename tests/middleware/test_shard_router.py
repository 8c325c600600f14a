"""Unit tests for consistent-hash shard routing and fan-out merging."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.common.tenancy import namespace_end, tenant_of_prefix
from repro.ledger.history import HistoryEntry
from repro.ledger.scan import HistoryPage, ScanPage
from repro.ledger.world_state import VersionedValue
from repro.middleware.base import TransactionPipeline
from repro.middleware.context import KEY_SCOPED_FUNCTIONS, Context, OperationKind
from repro.middleware.sharding import (
    ConsistentHashRing,
    ShardRouterMiddleware,
    routing_key,
)
from repro.middleware.tenancy import TenantPrefixMiddleware
from tests.middleware.contract import answer, collaborators, response_with


def shard_router(shards):
    wiring = collaborators()
    return ShardRouterMiddleware(shards, wiring["metrics"], wiring["placement"])


def ctx_for(function, args, kind=OperationKind.READ):
    return Context(
        operation=function, kind=kind, chaincode="hyperprov",
        function=function, args=list(args),
    )


def page_of(*rows):
    """A shard's plain ``getbyrange`` answer: ``(key, record document)`` rows."""
    return ScanPage(tuple(
        VersionedValue(json.dumps(document), (0, index), key)
        for index, (key, document) in enumerate(rows)
    ))


# ------------------------------------------------------------------- ring
def test_ring_is_deterministic_and_total():
    a, b = ConsistentHashRing(4), ConsistentHashRing(4)
    for i in range(100):
        key = f"k/{i}"
        shard = a.route(key)
        assert shard == b.route(key)
        assert 0 <= shard < 4


def test_ring_spreads_keys_over_every_shard():
    ring = ConsistentHashRing(4)
    owners = {ring.route(f"bench/{i:05d}") for i in range(200)}
    assert owners == {0, 1, 2, 3}


def test_ring_growth_remaps_only_part_of_the_keyspace():
    small, large = ConsistentHashRing(2), ConsistentHashRing(4)
    keys = [f"k/{i}" for i in range(400)]
    moved = sum(1 for key in keys if small.route(key) != large.route(key))
    # Consistent hashing: roughly half the keys move 2 → 4, never all.
    assert 0 < moved < len(keys)


def test_ring_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        ConsistentHashRing(0)


# ----------------------------------------------------------- tenant routing
def test_routing_key_collapses_tenant_namespace():
    assert routing_key("tenant/acme/a/b") == "tenant/acme"
    assert routing_key("tenant/acme/zzz") == "tenant/acme"
    assert routing_key("plain/key") == "plain/key"


def test_tenant_keys_co_locate_on_one_shard():
    ring = ConsistentHashRing(4)
    shards = {ring.route(f"tenant/acme/item-{i}") for i in range(50)}
    assert len(shards) == 1


# ----------------------------------------------------------- single routing
def test_router_tags_writes_with_owning_shard():
    router = shard_router(4)
    seen = []
    pipeline = TransactionPipeline(
        [router], terminal=lambda ctx: seen.append(ctx.tags["shard"]) or answer(ctx)
    )
    pipeline.execute(ctx_for("set", ["k/1", "cs", "loc"], kind=OperationKind.WRITE))
    pipeline.execute(ctx_for("get", ["k/1"]))
    assert seen[0] == seen[1]  # reads follow their key's writes


@pytest.mark.parametrize("function", sorted(KEY_SCOPED_FUNCTIONS))
def test_router_routes_every_key_scoped_function_to_its_key_owner(function):
    router = shard_router(4)
    # A key away from shard 0, where a call with no routing rule lands.
    key = next(f"k/{i}" for i in range(100) if router.ring.route(f"k/{i}") != 0)
    for kind in OperationKind:
        assert router.route_for(ctx_for(function, [key], kind=kind)) == router.ring.route(key)


# ----------------------------------------------------------------- fan-out
def fan_out_pipeline(router, payload_by_shard):
    def terminal(ctx):
        shard = ctx.tags["shard"]
        payload = payload_by_shard.get(shard)
        if payload is None:
            return (response_with(None), 0.0)
        return (response_with(payload), 0.1 * (shard + 1))

    return TransactionPipeline([router], terminal)


def test_range_fan_out_merges_rows_in_key_order():
    router = shard_router(2)
    pipeline = fan_out_pipeline(router, {
        0: page_of(("b", {"timestamp": 1.0})), 1: page_of(("a", {"timestamp": 2.0})),
    })
    response, latency = pipeline.execute(ctx_for("getbyrange", ["", "~"]))
    assert response.payload is None
    merged = json.loads(response.scan.payload())
    assert [row["key"] for row in merged] == ["a", "b"]
    assert [row.key for row in response.scan.rows] == ["a", "b"]
    # Fan-out latency is the slowest shard's, not the sum.
    assert latency == pytest.approx(0.2)


def test_fan_out_dedupes_duplicate_keys_keeping_newest():
    router = shard_router(2)
    old = page_of(("k", {"timestamp": 1.0, "v": "old"}))
    new = page_of(("k", {"timestamp": 9.0, "v": "new"}))
    pipeline = fan_out_pipeline(router, {0: old, 1: new})
    response, _ = pipeline.execute(ctx_for("getbyrange", ["", "~"]))
    merged = json.loads(response.scan.payload())
    assert len(merged) == 1
    assert json.loads(merged[0]["record"])["v"] == "new"


def test_history_fan_out_orders_by_commit_timestamp():
    router = shard_router(2)
    shard0 = HistoryPage((HistoryEntry("k", "t2", 0, 0, 5.0, "v2"),))
    shard1 = HistoryPage((
        HistoryEntry("k", "t1", 7, 0, 1.0, "v1"),
        HistoryEntry("k", "t3", 8, 0, 5.0, None, is_delete=True),
    ))
    pipeline = fan_out_pipeline(router, {0: shard0, 1: shard1})
    response, _ = pipeline.execute(ctx_for("getkeyhistory", ["k"]))
    # Ordered by timestamp, not by per-shard block numbers; a tie falls
    # back to the block.  The merged answer is the shards' own entries.
    assert [entry.tx_id for entry in response.history.entries] == ["t1", "t2", "t3"]
    assert {*response.history.entries} == {*shard0.entries, *shard1.entries}
    assert response.payload is None
    assert response.size == len(response.history.payload())


def test_fan_out_tolerates_missing_shards():
    router = shard_router(2)
    rows = page_of(("a", {"timestamp": 1.0}))
    pipeline = fan_out_pipeline(router, {1: rows})  # shard 0 misses
    response, _ = pipeline.execute(ctx_for("getbyrange", ["", "~"]))
    assert [row.key for row in response.scan.rows] == ["a"]


def test_fan_out_with_no_hits_returns_first_error():
    router = shard_router(2)
    pipeline = fan_out_pipeline(router, {})
    response, _ = pipeline.execute(ctx_for("getkeyhistory", ["ghost"]))
    assert response.payload is None


def test_single_shard_router_never_fans_out():
    router = shard_router(1)
    calls = []
    pipeline = TransactionPipeline(
        [router],
        terminal=lambda ctx: calls.append(ctx.tags["shard"]) or (response_with("[]"), 0.1),
    )
    pipeline.execute(ctx_for("getbyrange", ["", "~"]))
    assert calls == [0]


# ------------------------------------------------------ confined fan-out
def test_tenant_of_prefix_needs_the_whole_namespace():
    assert tenant_of_prefix("tenant/a/") == "a"
    assert tenant_of_prefix("tenant/a/x/y") == "a"
    # ``tenant/a`` also starts ``tenant/ab/…``; ``tenant/`` starts everyone.
    assert tenant_of_prefix("tenant/a") == ""
    assert tenant_of_prefix("tenant/") == ""
    assert tenant_of_prefix("plain/a/") == ""
    assert namespace_end("a") == "tenant/a0"
    assert "tenant/a/\U0010ffff" < namespace_end("a") < "tenant/ab/"


def asked_shards(placement, function, args):
    """The shards a 4-shard router asks for one read, in call order."""
    asked = []

    def terminal(ctx):
        asked.append(ctx.tags["shard"])
        if function == "getkeyhistory":
            return (response_with(HistoryPage(())), 0.0)
        return (response_with(page_of()), 0.0)

    router = ShardRouterMiddleware(4, collaborators()["metrics"], placement)
    TransactionPipeline([router], terminal).execute(ctx_for(function, args))
    return asked


def tenant_read_args(function, tenant="a"):
    """Args of a tenant session's read after ``tenant-prefix`` rewrote them."""
    args = {
        "query": [json.dumps({"metadata.hot": True})],
        "getbyrange": ["", ""],
        "getkeyhistory": ["k"],
    }[function]
    ctx = ctx_for(function, args)
    TenantPrefixMiddleware(tenant, collaborators()["metrics"])._rewrite_args(ctx)
    return ctx.args


@pytest.mark.parametrize("function", ["query", "getbyrange", "getkeyhistory"])
def test_a_tenant_read_asks_the_namespace_owner_and_its_placement(function):
    owner = ConsistentHashRing(4).route("tenant/a/k")
    args = tenant_read_args(function)
    assert asked_shards(lambda tenant: frozenset(), function, args) == [owner]
    # Placement adds the shards a re-sized ring wrote to, drops unknown ones.
    other = (owner + 1) % 4
    placed = asked_shards(lambda tenant: frozenset({other, 9}), function, args)
    assert placed == sorted({owner, other})


@pytest.mark.parametrize("function, args", [
    ("query", [json.dumps({"_prefix": "tenant/a"})]),
    ("query", [json.dumps({"_prefix": "tenant/"})]),
    ("query", [json.dumps({"metadata.hot": True})]),
    ("query", ["{not json"]),
    ("getbyrange", ["tenant/a/", "tenant/b/"]),
    ("getbyrange", ["tenant/a/x", "tenant/a0\x00"]),
    ("getbyrange", ["tenant/a/", ""]),
    ("getbyrange", ["tenant/a", "tenant/a0"]),
    ("getkeyhistory", ["plain/key"]),
    ("getkeyhistory", ["tenant/a"]),
])
def test_an_unconfined_read_still_asks_every_shard(function, args):
    assert asked_shards(lambda tenant: frozenset(), function, args) == [0, 1, 2, 3]


def test_a_range_ending_at_the_namespace_end_is_confined():
    owner = ConsistentHashRing(4).route("tenant/a/k")
    args = ["tenant/a/m", namespace_end("a")]
    assert asked_shards(lambda tenant: frozenset(), "getbyrange", args) == [owner]


def test_a_placement_naming_every_shard_asks_every_shard():
    args = tenant_read_args("getkeyhistory")
    assert asked_shards(lambda tenant: frozenset(range(4)), "getkeyhistory", args) == [0, 1, 2, 3]
