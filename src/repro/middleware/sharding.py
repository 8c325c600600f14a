"""Shard routing: consistent hashing of provenance keys onto channels.

With the Fabric host running N channels (:class:`~repro.fabric.network.ChannelShard`),
some pipeline link has to decide which channel a given operation belongs
to.  :class:`ShardRouterMiddleware` is that link:

* **Writes and key-scoped reads** route by consistent hashing on the
  provenance key.  The hash ring is tenant-prefix aware: a key living in a
  tenant namespace (``tenant/<name>/…``) hashes on ``tenant/<name>`` alone,
  so all of one tenant's keys co-locate on a single channel — its commits,
  cache invalidations and history stay shard-local.
* **Range scans, rich queries and key history** fan out and merge:
  range/rich rows are combined in key order (deduplicated on key, newest
  record wins), history entries are merged in commit-timestamp order.  A
  read confined to one tenant namespace — a ``query`` whose ``_prefix``
  starts ``tenant/<name>/``, a ``getbyrange`` inside the namespace, the
  history of a namespaced key — fans out to the shards that hold the
  namespace: the ring owner plus every shard the network's ``placement``
  table says has ordered a write under it.  Everything else fans out to
  all shards, because shard ownership can move when the ring is re-sized
  between runs — old versions of a key may live on the shard that owned
  it under the previous layout.

The router sits at the bottom of the client chain (below the read cache,
so a cached read never pays the fan-out) and communicates the decision to
the terminal through ``ctx.tags["shard"]``; backends without shards simply
ignore the tag.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import replace
from itertools import chain
from operator import attrgetter
from typing import Callable, Dict, FrozenSet, List, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.metrics import MetricsRegistry
from repro.common.tenancy import (
    TENANT_PREFIX,
    namespace_end,
    tenant_of_key,
    tenant_of_prefix,
)
from repro.ledger.scan import HistoryPage, ScanPage
from repro.ledger.world_state import VersionedValue
from repro.middleware.base import Handler, Middleware, ReadResult, Result
from repro.middleware.context import KEY_SCOPED_FUNCTIONS, Context

#: Read functions the router fans out and merges.
FAN_OUT_FUNCTIONS = frozenset({"getbyrange", "query", "getkeyhistory"})

#: Ring points per shard.
VIRTUAL_NODES = 64

#: tenant → the shards that have ordered a write under its namespace.
Placement = Callable[[str], FrozenSet[int]]

#: Cross-shard order of a key's versions (see ``_merge_history``).
_COMMIT_ORDER = attrgetter("timestamp", "block_number")


def routing_key(ledger_key: str) -> str:
    """The portion of a ledger key the hash ring sees.

    Tenant-namespaced keys collapse to their ``tenant/<name>`` prefix so a
    tenant's whole keyspace co-locates on one shard.
    """
    tenant = tenant_of_key(ledger_key)
    if tenant:
        return TENANT_PREFIX + tenant
    return ledger_key


class ConsistentHashRing:
    """A classic consistent-hash ring over shard indices.

    Each shard owns :data:`VIRTUAL_NODES` deterministic points on the ring
    (MD5 of ``shard:<index>:<replica>``), so adding a shard only remaps
    ~1/N of the keyspace instead of reshuffling everything — the property
    that makes growing from 2 to 4 channels an incremental migration.
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ConfigurationError("a hash ring needs at least one shard")
        self.shards = shards
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(VIRTUAL_NODES):
                digest = hashlib.md5(
                    f"shard:{shard}:{replica}".encode("ascii")
                ).hexdigest()
                points.append((int(digest[:16], 16), shard))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int(hashlib.md5(key.encode("utf-8")).hexdigest()[:16], 16)

    def route(self, key: str) -> int:
        """The shard index owning ``key`` (via its routing prefix)."""
        return self.owner(routing_key(key))

    def owner(self, point: str) -> int:
        """The shard index owning an already-collapsed routing key."""
        if self.shards == 1:
            return 0
        position = bisect.bisect(self._hashes, self._hash(point))
        if position == len(self._hashes):
            position = 0
        return self._owners[position]


class ShardRouterMiddleware(Middleware):
    """Routes operations onto channel shards (see module docstring)."""

    name = "shard-router"

    def __init__(
        self,
        shards: int,
        metrics: MetricsRegistry,
        placement: Placement,
    ) -> None:
        self.ring = ConsistentHashRing(shards)
        self.shards = shards
        self.placement = placement
        self._routed = [metrics.counter("router.routed", shard=str(n)) for n in range(shards)]
        self._fan_outs = metrics.counter("router.fan_outs")

    # ------------------------------------------------------------- pipeline
    def handle(self, ctx: Context, call_next: Handler) -> Result:
        if ctx.function in FAN_OUT_FUNCTIONS and ctx.is_read and self.shards > 1:
            return self._fan_out(ctx, call_next)
        shard = self.route_for(ctx)
        ctx.tags["shard"] = shard
        self._routed[shard].inc()
        return call_next(ctx)

    def route_for(self, ctx: Context) -> int:
        """Single-shard routing decision for one operation."""
        if ctx.args and (ctx.function in KEY_SCOPED_FUNCTIONS or ctx.is_write):
            return self.ring.route(ctx.args[0])
        if ctx.args and ctx.function in FAN_OUT_FUNCTIONS:
            # Single-shard rings short-circuit fan-out to a plain call.
            return self.ring.route(ctx.args[0])
        return 0

    # -------------------------------------------------------------- fan-out
    def _fan_out_shards(self, ctx: Context) -> Sequence[int]:
        """The shards a fan-out read asks, in index order.

        A read confined to one tenant's namespace asks the namespace's
        ring owner plus the shards ``placement`` says have ordered a write
        under it (a re-sized ring leaves older versions there); the other
        shards hold no key the read can return.  Any other read asks all.
        """
        tenant = self._confining_tenant(ctx)
        if not tenant:
            return range(self.shards)
        asked = {self.ring.owner(TENANT_PREFIX + tenant)}
        asked.update(shard for shard in self.placement(tenant) if shard < self.shards)
        return sorted(asked)

    @staticmethod
    def _confining_tenant(ctx: Context) -> str:
        """The tenant whose namespace holds every key this read can return."""
        args = ctx.args
        if not args:
            return ""
        if ctx.function == "getkeyhistory":
            return tenant_of_prefix(args[0])
        if ctx.function == "getbyrange":
            tenant = tenant_of_prefix(args[0])
            end = args[1] if len(args) > 1 else ""
            return tenant if tenant and end and end <= namespace_end(tenant) else ""
        try:
            selector = json.loads(args[0])
        except (TypeError, ValueError):
            return ""
        prefix = selector.get("_prefix") if isinstance(selector, dict) else None
        return tenant_of_prefix(prefix) if isinstance(prefix, str) else ""

    def _fan_out(self, ctx: Context, call_next: Handler) -> ReadResult:
        """Run the read on each shard that can answer it and merge the results.

        A shard's answer counts when it is ok and carries its page; the
        merged latency is the slowest counted shard's.  With none counted
        the first shard's answer goes back as it is.
        """
        results = [
            call_next(self._sub_context(ctx, shard)) for shard in self._fan_out_shards(ctx)
        ]
        self._fan_outs.inc()
        history = ctx.function == "getkeyhistory"
        ok = [
            (response, latency) for response, latency in results
            if response.is_ok
            and (response.history if history else response.scan) is not None
        ]
        if not ok:
            return results[0]
        first = ok[0][0]
        latency = max(latency for _, latency in ok)
        if history:
            merged = replace(first, history=self._merge_history(
                [response.history for response, _ in ok]
            ))
        else:
            merged = replace(first, scan=self._merge_pages(
                ctx, [response.scan for response, _ in ok]
            ))
        return merged, latency

    @staticmethod
    def _sub_context(ctx: Context, shard: int) -> Context:
        sub = replace(ctx, args=list(ctx.args), tags=dict(ctx.tags))
        sub.tags["shard"] = shard
        return sub

    # -------------------------------------------------------------- merging
    def _merge_pages(self, ctx: Context, pages: List[ScanPage]) -> ScanPage:
        """Merge per-shard pages into one page honouring the request limit.

        Rows are the shards' committed versions, combined in key order;
        a key two shards both hold (ownership moved between runs) keeps
        the version whose record is newest.  Every shard resumed strictly
        after the same bookmark and returned at most one page, so the
        union truncated to the limit is exactly the global next page.
        The merged bookmark is the last returned key whenever any shard
        signalled more rows or the union overflowed the limit — the same
        "possibly one empty trailing page" contract the single-shard path
        has.  Per-shard plans are kept under the merged plan so
        ``explain`` stays honest about the fan-out.
        """
        by_key: Dict[str, VersionedValue] = {}
        for page in pages:
            for row in page.rows:
                current = by_key.get(row.key)
                if current is None or _record_timestamp(row) >= _record_timestamp(current):
                    by_key[row.key] = row
        merged = [by_key[key] for key in sorted(by_key)]
        if not any(page.enveloped for page in pages):
            return ScanPage(tuple(merged))
        has_more = any(page.bookmark for page in pages)
        limit = self._request_limit(ctx)
        if limit and len(merged) > limit:
            merged = merged[:limit]
            has_more = True
        plans = [page.plan for page in pages if page.plan is not None]
        plan = None
        if plans:
            paths = {shard_plan.get("access_path") for shard_plan in plans}
            plan = {
                "access_path": paths.pop() if len(paths) == 1 else "mixed",
                "fan_out": len(plans),
                "shards": plans,
            }
        return ScanPage(
            tuple(merged),
            merged[-1].key if has_more and merged else None,
            plan,
            enveloped=True,
        )

    @staticmethod
    def _request_limit(ctx: Context) -> int:
        """The page limit the caller asked for (0 = unlimited)."""
        try:
            if ctx.function == "query" and ctx.args:
                selector = json.loads(ctx.args[0])
                if isinstance(selector, dict):
                    limit = selector.get("_limit", 0)
                    if isinstance(limit, int) and not isinstance(limit, bool):
                        return max(0, limit)
                return 0
            if ctx.function == "getbyrange" and len(ctx.args) > 2 and ctx.args[2]:
                return max(0, int(ctx.args[2]))
        except (TypeError, ValueError):
            return 0
        return 0

    @staticmethod
    def _merge_history(pages: List[HistoryPage]) -> HistoryPage:
        """Order the shards' versions of one key by commit time.

        Block numbers are per-shard (each shard cuts its own chain), so
        cross-shard ordering uses the entry's commit timestamp first and
        only falls back to the block number to break ties within a shard;
        the sort is stable, so equal keys keep the shards' asking order.
        """
        return HistoryPage(tuple(sorted(
            chain.from_iterable(page.entries for page in pages), key=_COMMIT_ORDER
        )))


def _record_timestamp(row: VersionedValue) -> float:
    """The commit timestamp a row's record carries (0.0 when it has none)."""
    document = row.document
    try:
        return float(document.get("timestamp", 0.0)) if document else 0.0
    except (TypeError, ValueError):
        return 0.0
