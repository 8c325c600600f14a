"""Continuous queries: standing selectors fed by commit events.

A :class:`ContinuousQueryRegistry` subscribes once to the network's
aggregate commit stream and keeps a registry of standing per-tenant
selectors.  Every *validated* committed write is matched against every
active query and fanned out to the subscriber's callback (or buffered on
the handle when no callback is given) — the realtime push counterpart of
the poll-style rich query, fed by the same ``block_delivered`` topic the
read-cache invalidation consumes.

The network's one bus carries every shard's blocks, so multi-shard routing
needs no extra work here.  A block is announced when it is ordered and
again for each peer that commits it late (catch-up after a partition or a
crash); the registry remembers, per shard, the next block number it has
not yet fanned out, so subscribers see each committed write exactly once.
Invalidated transactions (MVCC conflicts and friends) are filtered out by
the per-block validation codes, so subscribers see only records that
actually reached the world state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, Callable, Dict, List, Optional, Type

from repro.common.errors import ValidationError
from repro.common.events import EventBus
from repro.common.tenancy import relative_key, strip_namespace, tenant_namespace
from repro.ledger.transaction import TxValidationCode
from repro.query.selectors import (
    RESERVED_SELECTOR_FIELDS,
    Predicate,
    compile_selector,
    matches,
)

#: Commit-stream topic (the same one ``middleware.cache`` invalidates on).
BLOCK_DELIVERED_TOPIC = "block_delivered"

#: ``callback(event)`` where ``event`` is the delivery dict below.
DeliveryCallback = Callable[[Dict[str, Any]], None]


@dataclass
class ContinuousQuery:
    """One standing selector registration (cancel via :meth:`cancel`).

    Deliveries are dicts ``{"key", "record", "block_number", "shard",
    "tx_id"}``.  For a tenant-scoped query ``key`` and the record's own
    ``key`` and ``dependencies`` are tenant-relative.
    Without a callback they accumulate on the handle; :meth:`pop_events`
    drains them (the pull-style cursor shape).
    """

    query_id: str
    selector: Dict[str, Any]
    tenant: Optional[str]
    callback: Optional[DeliveryCallback]
    registry: "ContinuousQueryRegistry" = field(repr=False)
    prefix: str = ""
    active: bool = True
    delivered_count: int = 0
    _compiled: List[Predicate] = field(default_factory=list, repr=False)
    _pending: List[Dict[str, Any]] = field(default_factory=list, repr=False)

    def cancel(self) -> None:
        """Deregister this standing query (idempotent)."""
        if self.active:
            self.active = False
            self.registry._unregister(self)

    def pop_events(self) -> List[Dict[str, Any]]:
        """Drain deliveries buffered since the last call (callback-less mode)."""
        drained, self._pending = self._pending, []
        return drained

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def __enter__(self) -> "ContinuousQuery":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.cancel()


class ContinuousQueryRegistry:
    """Fan committed records out to matching standing selectors.

    Attach to the network's event bus (``fabric.events``): it carries the
    ``block_delivered`` announcements of every shard.
    """

    def __init__(self, events: EventBus) -> None:
        self._queries: Dict[str, ContinuousQuery] = {}
        self._counter = 0
        #: shard → number of the first block not fanned out yet; a block
        #: below it is a re-announcement for a peer that was catching up.
        self._next_block: Dict[int, int] = {}
        self._subscription = events.subscribe(
            BLOCK_DELIVERED_TOPIC, self._on_block_delivered
        )

    # ----------------------------------------------------------- lifecycle
    def register(
        self,
        selector: Dict[str, Any],
        callback: Optional[DeliveryCallback] = None,
        tenant: Optional[str] = None,
    ) -> ContinuousQuery:
        """Register a standing ``selector``; returns the cancellable handle.

        ``selector`` uses the rich-query syntax (including ``_prefix``
        scoping, tenant-relative for tenant-scoped registrations); the
        pagination/explain reserved fields are meaningless for a push
        stream and rejected.  A tenant-scoped query only observes commits
        under ``tenant/<name>/`` and receives tenant-relative keys.
        """
        if not isinstance(selector, dict) or not selector:
            raise ValidationError("continuous query selector must be a non-empty object")
        body = dict(selector)
        prefix = body.pop("_prefix", "")
        if not isinstance(prefix, str):
            raise ValidationError("_prefix must be a string")
        unsupported = RESERVED_SELECTOR_FIELDS.intersection(body)
        if unsupported:
            raise ValidationError(
                f"continuous queries do not support {sorted(unsupported)}"
            )
        if not body and not prefix:
            raise ValidationError("continuous query selector must be a non-empty object")
        self._counter += 1
        query = ContinuousQuery(
            query_id=f"cq-{self._counter}",
            selector=dict(selector),
            tenant=tenant,
            callback=callback,
            registry=self,
            prefix=prefix,
            _compiled=compile_selector(body),
        )
        self._queries[query.query_id] = query
        return query

    def _unregister(self, query: ContinuousQuery) -> None:
        self._queries.pop(query.query_id, None)

    def close(self) -> None:
        """Cancel every standing query and detach from the commit stream."""
        self._subscription.cancel()
        for query in list(self._queries.values()):
            query.cancel()

    # ------------------------------------------------------------- delivery
    def _on_block_delivered(self, _topic: str, payload: Any) -> None:
        if not isinstance(payload, dict):
            return
        block = payload.get("block")
        commits = payload.get("commits") or {}
        if block is None or not commits:
            return
        shard = payload.get("shard", 0)
        if block.number < self._next_block.get(shard, 0):
            return
        self._next_block[shard] = block.number + 1
        if not self._queries:
            return
        # Every peer reaches the same verdict on the same sealed block;
        # any commit result carries the authoritative validation codes.
        reference = next(iter(commits.values()))
        for tx, code in zip(block.transactions, reference.validation_codes):
            if code is not TxValidationCode.VALID:
                continue
            for write in tx.rw_set.writes:
                if write.is_delete or write.value is None:
                    continue
                self._dispatch(
                    write.key, write.value, block.number, shard, tx.tx_id
                )

    def _dispatch(
        self, key: str, value: str, block_number: int, shard: int, tx_id: str
    ) -> None:
        document: Optional[Dict[str, Any]] = None
        for query in list(self._queries.values()):
            if not query.active:
                continue
            scoped_key = key
            if query.tenant is not None:
                if not key.startswith(tenant_namespace(query.tenant)):
                    continue
                scoped_key = relative_key(query.tenant, key)
            if query.prefix and not scoped_key.startswith(query.prefix):
                continue
            if document is None:
                document = _parse_document(value)
                if document is None:
                    return
            if not matches(document, query._compiled):
                continue
            event = {
                "key": scoped_key,
                "record": (
                    document if query.tenant is None
                    else _tenant_record(document, query.tenant)
                ),
                "block_number": block_number,
                "shard": shard,
                "tx_id": tx_id,
            }
            query.delivered_count += 1
            if query.callback is not None:
                query.callback(event)
            else:
                query._pending.append(event)


def _tenant_record(document: Dict[str, Any], tenant: str) -> Dict[str, Any]:
    """``tenant``'s own copy of a shared document, named as its reads name it.

    The rule of :meth:`repro.api.protocol.RecordView.from_document`: the
    record's key through the strict ``relative_key``, its dependencies
    through the lenient ``strip_namespace``.  ``document`` itself stays as
    committed for every other query.
    """
    record = dict(document)
    record["key"] = relative_key(tenant, document["key"])
    record["dependencies"] = [
        strip_namespace(tenant, dep) for dep in document["dependencies"]
    ]
    return record


def _parse_document(value: str) -> Optional[Dict[str, Any]]:
    try:
        document = json.loads(value)
    except (TypeError, ValueError):
        return None
    return document if isinstance(document, dict) else None
