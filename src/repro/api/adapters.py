"""HyperProv's ``ProvenanceStore``: the client's record operators.

:class:`HyperProvStore` *is* HyperProv's record operators — each one a
pipeline call on its client and one decode of the peer's response.  The
two baselines are stores themselves (:mod:`repro.baselines`).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Union

from repro.chaincode.records import ProvenanceRecord
from repro.common.errors import ChaincodeError, ConfigurationError, NotFoundError
from repro.common.serialization import copy_json, sorted_json
from repro.api.protocol import (
    HistoryEntryView,
    HistoryView,
    ProvenanceStore,
    QueryPage,
    RecordView,
    StoreRequest,
    SubmitHandle,
    VerifyResult,
    as_checksum,
)


class HyperProvStore(ProvenanceStore):
    """The HyperProv record operators: one pipeline call, one decode each.

    Every method builds the chaincode arguments, runs them through the
    client's middleware pipeline and turns the peer's response straight
    into the protocol's view — tenant-relative when the client's
    ``PipelineConfig.tenant`` is set, so no caller strips a namespace.

    Writes are genuinely non-blocking: ``submit`` returns while the
    endorsed envelope may still sit in the client-side endorsement
    batcher or the orderer's block cutter; ``drain`` flushes both and
    runs the simulation until every handle completes.
    """

    backend_name = "hyperprov"

    def __init__(self, client: Any) -> None:
        # ``Any`` instead of HyperProvClient: the client imports this
        # module lazily (as_store), a type import would be circular.
        self.client = client
        #: Lazily created continuous-query registry on the network's
        #: aggregate commit stream (see :meth:`subscribe`).
        self._query_registry: Optional[Any] = None

    # -------------------------------------------------------------- attrs
    @property
    def storage(self):
        """The client's off-chain content store (``None`` if detached)."""
        return self.client.storage

    # -------------------------------------------------------------- writes
    def submit(self, request: StoreRequest, at_time: Optional[float] = None) -> SubmitHandle:
        """The paper's ``post`` (metadata only) or ``store_data`` (payload first).

        ``store_data`` is the operator exercised by Fig. 1 / Fig. 2: its
        cost includes the checksum computation, the transfer to the
        storage node and the on-chain transaction.
        """
        client = self.client
        receipt = None
        if request.data is None:
            operation = "post"
            checksum, location, size_bytes = request.checksum, request.location, request.size_bytes
        else:
            receipt = client._put_payload(request.data, at_time)
            operation, at_time = "store_data", receipt.completed_at
            checksum, location, size_bytes = receipt.checksum, receipt.location, len(request.data)
        dependencies = list(request.dependencies)
        args = [
            request.key,
            checksum,
            location,
            json.dumps(dependencies),
            sorted_json(request.metadata),
            str(size_bytes),
        ]
        handle = client._invoke(operation, "set", args, at_time=at_time)
        identity = client._context.identity
        record = ProvenanceRecord(
            key=request.key,
            checksum=checksum,
            location=location,
            creator=identity.name,
            organization=identity.organization,
            certificate_fingerprint=identity.certificate.fingerprint,
            dependencies=dependencies,
            metadata=request.metadata,
            size_bytes=size_bytes,
        )
        if receipt is not None:
            client.metrics.histogram("store_data_bytes").observe(size_bytes)
        return SubmitHandle(
            request=request,
            backend=self.backend_name,
            record=record,
            handle=handle,
            storage_receipt=receipt,
        )

    # --------------------------------------------------------------- reads
    def get(self, key: str, at_time: Optional[float] = None) -> RecordView:
        client = self.client
        response, latency, ctx = client._query("get", "get", [key], at_time=at_time)
        if not response.is_ok or response.payload is None:
            raise NotFoundError(response.message or f"key {key!r} not found")
        return RecordView.from_document(
            response.payload, client.pipeline_config.tenant, latency, ctx.stale
        )

    def history(self, key: str, at_time: Optional[float] = None) -> HistoryView:
        client = self.client
        response, latency, ctx = client._query(
            "get_key_history", "getkeyhistory", [key], at_time=at_time
        )
        page = response.history
        if not response.is_ok or page is None:
            raise NotFoundError(response.message or f"no history for key {key!r}")
        tenant, stale = client.pipeline_config.tenant, ctx.stale
        # One parse of each returned version's value, kept by nobody: the
        # view owns what it needs, the committed entry stays text.
        entries = tuple(
            HistoryEntryView(None, entry.tx_id, entry.block_number, deleted=True)
            if entry.is_delete or not entry.value
            else HistoryEntryView(
                RecordView.from_document(entry.value, tenant, stale=stale),
                entry.tx_id,
                entry.block_number,
            )
            for entry in page.entries
        )
        return HistoryView(key=key, entries=entries, latency_s=latency, stale=stale)

    def verify(
        self,
        key: str,
        data_or_checksum: Union[bytes, bytearray, str],
        at_time: Optional[float] = None,
    ) -> VerifyResult:
        response, latency, ctx = self.client._query(
            "check_hash", "checkhash", [key, as_checksum(data_or_checksum)], at_time=at_time
        )
        if not response.is_ok or response.payload is None:
            raise NotFoundError(response.message or f"key {key!r} not found")
        matches = json.loads(response.payload)["matches"]
        return VerifyResult(key=key, matches=bool(matches), latency_s=latency, stale=ctx.stale)

    def query(
        self,
        selector: Dict[str, Any],
        at_time: Optional[float] = None,
        limit: Optional[int] = None,
        bookmark: Optional[str] = None,
        explain: bool = False,
    ) -> QueryPage:
        """Rich query: records whose fields match ``selector``.

        Examples: ``{"creator": "camera-gw"}``, ``{"organization": "org2"}``,
        ``{"metadata.station": "tromso-01"}``, ``{"dependencies": "raw/a"}``.
        """
        request = dict(selector)
        if limit is not None:
            request["_limit"] = limit
        if bookmark is not None:
            request["_bookmark"] = bookmark
        if explain:
            request["_explain"] = True
        client = self.client
        response, latency, ctx = client._query(
            "query", "query", [sorted_json(request)], at_time=at_time
        )
        page = response.scan
        if not response.is_ok or page is None:
            raise ChaincodeError(response.message or "rich query failed")
        return QueryPage(
            records=tuple(self.row_views(page, ctx.stale)),
            bookmark=page.bookmark,
            plan=copy_json(page.plan),
            latency_s=latency,
            stale=ctx.stale,
        )

    def row_views(self, page: Any, stale: bool) -> List[RecordView]:
        """One view per row of a scan (``query``, ``client.get_by_range``).

        Built from the committed version's memoized record reading, or
        from its document when the version has none (a value that is no
        well-typed record fails there as on every other read); the caller
        is another machine, so whatever it does to a view changes no
        peer's state and no later answer.
        """
        tenant = self.client.pipeline_config.tenant
        from_reading, from_document = RecordView.from_reading, RecordView.from_document
        views = []
        for row in page.rows:
            if row.key.startswith("__"):
                continue
            reading = row.reading
            views.append(
                from_document(row.document, tenant, stale=stale) if reading is None
                else from_reading(reading, tenant, stale)
            )
        return views

    def subscribe(
        self,
        selector: Dict[str, Any],
        callback: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Any:
        """Register a standing selector on the deployment's commit stream.

        The registry attaches to the network's *aggregate* event bus, so
        it observes every shard's commits regardless of how the router
        spread the writes.  It is created on first use and torn down with
        the store (``close``), cancelling every outstanding registration.
        A tenant client's registrations see only its own namespace.
        """
        config = self.client.pipeline_config
        if not config.continuous_queries:
            raise ConfigurationError(
                "this store's pipeline was not built with continuous_queries=True"
            )
        if self._query_registry is None:
            from repro.query.continuous import ContinuousQueryRegistry

            self._query_registry = ContinuousQueryRegistry(self.client.network.events)
        return self._query_registry.register(
            selector, callback=callback, tenant=config.tenant or None
        )

    def audit(self) -> bool:
        """On every shard, all heights agree and every peer's chain verifies."""
        network = self.client.network
        for index in range(network.shard_count):
            peers = network.shard(index).ordered_peers
            if len({peer.ledger_height for peer in peers}) > 1:
                return False
            if not all(peer.block_store.verify_chain() for peer in peers):
                return False
        return True

    # ------------------------------------------------------------ lifecycle
    def drain(self) -> None:
        self.client.network.flush_and_drain()

    def close(self) -> None:
        if self._query_registry is not None:
            self._query_registry.close()
            self._query_registry = None
        self.client.pipeline.close()
