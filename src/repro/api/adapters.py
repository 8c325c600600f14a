"""The ``ProvenanceStore`` implementations of the three provenance backends.

:class:`HyperProvStore` *is* HyperProv's record operators — each one a
pipeline call on its client and one decode of the peer's response; the two
baseline adapters translate the protocol's typed envelopes onto the central
database and the PoW chain, and are the only callers of those backends'
private operator implementations (``_store_record``, ``_get``, ``_history``).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Union

from repro.baselines.centraldb import CentralProvenanceDatabase
from repro.baselines.provchain import PowProvenanceChain
from repro.chaincode.records import ProvenanceRecord
from repro.common.errors import (
    ChaincodeError,
    ConfigurationError,
    NotFoundError,
    ValidationError,
)
from repro.common.hashing import checksum_of
from repro.common.serialization import copy_json
from repro.api.protocol import (
    HistoryEntryView,
    HistoryView,
    QueryPage,
    RecordView,
    StoreRequest,
    SubmitHandle,
    VerifyResult,
)


class _StoreBase:
    """Shared conveniences: blocking ``store`` and lifecycle no-ops."""

    backend_name = "store"

    def submit(self, request: StoreRequest, at_time: Optional[float] = None) -> SubmitHandle:
        raise NotImplementedError

    def _record_for(
        self, request: StoreRequest, at_time: float, location: str, creator: str,
        organization: str,
    ) -> ProvenanceRecord:
        """The record a backend without a membership service stores for ``request``."""
        return ProvenanceRecord(
            key=request.key,
            checksum=request.checksum or checksum_of(request.data or b""),
            location=request.location or location,
            creator=request.creator or creator,
            organization=organization,
            certificate_fingerprint="",
            dependencies=list(request.dependencies),
            metadata=dict(request.metadata),
            size_bytes=request.size_bytes or len(request.data or b""),
            timestamp=at_time,
        )

    def store(self, request: StoreRequest, at_time: Optional[float] = None) -> SubmitHandle:
        """Blocking write: submit, then drain until the handle completes."""
        handle = self.submit(request, at_time=at_time)
        if not handle.done:
            self.drain()
        return handle

    def drain(self) -> None:
        """Synchronous backends have nothing in flight."""

    def query(
        self,
        selector: Dict[str, Any],
        at_time: Optional[float] = None,
        limit: Optional[int] = None,
        bookmark: Optional[str] = None,
        explain: bool = False,
    ) -> QueryPage:
        """Rich queries need a selector-capable backend (HyperProv only)."""
        raise ConfigurationError(
            f"the {self.backend_name} backend does not support rich queries"
        )

    def subscribe(
        self,
        selector: Dict[str, Any],
        callback: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Any:
        """Continuous queries need a commit stream (HyperProv only)."""
        raise ConfigurationError(
            f"the {self.backend_name} backend does not support continuous queries"
        )

    def close(self) -> None:
        """Synchronous backends hold nothing to release."""


class HyperProvStore(_StoreBase):
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
        if request.is_metadata_only:
            if not request.checksum or not request.location:
                raise ValidationError(
                    "metadata-only StoreRequest needs both checksum and location"
                )
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
            json.dumps(request.metadata, sort_keys=True),
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
            metadata=dict(request.metadata),
            size_bytes=size_bytes,
        )
        client.metrics.counter("post").inc()
        if receipt is not None:
            client.metrics.counter("store_data").inc()
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
        client.metrics.histogram("get_latency_s").observe(latency)
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
        client.metrics.histogram("history_latency_s").observe(latency)
        return HistoryView(key=key, entries=entries, latency_s=latency, stale=stale)

    def verify(
        self,
        key: str,
        data_or_checksum: Union[bytes, bytearray, str],
        at_time: Optional[float] = None,
    ) -> VerifyResult:
        response, latency, ctx = self.client._query(
            "check_hash", "checkhash", [key, _as_checksum(data_or_checksum)], at_time=at_time
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
            "query", "query", [json.dumps(request, sort_keys=True)], at_time=at_time
        )
        page = response.scan
        if not response.is_ok or page is None:
            raise ChaincodeError(response.message or "rich query failed")
        client.metrics.histogram("query_latency_s").observe(latency)
        return QueryPage(
            records=tuple(self.row_views(page, ctx.stale)),
            bookmark=page.bookmark,
            plan=copy_json(page.plan),
            latency_s=latency,
            stale=ctx.stale,
        )

    def row_views(self, page: Any, stale: bool) -> List[RecordView]:
        """One view per row of a scan (``query``, ``client.get_by_range``).

        Built from the committed version's already-parsed document; the
        caller is another machine, so whatever it does to a view changes
        no peer's state and no later answer.
        """
        tenant = self.client.pipeline_config.tenant
        return [
            RecordView.from_document(row.document, tenant, stale=stale)
            for row in page.rows
            if not row.key.startswith("__")
        ]

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
            peers = network.shard_peers(index)
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


class CentralDbStore(_StoreBase):
    """The centralized-database baseline behind the unified protocol."""

    backend_name = "central-db"

    def __init__(self, database: CentralProvenanceDatabase) -> None:
        self.backend = database

    def submit(self, request: StoreRequest, at_time: Optional[float] = None) -> SubmitHandle:
        start = at_time or 0.0
        record = self._record_for(
            request, start, f"db://{self.backend.server_node}/{request.key}",
            "client", "central",
        )
        result = self.backend._store_record(
            record, at_time=start, payload_bytes=len(request.data or b"")
        )
        return SubmitHandle(
            request=request,
            backend=self.backend_name,
            record=result.record,
            latency_s=result.latency_s,
            completed_at=result.completed_at,
        )

    def get(self, key: str, at_time: Optional[float] = None) -> RecordView:
        record = self.backend._get(key)
        return RecordView.from_record(record)

    def history(self, key: str, at_time: Optional[float] = None) -> HistoryView:
        records = self.backend._history(key)
        entries = tuple(
            HistoryEntryView(view=RecordView.from_record(record), tx_id=str(index))
            for index, record in enumerate(records)
        )
        return HistoryView(key=key, entries=entries)

    def verify(
        self,
        key: str,
        data_or_checksum: Union[bytes, bytearray, str],
        at_time: Optional[float] = None,
    ) -> VerifyResult:
        checksum = _as_checksum(data_or_checksum)
        record = self.backend._get(key)
        return VerifyResult(key=key, matches=record.checksum == checksum)

    def audit(self) -> bool:
        """No integrity record exists, so an audit always looks clean."""
        return not self.backend.detect_tampering()


class PowChainStore(_StoreBase):
    """The ProvChain-style PoW baseline behind the unified protocol."""

    backend_name = "provchain-pow"

    def __init__(self, chain: PowProvenanceChain) -> None:
        self.backend = chain

    def submit(self, request: StoreRequest, at_time: Optional[float] = None) -> SubmitHandle:
        start = at_time or 0.0
        record = self._record_for(
            request, start, f"pow://{request.key}", "miner", "pow-org"
        )
        result = self.backend._store_record(record, at_time=start)
        return SubmitHandle(
            request=request,
            backend=self.backend_name,
            record=result.entry.record,
            latency_s=result.latency_s,
            completed_at=result.entry.recorded_at,
        )

    def get(self, key: str, at_time: Optional[float] = None) -> RecordView:
        entry = self.backend._get(key)
        return RecordView.from_record(entry.record)

    def history(self, key: str, at_time: Optional[float] = None) -> HistoryView:
        entries = self.backend._history(key)
        views = tuple(
            HistoryEntryView(
                view=RecordView.from_record(entry.record),
                tx_id=entry.chain_hash,
                block=entry.index,
            )
            for entry in entries
        )
        return HistoryView(key=key, entries=views)

    def verify(
        self,
        key: str,
        data_or_checksum: Union[bytes, bytearray, str],
        at_time: Optional[float] = None,
    ) -> VerifyResult:
        checksum = _as_checksum(data_or_checksum)
        entry = self.backend._get(key)
        return VerifyResult(key=key, matches=entry.record.checksum == checksum)

    def audit(self) -> bool:
        """Re-play the hash chain: tampered entries break it."""
        return self.backend.verify_chain()


def _as_checksum(data_or_checksum: Union[bytes, bytearray, str]) -> str:
    if isinstance(data_or_checksum, (bytes, bytearray)):
        return checksum_of(data_or_checksum)
    return str(data_or_checksum)
