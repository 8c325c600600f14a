"""``ProvenanceStore`` adapters for the three provenance backends.

Each adapter translates the protocol's typed envelopes onto one backend's
internal machinery — the HyperProv client pipeline, the central database,
or the PoW chain — so callers never touch a backend-specific surface.
The adapters (and ``HyperProvClient.get_data``) are the only callers of the
backends' private operator implementations (``HyperProvClient._store_data``,
``CentralProvenanceDatabase._store_record``, …).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from repro.baselines.centraldb import CentralProvenanceDatabase
from repro.baselines.provchain import PowProvenanceChain
from repro.chaincode.records import ProvenanceRecord
from repro.common.errors import ConfigurationError, ValidationError
from repro.common.hashing import checksum_of
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
        tenant: Optional[str] = None,
    ) -> Any:
        """Continuous queries need a commit stream (HyperProv only)."""
        raise ConfigurationError(
            f"the {self.backend_name} backend does not support continuous queries"
        )

    def close(self) -> None:
        """Synchronous backends hold nothing to release."""


class HyperProvStore(_StoreBase):
    """The HyperProv client behind the unified protocol.

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
    def backend(self) -> Any:
        return self.client

    @property
    def storage(self):
        """The client's off-chain content store (``None`` if detached)."""
        return self.client.storage

    # -------------------------------------------------------------- writes
    def submit(self, request: StoreRequest, at_time: Optional[float] = None) -> SubmitHandle:
        if request.is_metadata_only:
            if not request.checksum or not request.location:
                raise ValidationError(
                    "metadata-only StoreRequest needs both checksum and location"
                )
            post = self.client._post(
                "post",
                key=request.key,
                checksum=request.checksum,
                location=request.location,
                dependencies=list(request.dependencies),
                metadata=dict(request.metadata),
                size_bytes=request.size_bytes,
                at_time=at_time,
            )
        else:
            post = self.client._store_data(
                request.key,
                request.data,
                dependencies=list(request.dependencies),
                metadata=dict(request.metadata),
                at_time=at_time,
            )
        return SubmitHandle(
            request=request,
            backend=self.backend_name,
            record=post.record,
            handle=post.handle,
            storage_receipt=post.storage_receipt,
            raw=post,
        )

    # --------------------------------------------------------------- reads
    def get(self, key: str, at_time: Optional[float] = None) -> RecordView:
        query = self.client._get(key, at_time=at_time)
        return RecordView.from_record(
            query.payload, latency_s=query.latency_s, stale=query.stale
        )

    def history(self, key: str, at_time: Optional[float] = None) -> HistoryView:
        query = self.client._get_key_history(key, at_time=at_time)
        entries = []
        for row in query.payload:
            if row.get("deleted"):
                entries.append(HistoryEntryView(view=None, tx_id=row.get("tx_id"), deleted=True))
            else:
                entries.append(
                    HistoryEntryView(
                        view=RecordView.from_record(row["record"], stale=query.stale),
                        tx_id=row.get("tx_id"),
                        block=row.get("block"),
                    )
                )
        return HistoryView(
            key=key, entries=tuple(entries), latency_s=query.latency_s, stale=query.stale
        )

    def verify(
        self,
        key: str,
        data_or_checksum: Union[bytes, bytearray, str],
        at_time: Optional[float] = None,
    ) -> VerifyResult:
        query = self.client._check_hash(key, data_or_checksum, at_time=at_time)
        return VerifyResult(
            key=key, matches=bool(query.payload), latency_s=query.latency_s, stale=query.stale
        )

    def query(
        self,
        selector: Dict[str, Any],
        at_time: Optional[float] = None,
        limit: Optional[int] = None,
        bookmark: Optional[str] = None,
        explain: bool = False,
    ) -> QueryPage:
        result = self.client.query_records(
            selector,
            at_time=at_time,
            limit=limit,
            bookmark=bookmark,
            explain=explain,
        )
        records = tuple(
            RecordView.from_record(row["record"], stale=result.stale)
            for row in result.payload
        )
        return QueryPage(
            records=records,
            bookmark=result.bookmark,
            plan=result.plan,
            latency_s=result.latency_s,
            stale=result.stale,
        )

    def subscribe(
        self,
        selector: Dict[str, Any],
        callback: Optional[Callable[[Dict[str, Any]], None]] = None,
        tenant: Optional[str] = None,
    ) -> Any:
        """Register a standing selector on the deployment's commit stream.

        The registry attaches to the network's *aggregate* event bus, so
        it observes every shard's commits regardless of how the router
        spread the writes.  It is created on first use and torn down with
        the store (``close``), cancelling every outstanding registration.
        """
        if self._query_registry is None:
            from repro.query.continuous import ContinuousQueryRegistry

            self._query_registry = ContinuousQueryRegistry(self.client.network.events)
        return self._query_registry.register(selector, callback=callback, tenant=tenant)

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
        record = self._record_for(request, start)
        result = self.backend._store_record(
            record, at_time=start, payload_bytes=len(request.data or b"")
        )
        return SubmitHandle(
            request=request,
            backend=self.backend_name,
            record=result.record,
            raw=result,
            latency_s=result.latency_s,
            completed_at=result.completed_at,
        )

    def _record_for(self, request: StoreRequest, at_time: float) -> ProvenanceRecord:
        checksum = request.checksum or checksum_of(request.data or b"")
        return ProvenanceRecord(
            key=request.key,
            checksum=checksum,
            location=request.location or f"db://{self.backend.server_node}/{request.key}",
            creator=request.creator or "client",
            organization="central",
            certificate_fingerprint="",
            dependencies=list(request.dependencies),
            metadata=dict(request.metadata),
            size_bytes=request.size_bytes or len(request.data or b""),
            timestamp=at_time,
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
        record = self._record_for(request, start)
        result = self.backend._store_record(record, at_time=start)
        return SubmitHandle(
            request=request,
            backend=self.backend_name,
            record=result.entry.record,
            raw=result,
            latency_s=result.latency_s,
            completed_at=result.entry.recorded_at,
        )

    def _record_for(self, request: StoreRequest, at_time: float) -> ProvenanceRecord:
        checksum = request.checksum or checksum_of(request.data or b"")
        return ProvenanceRecord(
            key=request.key,
            checksum=checksum,
            location=request.location or f"pow://{request.key}",
            creator=request.creator or "miner",
            organization="pow-org",
            certificate_fingerprint="",
            dependencies=list(request.dependencies),
            metadata=dict(request.metadata),
            size_bytes=request.size_bytes or len(request.data or b""),
            timestamp=at_time,
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


def adapt_store(backend: Any):
    """Wrap any known backend in its :class:`ProvenanceStore` adapter."""
    if hasattr(backend, "as_store") and getattr(backend, "_store_adapter", None):
        return backend._store_adapter
    if isinstance(backend, CentralProvenanceDatabase):
        return CentralDbStore(backend)
    if isinstance(backend, PowProvenanceChain):
        return PowChainStore(backend)
    if hasattr(backend, "_store_data"):  # HyperProvClient (lazy import cycle)
        return HyperProvStore(backend)
    raise ConfigurationError(
        f"{type(backend).__name__} is not a known provenance backend"
    )
