"""The unified ``ProvenanceStore`` protocol and its typed envelopes.

The paper's HyperProv client and both baselines answer the same four
questions — store, get, history, verify — but historically exposed three
divergent blocking surfaces.  This module defines the single protocol all
three backends implement, so benches, workloads and examples are written
once:

=============  ============================================================
Call           Meaning
=============  ============================================================
``submit``     Non-blocking write: returns a :class:`SubmitHandle` future;
               the record may still be queued in the endorsement batcher or
               awaiting commit.  Backends with synchronous writes return an
               already-completed handle.
``store``      Blocking convenience: ``submit`` + ``drain``.
``get``        Latest record for a key as a :class:`RecordView`.
``history``    Every recorded version, oldest first (:class:`HistoryView`).
``verify``     Check data (or a checksum) against the stored record.
``query``      Rich query over record fields (:class:`QueryPage`), with
               optional limit/bookmark pagination and plan explanation.
``subscribe``  Standing commit-fed selector (continuous query); matching
               committed records are pushed as they commit.
``audit``      Backend-wide integrity check (hash chain / ledger heights);
               this is where tamper *evidence* shows up — or doesn't, for
               the central database.
``drain``      Await every in-flight submission.
=============  ============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.chaincode.records import ProvenanceRecord, record_fields
from repro.common.errors import IncompleteTransactionError
from repro.common.serialization import copy_json
from repro.common.tenancy import relative_key, strip_namespace


# ---------------------------------------------------------------- requests
@dataclass(frozen=True)
class StoreRequest:
    """One write, described independently of the backend.

    Exactly one of ``data`` (store the payload and derive its checksum) or
    ``checksum`` + ``location`` (metadata-only post for data that already
    lives elsewhere) should be provided.
    """

    key: str
    data: Optional[bytes] = None
    checksum: Optional[str] = None
    location: Optional[str] = None
    dependencies: Tuple[str, ...] = ()
    metadata: Dict[str, Any] = field(default_factory=dict)
    size_bytes: int = 0
    #: Creator identity hint for backends without a membership service.
    creator: str = ""

    @property
    def is_metadata_only(self) -> bool:
        return self.data is None


# ---------------------------------------------------------------- responses
@dataclass(frozen=True)
class RecordView:
    """Backend-independent view of one provenance record version.

    Every field is a plain attribute, filled when the read returns;
    ``metadata`` and ``dependencies`` are the view's own containers, so
    changing them changes no stored state and no later answer.
    """

    key: str
    checksum: str
    location: str
    creator: str
    organization: str
    dependencies: Tuple[str, ...]
    metadata: Dict[str, Any]
    timestamp: float
    size_bytes: int
    #: End-to-end latency of the read that produced this view (seconds).
    latency_s: float = 0.0
    #: True when the result was served from the stale-read archive because
    #: the authoritative peer was unreachable (never silently fresh).
    stale: bool = False

    @classmethod
    def from_record(cls, record: ProvenanceRecord) -> "RecordView":
        """The view of a record a baseline holds in memory."""
        return cls(
            record.key, record.checksum, record.location, record.creator,
            record.organization, tuple(record.dependencies), dict(record.metadata),
            record.timestamp, record.size_bytes,
        )

    @classmethod
    def from_document(
        cls,
        document: Any,
        tenant: str = "",
        latency_s: float = 0.0,
        stale: bool = False,
    ) -> "RecordView":
        """The view of one committed ledger value (JSON text or parsed document).

        The one place a HyperProv read turns what a peer committed into
        what the caller keeps: the record's type checks run here (a
        :class:`~repro.common.errors.ValidationError` for anything that is
        not a well-typed record), ``tenant``'s namespace comes off the key
        and every dependency, and the containers are copied — a parsed
        document is shared by every replica and every later reader.  A
        record whose own key lies outside ``tenant``'s namespace is a
        :class:`~repro.common.errors.TenancyError`; its dependencies are
        stripped leniently.
        """
        (key, checksum, location, creator, organization, _fingerprint,
         dependencies, metadata, timestamp, size_bytes) = record_fields(document)
        if tenant:
            key = relative_key(tenant, key)
            dependencies = [strip_namespace(tenant, dep) for dep in dependencies]
        else:
            dependencies = copy_json(dependencies)
        # A scan builds one view per returned row, and a frozen dataclass's
        # ``__init__`` pays one ``object.__setattr__`` call per field; the
        # fields go into the instance dict in one update instead.
        view = object.__new__(cls)
        view.__dict__.update(
            key=key,
            checksum=checksum,
            location=location,
            creator=creator,
            organization=organization,
            dependencies=tuple(dependencies),
            metadata=copy_json(metadata),
            timestamp=timestamp,
            size_bytes=size_bytes,
            latency_s=latency_s,
            stale=stale,
        )
        return view


@dataclass(frozen=True)
class HistoryEntryView:
    """One version in a key's history."""

    view: Optional[RecordView]
    tx_id: Optional[str] = None
    block: Optional[int] = None
    deleted: bool = False


@dataclass(frozen=True)
class HistoryView:
    """Every recorded version of a key, oldest first."""

    key: str
    entries: Tuple[HistoryEntryView, ...]
    latency_s: float = 0.0
    #: True when served from the stale-read archive (see :class:`RecordView`).
    stale: bool = False

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class QueryPage:
    """One page of rich-query results.

    ``bookmark`` resumes the next page (``None`` = last page); ``plan``
    carries the planner's access-path report when the query asked to
    explain itself.
    """

    records: Tuple[RecordView, ...]
    bookmark: Optional[str] = None
    plan: Optional[Dict[str, Any]] = None
    latency_s: float = 0.0
    #: True when served from the stale-read archive; every record of a
    #: stale page carries the marker too.
    stale: bool = False


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of checking data (or a checksum) against the store."""

    key: str
    matches: bool
    latency_s: float = 0.0
    #: True when the verdict came from the stale-read archive: it compares
    #: against the last version this client saw, not the authoritative one.
    stale: bool = False

    def __bool__(self) -> bool:
        return self.matches


@dataclass(frozen=True)
class StoreReceipt:
    """Final outcome of one completed store submission."""

    key: str
    checksum: str
    backend: str
    ok: bool
    latency_s: float
    completed_at: float


# ------------------------------------------------------------------ futures
class SubmitHandle:
    """Future-style handle for one submitted store operation.

    HyperProv submissions complete asynchronously — the envelope may sit
    in the endorsement batcher and the orderer's block cutter until the
    network drains — while the baselines complete synchronously in virtual
    time.  Both shapes hide behind the same handle:

    * ``done`` / ``ok`` — completion and validity.
    * ``result()`` — the :class:`StoreReceipt`; raises
      :class:`~repro.common.errors.IncompleteTransactionError` while the
      submission is still in flight (call ``drain()`` on the session or
      store first).
    * ``add_done_callback(fn)`` — fires ``fn(handle)`` at completion (or
      immediately if already complete).
    """

    def __init__(
        self,
        request: StoreRequest,
        backend: str,
        record: ProvenanceRecord,
        handle: Optional[Any] = None,
        storage_receipt: Optional[Any] = None,
        latency_s: Optional[float] = None,
        completed_at: Optional[float] = None,
    ) -> None:
        self.request = request
        self.backend = backend
        #: Client-side echo of the record that was (or will be) stored.
        self.record = record
        #: Underlying :class:`TransactionHandle` for async backends.
        self.handle = handle
        self.storage_receipt = storage_receipt
        self._latency_s = latency_s
        self._completed_at = completed_at

    # ------------------------------------------------------------ liveness
    @property
    def done(self) -> bool:
        if self.handle is not None:
            return bool(self.handle.is_complete)
        return True

    @property
    def ok(self) -> bool:
        """Whether the submission committed successfully."""
        if self.handle is not None:
            return bool(self.handle.is_complete and self.handle.is_valid)
        return True

    @property
    def committed_at(self) -> float:
        if self.handle is not None:
            return float(self.handle.committed_at)
        return float(self._completed_at or 0.0)

    @property
    def commit_block(self) -> Optional[int]:
        return getattr(self.handle, "commit_block", None)

    @property
    def latency_s(self) -> float:
        """Total submission latency (off-chain storage + chain commit).

        Raises :class:`IncompleteTransactionError` while still in flight.
        """
        if self.handle is not None:
            if not self.handle.is_complete:
                raise IncompleteTransactionError(
                    f"submission for key {self.request.key!r} has not committed yet; "
                    f"drain() the session before reading its latency"
                )
            storage = self.storage_receipt.duration_s if self.storage_receipt else 0.0
            return storage + self.handle.latency_s
        return float(self._latency_s or 0.0)

    # ------------------------------------------------------------ callbacks
    def add_done_callback(self, fn: Callable[["SubmitHandle"], None]) -> None:
        if self.handle is not None and not self.handle.is_complete:
            self.handle.on_complete(lambda _h: fn(self))
        else:
            fn(self)

    # --------------------------------------------------------------- result
    def result(self) -> StoreReceipt:
        if not self.done:
            raise IncompleteTransactionError(
                f"submission for key {self.request.key!r} has not committed yet; "
                f"drain() the session before requesting its result"
            )
        return StoreReceipt(
            key=self.record.key,
            checksum=self.record.checksum,
            backend=self.backend,
            ok=self.ok,
            latency_s=self.latency_s,
            completed_at=self.committed_at,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "in-flight"
        return f"<SubmitHandle {self.request.key!r} backend={self.backend} {state}>"


# ----------------------------------------------------------------- protocol
@runtime_checkable
class ProvenanceStore(Protocol):
    """What every provenance backend exposes to benches and workloads."""

    backend_name: str

    def submit(
        self, request: StoreRequest, at_time: Optional[float] = None
    ) -> SubmitHandle:
        """Non-blocking write; returns a future-style handle."""
        ...

    def store(
        self, request: StoreRequest, at_time: Optional[float] = None
    ) -> SubmitHandle:
        """Blocking write: ``submit`` then ``drain``; the handle is done."""
        ...

    def get(self, key: str, at_time: Optional[float] = None) -> RecordView:
        """Latest record for ``key`` (raises ``NotFoundError`` if absent)."""
        ...

    def history(self, key: str, at_time: Optional[float] = None) -> HistoryView:
        """Every recorded version of ``key``, oldest first."""
        ...

    def verify(
        self,
        key: str,
        data_or_checksum: Union[bytes, bytearray, str],
        at_time: Optional[float] = None,
    ) -> VerifyResult:
        """Check data (or a precomputed checksum) against the store."""
        ...

    def query(
        self,
        selector: Dict[str, Any],
        at_time: Optional[float] = None,
        limit: Optional[int] = None,
        bookmark: Optional[str] = None,
        explain: bool = False,
    ) -> QueryPage:
        """Rich query over record fields (backends without one raise)."""
        ...

    def subscribe(
        self,
        selector: Dict[str, Any],
        callback: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Any:
        """Standing commit-fed selector; returns a cancellable handle."""
        ...

    def audit(self) -> bool:
        """Backend-wide integrity check (tamper evidence, if any)."""
        ...

    def drain(self) -> None:
        """Await every in-flight submission."""
        ...

    def close(self) -> None:
        """Release pipeline resources (subscriptions, queues)."""
        ...
