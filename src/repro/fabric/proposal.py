"""Proposals, proposal responses and client-visible transaction handles."""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Dict, List, Optional

from repro.crypto.certificates import Certificate
from repro.ledger.scan import HistoryPage, ScanPage
from repro.ledger.transaction import Endorsement, ReadWriteSet, TxValidationCode


@dataclass(init=False)
class Proposal:
    """A chaincode invocation proposal sent to endorsing peers."""

    tx_id: str
    channel: str
    chaincode: str
    function: str
    args: List[str]
    creator: Certificate
    signature: str
    timestamp: float
    #: Approximate wire size of the proposal (args can embed large metadata).
    size_bytes: int = 0
    _signed_bytes: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

    #: Fields covered by the client's signature; rebinding one drops the
    #: cached serialization so verification always sees current content.
    _SIGNED_FIELDS = frozenset({"tx_id", "channel", "chaincode", "function", "args"})

    def __init__(
        self,
        tx_id: str,
        channel: str,
        chaincode: str,
        function: str,
        args: List[str],
        creator: Certificate,
        signature: str,
        timestamp: float,
        size_bytes: int = 0,
    ) -> None:
        # Each field assigned once, as ``__setattr__`` would leave it: args
        # frozen to a tuple, nothing serialized yet.
        put = object.__setattr__
        put(self, "tx_id", tx_id)
        put(self, "channel", channel)
        put(self, "chaincode", chaincode)
        put(self, "function", function)
        put(self, "args", tuple(args))
        put(self, "creator", creator)
        put(self, "signature", signature)
        put(self, "timestamp", timestamp)
        put(self, "size_bytes", size_bytes)
        put(self, "_signed_bytes", None)

    def __setattr__(self, name: str, value: object) -> None:
        # args is frozen to a tuple so in-place mutation cannot bypass the
        # cached signed bytes, and rebinding any signed field drops the
        # cache so verification always sees current content.
        if name in self._SIGNED_FIELDS:
            object.__setattr__(self, "_signed_bytes", None)
            if name == "args":
                value = tuple(value)
        object.__setattr__(self, name, value)

    def signed_bytes(self) -> bytes:
        """The bytes covered by the client's proposal signature.

        A proposal never changes after the client signs it, yet every
        endorsing peer re-verifies the signature over these bytes —
        serialize once and cache.  Mutating a covered field invalidates
        the cache (see ``__setattr__``), so stale bytes can never satisfy
        verification.
        """
        if self._signed_bytes is None:
            # Exactly ``canonical_json`` of the five covered fields (pinned
            # by a property test), formatted directly: sorted keys, no
            # whitespace, ASCII-escaped strings.
            self._signed_bytes = (
                '{"args":[%s],"chaincode":%s,"channel":%s,"function":%s,"tx_id":%s}' % (
                    ",".join([_quote(arg) for arg in self.args]), _quote(self.chaincode),
                    _quote(self.channel), _quote(self.function), _quote(self.tx_id),
                )
            ).encode("ascii")
        return self._signed_bytes


@dataclass
class ProposalResponse:
    """An endorsing peer's response to a proposal."""

    tx_id: str
    peer: str
    status: int
    payload: Optional[str]
    message: str
    rw_set: ReadWriteSet
    endorsement: Optional[Endorsement]
    #: Virtual time at which the response left the peer.
    produced_at: float = 0.0
    #: Chaincode event set during simulation, as ``(name, payload)``.
    chaincode_event: Optional[tuple] = None
    #: The rows of a multi-row read, carried instead of a ``payload``
    #: string (see :class:`~repro.chaincode.shim.ChaincodeResponse`):
    #: ``scan`` for ``query`` / ``getbyrange``, ``history`` for
    #: ``getkeyhistory``.
    scan: Optional[ScanPage] = None
    history: Optional[HistoryPage] = None

    @property
    def is_ok(self) -> bool:
        return self.status == 200 and self.endorsement is not None

    @property
    def size(self) -> int:
        """Length of the text the response stands for: what the network charges."""
        page = self.scan if self.scan is not None else self.history
        return len(self.payload or "") if page is None else page.size()


@dataclass
class TransactionHandle:
    """Client-side view of a submitted transaction's life cycle.

    Completed by the Fabric network when the client's anchor peer commits
    (or invalidates) the transaction.
    """

    tx_id: str
    submitted_at: float
    function: str
    endorsed_at: float = 0.0
    ordered_at: float = 0.0
    committed_at: float = 0.0
    validation_code: Optional[TxValidationCode] = None
    response_payload: Optional[str] = None
    commit_block: Optional[int] = None
    #: Extra timing information (endorsement per-peer, transfer times, ...).
    timings: Dict[str, float] = field(default_factory=dict)
    _callbacks: List[Callable[["TransactionHandle"], None]] = field(default_factory=list)

    @property
    def is_complete(self) -> bool:
        return self.validation_code is not None

    @property
    def is_valid(self) -> bool:
        return self.validation_code is TxValidationCode.VALID

    @property
    def latency_s(self) -> float:
        """End-to-end latency from submission to commit on the anchor peer."""
        if not self.is_complete:
            return float("nan")
        return self.committed_at - self.submitted_at

    def on_complete(self, callback: Callable[["TransactionHandle"], None]) -> None:
        """Register a callback fired when the transaction completes."""
        if self.is_complete:
            callback(self)
        else:
            self._callbacks.append(callback)

    def complete(
        self,
        committed_at: float,
        validation_code: TxValidationCode,
        block_number: Optional[int] = None,
    ) -> None:
        """Mark the transaction as finished (called by the Fabric network)."""
        self.committed_at = committed_at
        self.validation_code = validation_code
        self.commit_block = block_number
        for callback in self._callbacks:
            callback(self)
        self._callbacks.clear()
