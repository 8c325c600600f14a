"""The chaincode shim: the interface chaincode uses to touch the ledger.

During endorsement the peer *simulates* the invocation: reads go to the
committed world state (and are recorded with their versions in the read
set), writes are buffered into the write set and only become visible when
the transaction commits.  The stub also exposes the submitting client's
certificate (``get_creator``) and the key-history index, both of which the
HyperProv chaincode relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.errors import ChaincodeError
from repro.crypto.certificates import Certificate
from repro.ledger.history import HistoryDatabase, HistoryEntry
from repro.ledger.scan import HistoryPage, ScanPage
from repro.ledger.transaction import ReadWriteSet
from repro.ledger.world_state import VersionedValue, Where, WorldState

#: What a scan hands the chaincode: committed versions (each carries its
#: ``.key``) in key order — a list when the scan fetched them all, a
#: one-shot iterator when rows are looked up as they are pulled.
Candidates = Iterable[VersionedValue]


@dataclass
class ChaincodeResponse:
    """Result of a chaincode invocation.

    A point or invoke answer is its ``payload`` string; a multi-row read
    answers with rows instead (``scan`` for ``query`` / ``getbyrange``,
    ``history`` for ``getkeyhistory``) and no string.
    """

    status: int
    payload: Optional[str] = None
    message: str = ""
    #: The rows a scan matched (``query``, ``getbyrange``).
    scan: Optional[ScanPage] = None
    #: The versions of a key (``getkeyhistory``).
    history: Optional[HistoryPage] = None

    OK = 200
    ERROR = 500

    @classmethod
    def success(cls, payload: Optional[str] = None) -> "ChaincodeResponse":
        return cls(status=cls.OK, payload=payload)

    @classmethod
    def scanned(cls, page: ScanPage) -> "ChaincodeResponse":
        """A scan's answer: the page, never rendered."""
        return cls(status=cls.OK, scan=page)

    @classmethod
    def versions(cls, page: HistoryPage) -> "ChaincodeResponse":
        """A key history's answer: the page, never rendered."""
        return cls(status=cls.OK, history=page)

    @classmethod
    def error(cls, message: str) -> "ChaincodeResponse":
        return cls(status=cls.ERROR, message=message)

    @property
    def is_ok(self) -> bool:
        return self.status == self.OK


class ChaincodeStub:
    """Per-invocation view of the ledger handed to the chaincode."""

    def __init__(
        self,
        tx_id: str,
        channel: str,
        function: str,
        args: List[str],
        world_state: WorldState,
        history: HistoryDatabase,
        creator: Optional[Certificate] = None,
        timestamp: float = 0.0,
        read_log: Optional[List[Tuple[str, Optional[VersionedValue]]]] = None,
    ) -> None:
        self.tx_id = tx_id
        self.channel = channel
        self.function = function
        self.args = args
        self._world_state = world_state
        self._history = history
        self.creator = creator
        self.timestamp = timestamp
        self.rw_set = ReadWriteSet()
        #: Number of shim calls made (used by the device model to charge time).
        self.state_operations = 0
        #: Chaincode event set by the invocation, as ``(name, payload)``.
        self.event: Optional[Tuple[str, str]] = None
        #: Pass a list to have every point read served from the world state
        #: appended as ``(key, committed entry)``.  It is complete for as
        #: long as it stays a list: a deterministic chaincode's outcome is
        #: then a pure function of the proposal and of these pairs, so a
        #: replica holding equal entries may adopt it (``Peer.endorse``).
        #: Any other look at the ledger — a scan, the history index, the
        #: raw ``world_state``/``history`` — sets it to ``None`` for good.
        self.read_log = read_log
        self._pending_writes: Dict[str, Optional[str]] = {}

    @property
    def world_state(self) -> WorldState:
        """The peer's committed world state (planner statistics, indexes)."""
        self.read_log = None
        return self._world_state

    @property
    def history(self) -> HistoryDatabase:
        """The peer's key-history index."""
        self.read_log = None
        return self._history

    # ------------------------------------------------------------- state API
    def get_state(self, key: str) -> Optional[str]:
        """Read the latest committed value of ``key`` (read-your-own-writes
        within the same invocation is supported, like Fabric's simulator)."""
        self.state_operations += 1
        if key in self._pending_writes:
            return self._pending_writes[key]
        entry = self._world_state.get(key)
        if self.read_log is not None:
            self.read_log.append((key, entry))
        self.rw_set.add_read(key, entry.version if entry else None)
        return entry.value if entry else None

    def put_state(self, key: str, value: str) -> None:
        """Buffer a write; it is applied only if the transaction commits."""
        if not key:
            raise ChaincodeError("cannot put_state with an empty key")
        self.state_operations += 1
        self._pending_writes[key] = value
        self.rw_set.add_write(key, value)

    def del_state(self, key: str) -> None:
        """Buffer a deletion of ``key``."""
        self.state_operations += 1
        self._pending_writes[key] = None
        self.rw_set.add_write(key, None, is_delete=True)

    # Scans.  Every form charges exactly **one** state operation — a query
    # keeps the same virtual-time cost whichever access path serves it —
    # and hands back the run of committed versions in key order.
    # Recording the reads is the consumer's half of the contract: it
    # passes the ``read`` (and ``read_line``) of every row it *returns*
    # to ``rw_set.extend_reads`` in a single call once it is done — as
    # Fabric's ``GetQueryResult`` records only the keys the state
    # database hands back, and never re-runs the query at validation
    # (phantom reads go undetected).  Rows visited and rejected are not
    # reads; no invoke function scans, so no scan read meets MVCC.
    # Scans and the history lookup reach the ledger through the
    # ``world_state``/``history`` properties, which is what ends the
    # read log.
    def get_state_by_range(self, start_key: str, end_key: str) -> Candidates:
        """Committed key range (``end_key`` empty = to the end), materialised."""
        self.state_operations += 1
        return self.world_state.range_query_versioned(start_key, end_key)

    def get_state_by_prefix(self, prefix: str, where: Where) -> Candidates:
        """Committed keys starting with ``prefix``, materialised.

        Served from the world state's prefix index, so a prefix-scoped
        rich query only reads its candidate keys instead of the whole key
        space; an empty ``prefix`` is the whole key space.  A version
        whose scan column fails one of the ``where`` equalities is not
        handed out (``()``: every version is).
        """
        self.state_operations += 1
        return self.world_state.query_by_prefix_versioned(prefix, where)

    def get_state_by_keys(self, keys: List[str]) -> Candidates:
        """Committed entries for an explicit candidate key list.

        The index-path read: the planner hands over the (sorted) keys
        surviving a posting-list intersection.  Missing keys (deleted
        since indexing) are skipped.
        """
        self.state_operations += 1
        return list(filter(None, map(self.world_state.get, keys)))

    def iter_state_by_prefix(
        self, prefix: str, where: Where, start_after: str = ""
    ) -> Candidates:
        """Lazy prefix scan, optionally resuming strictly after a bookmark.

        The paginated counterpart of :meth:`get_state_by_prefix`: a
        bookmark+limit page only touches the rows it visits.  An empty
        ``prefix`` walks the full key space.
        """
        self.state_operations += 1
        return self.world_state.iter_by_prefix_versioned(prefix, where, start_after)

    def iter_state_by_range(
        self, start_key: str, end_key: str, start_after: str = ""
    ) -> Candidates:
        """Lazy range scan, optionally resuming strictly after a bookmark."""
        self.state_operations += 1
        return self.world_state.iter_by_range_versioned(start_key, end_key, start_after)

    def get_history_for_key(self, key: str) -> List[HistoryEntry]:
        """Every committed modification of ``key``, oldest first."""
        self.state_operations += 1
        return self.history.history_for_key(key)

    # ---------------------------------------------------------------- events
    def set_event(self, name: str, payload: str = "") -> None:
        """Attach a chaincode event to this invocation (at most one, like Fabric)."""
        if not name:
            raise ChaincodeError("chaincode event name cannot be empty")
        self.event = (name, payload)

    # --------------------------------------------------------------- context
    def get_creator(self) -> Optional[Certificate]:
        """The certificate of the client that submitted the proposal."""
        return self.creator

    def get_tx_timestamp(self) -> float:
        return self.timestamp
