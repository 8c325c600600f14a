"""Transactions, read/write sets and endorsements.

Envelope serialization (``envelope_bytes``/``digest``/``size_bytes``) and
rw-set digests are on the simulator's hottest path: every block cut, every
Merkle build and every per-peer validation touches them.  Both classes
therefore cache what is read of their canonical bytes — the SHA-256 and,
for an envelope, the length; the bytes themselves are never retained.
The cache contract is explicit:

* mutations go through the mutation API (``add_read``/``add_write``),
  which invalidates the cache;
* ``seal()`` freezes the envelope (the client seals after assembling it,
  before ordering) — after that the envelope is built once, its digest
  and size are reused forever and mutation attempts fail loudly;
* ``tamper()`` returns a private, unsealed copy-on-write clone for
  tamper-evidence experiments, so structurally shared envelopes on other
  peers stay untouched.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.common.errors import SealedEnvelopeError
from repro.common.hashing import sha256_hex
from repro.crypto.certificates import Certificate

#: A key version is (block_number, tx_number) exactly like Fabric's height-based versions.
Version = Tuple[int, int]


def _json_number(value: float) -> str:
    """``json.dumps(value)``, without the encoder for the usual finite float."""
    if type(value) is float and isfinite(value):
        return repr(value)
    return json.dumps(value)


class TxValidationCode(enum.Enum):
    """Validation outcome recorded for each transaction in a block.

    A subset of Fabric's ``TxValidationCode`` enum — the codes the
    reproduction can actually produce.
    """

    VALID = "VALID"
    MVCC_READ_CONFLICT = "MVCC_READ_CONFLICT"
    ENDORSEMENT_POLICY_FAILURE = "ENDORSEMENT_POLICY_FAILURE"
    BAD_SIGNATURE = "BAD_SIGNATURE"
    DUPLICATE_TXID = "DUPLICATE_TXID"
    INVALID_OTHER_REASON = "INVALID_OTHER_REASON"


class ReadSetEntry(NamedTuple):
    """A key read during simulation together with the version observed.

    A ``NamedTuple`` rather than a frozen dataclass: range scans record
    one entry per returned key, and namedtuple construction is several
    times cheaper while staying immutable and value-compared.
    """

    key: str
    version: Optional[Version]


def canonical_read(key: str, version: Optional[Version]) -> str:
    """One read as it stands in ``canonical_json(rw_set.to_dict())``."""
    if version:
        return '{"key":%s,"version":[%d,%d]}' % (_quote(key), *version)
    return '{"key":%s,"version":null}' % _quote(key)


class WriteSetEntry(NamedTuple):
    """A key written during simulation; ``is_delete`` marks deletions."""

    key: str
    value: Optional[str]
    is_delete: bool = False


@dataclass
class ReadWriteSet:
    """The read/write set produced by simulating a chaincode invocation."""

    reads: List[ReadSetEntry] = field(default_factory=list)
    writes: List[WriteSetEntry] = field(default_factory=list)
    _digest: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )
    _sealed: bool = field(default=False, init=False, repr=False, compare=False)
    #: The canonical line of every read, when a scan that is the whole
    #: read set handed them over (``extend_reads``).  Never grows, so it is
    #: trusted only while ``reads`` is exactly as long; dropped once the
    #: digest is cached.
    _read_lines: Optional[List[str]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __setattr__(self, name: str, value: object) -> None:
        if name in ("reads", "writes") and getattr(self, "_sealed", False):
            raise SealedEnvelopeError(f"cannot rebind {name!r} on a sealed rw-set")
        object.__setattr__(self, name, value)

    def seal(self) -> "ReadWriteSet":
        """Freeze the rw-set; further ``add_read``/``add_write`` calls raise."""
        if not self._sealed:
            object.__setattr__(self, "reads", tuple(self.reads))
            object.__setattr__(self, "writes", tuple(self.writes))
            self._sealed = True
        return self

    def copy(self) -> "ReadWriteSet":
        """A private, unsealed clone (entries are immutable and shared)."""
        clone = ReadWriteSet(reads=list(self.reads), writes=list(self.writes))
        return clone

    def add_read(self, key: str, version: Optional[Version]) -> None:
        if self._sealed:
            raise SealedEnvelopeError("cannot add a read to a sealed rw-set")
        self._digest = None
        self.reads.append(ReadSetEntry(key=key, version=version))

    def extend_reads(
        self, entries: List[ReadSetEntry], lines: Optional[List[str]] = None
    ) -> None:
        """Record every read of a scan in one call, in visit order.

        ``lines[i]`` is ``canonical_read(*entries[i])``: a scan passes the
        lines its committed versions already carry, and the digest joins
        them instead of formatting every entry again.
        """
        if self._sealed:
            raise SealedEnvelopeError("cannot add a read to a sealed rw-set")
        self._digest = None
        self._read_lines = lines if not self.reads else None
        self.reads.extend(entries)

    def add_write(self, key: str, value: Optional[str], is_delete: bool = False) -> None:
        if self._sealed:
            raise SealedEnvelopeError("cannot add a write to a sealed rw-set")
        self._digest = None
        self.writes.append(WriteSetEntry(key=key, value=value, is_delete=is_delete))

    def to_dict(self) -> Dict[str, object]:
        return {
            "reads": [
                {"key": entry.key, "version": list(entry.version) if entry.version else None}
                for entry in self.reads
            ],
            "writes": [
                {"key": entry.key, "value": entry.value, "is_delete": entry.is_delete}
                for entry in self.writes
            ],
        }

    def canonical_bytes(self) -> bytes:
        """Exactly ``canonical_json(self.to_dict())``, without the dicts.

        A scan's read set holds hundreds of entries; formatting the entry
        tuples directly skips one dict and one list per read.  The
        equality with :meth:`to_dict` is pinned by a property test.
        """
        return self._canonical_text().encode("ascii")

    def _canonical_text(self) -> str:
        lines = self._read_lines
        if lines is None or len(lines) != len(self.reads):
            lines = [canonical_read(key, version) for key, version in self.reads]
        reads = ",".join(lines)
        writes = ",".join([
            '{"is_delete":%s,"key":%s,"value":%s}' % (
                "true" if is_delete else "false", _quote(key),
                "null" if value is None else _quote(value),
            )
            for key, value, is_delete in self.writes
        ])
        return '{"reads":[%s],"writes":[%s]}' % (reads, writes)

    def digest(self) -> str:
        """Stable digest of the read/write set (what endorsers sign).

        Computed once and cached per object; the cache is dropped whenever
        the mutation API adds an entry.
        """
        if self._digest is None:
            self._digest = sha256_hex(self.canonical_bytes())
            self._read_lines = None
        return self._digest


@dataclass
class Endorsement:
    """A peer's signature over a proposal response."""

    endorser: str
    organization: str
    certificate: Certificate
    signature: str
    response_digest: str
    _sealed: bool = field(default=False, init=False, repr=False, compare=False)

    def __setattr__(self, name: str, value: object) -> None:
        if getattr(self, "_sealed", False) and name != "_sealed":
            raise SealedEnvelopeError(
                "cannot modify an endorsement inside a sealed envelope"
            )
        object.__setattr__(self, name, value)

    def _seal(self) -> None:
        self._sealed = True

    def to_dict(self) -> Dict[str, object]:
        return {
            "endorser": self.endorser,
            "organization": self.organization,
            "certificate": self.certificate.to_dict(),
            "signature": self.signature,
            "response_digest": self.response_digest,
        }

    def _canonical_text(self) -> str:
        """Exactly ``canonical_json(self.to_dict())`` as text."""
        return (
            '{"certificate":%s,"endorser":%s,"organization":%s,'
            '"response_digest":%s,"signature":%s}' % (
                self.certificate.canonical_text(), _quote(self.endorser),
                _quote(self.organization), _quote(self.response_digest),
                _quote(self.signature),
            )
        )


@dataclass
class Transaction:
    """A fully assembled transaction ready for ordering.

    Carries the chaincode invocation, the read/write set produced during
    endorsement, the collected endorsements and the submitting client's
    certificate — the same envelope content Fabric's orderer receives.
    """

    tx_id: str
    channel: str
    chaincode: str
    function: str
    args: List[str]
    rw_set: ReadWriteSet
    endorsements: List[Endorsement] = field(default_factory=list)
    creator: Optional[Certificate] = None
    creator_signature: str = ""
    timestamp: float = 0.0
    response_payload: Optional[str] = None
    #: Chaincode event emitted during endorsement, as ``(name, payload)``.
    chaincode_event: Optional[Tuple[str, str]] = None
    validation_code: TxValidationCode = TxValidationCode.VALID
    #: SHA-256 and length of the sealed envelope, filled by its one build.
    _envelope_digest: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )
    _envelope_size: int = field(default=0, init=False, repr=False, compare=False)
    _sealed: bool = field(default=False, init=False, repr=False, compare=False)

    def __setattr__(self, name: str, value: object) -> None:
        # Sealed envelopes are structurally shared across peers: rebinding
        # any envelope field (scalar or container) would mutate every
        # peer's ledger at once while the cached digest keeps verifying.
        # Only commit metadata (``validation_code``) and the private cache
        # slots stay assignable after seal().
        if (
            getattr(self, "_sealed", False)
            and name != "validation_code"
            and not name.startswith("_")
        ):
            raise SealedEnvelopeError(
                f"cannot assign {name!r} on a sealed transaction; "
                "mutate a tamper() clone instead"
            )
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------ seal/tamper
    def seal(self) -> "Transaction":
        """Freeze the envelope so its digest and size can be cached forever.

        The client seals right after assembling the envelope (nothing may
        change once it is submitted for ordering); sealing converts the
        mutable containers to tuples so accidental in-place edits fail
        loudly instead of silently diverging from the cached digest.
        ``validation_code`` stays assignable — it is commit metadata, not
        part of the envelope.
        """
        if not self._sealed:
            object.__setattr__(self, "args", tuple(self.args))
            object.__setattr__(self, "endorsements", tuple(self.endorsements))
            for endorsement in self.endorsements:
                endorsement._seal()
            self.rw_set.seal()
            self._sealed = True
        return self

    def tamper(self) -> "Transaction":
        """Copy-on-write hook: a private, *unsealed* clone of this envelope.

        Sealed envelopes are structurally shared between the orderer and
        every peer, so tamper-evidence experiments must not edit them in
        place.  The clone recomputes its canonical bytes on demand, so any
        mutation is visible to hash verification — exactly what the
        tamper-evidence guarantee requires.
        """
        clone = Transaction(
            tx_id=self.tx_id,
            channel=self.channel,
            chaincode=self.chaincode,
            function=self.function,
            args=list(self.args),
            rw_set=self.rw_set.copy(),
            endorsements=[replace(e) for e in self.endorsements],
            creator=self.creator,
            creator_signature=self.creator_signature,
            timestamp=self.timestamp,
            response_payload=self.response_payload,
            chaincode_event=self.chaincode_event,
            validation_code=self.validation_code,
        )
        return clone

    def envelope_bytes(self) -> bytes:
        """Canonical bytes of the full transaction envelope (hashed into blocks).

        Rebuilt on every call and never retained: what the ledger reads
        of an envelope is :meth:`digest` and :attr:`size_bytes`, which a
        sealed transaction takes from one build.
        """
        # Exactly ``canonical_json(self.to_dict())`` (pinned by a property
        # test), assembled from fragments: the certificates' encodings are
        # cached on the frozen certificates and the rw-set formats its
        # entry tuples directly, so no nested dict is built or walked.
        return (
            '{"args":[%s],"chaincode":%s,"channel":%s,"creator":%s,'
            '"endorsements":[%s],"function":%s,"rw_set":%s,"timestamp":%s,"tx_id":%s}' % (
                ",".join([_quote(arg) for arg in self.args]),
                _quote(self.chaincode),
                _quote(self.channel),
                self.creator.canonical_text() if self.creator else "null",
                ",".join([e._canonical_text() for e in self.endorsements]),
                _quote(self.function),
                self.rw_set._canonical_text(),
                _json_number(self.timestamp),
                _quote(self.tx_id),
            )
        ).encode("ascii")

    def _measure(self) -> Tuple[str, int]:
        """``(digest, size)`` of a fresh build, kept when the envelope is sealed.

        Unsealed envelopes (test fixtures, tampered clones) recompute per
        call so in-place edits remain hash-visible.
        """
        envelope = self.envelope_bytes()
        digest, size = sha256_hex(envelope), len(envelope)
        if self._sealed:
            self._envelope_digest, self._envelope_size = digest, size
        return digest, size

    def to_dict(self) -> Dict[str, object]:
        """The envelope as a dictionary (the reference for :meth:`envelope_bytes`)."""
        return {
            "tx_id": self.tx_id,
            "channel": self.channel,
            "chaincode": self.chaincode,
            "function": self.function,
            "args": list(self.args),
            "rw_set": self.rw_set.to_dict(),
            "endorsements": [e.to_dict() for e in self.endorsements],
            "creator": self.creator.to_dict() if self.creator else None,
            "timestamp": self.timestamp,
        }

    def digest(self) -> str:
        return self._envelope_digest or self._measure()[0]

    @property
    def size_bytes(self) -> int:
        """Approximate wire size of the transaction envelope."""
        return self._envelope_size or self._measure()[1]
