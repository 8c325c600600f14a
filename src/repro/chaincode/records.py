"""The HyperProv on-chain provenance record.

The paper: "the core data currently stored in the blockchain is the
checksum of every data item, the data location, a certificate pertaining
to who stored the data, a list of other data items that were used to
create an item, and a custom field for any additional metadata."
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List

from repro.common.errors import ValidationError
from repro.common.records import record_fields
from repro.common.serialization import copy_json, sorted_json


@dataclass
class ProvenanceRecord:
    """One version of a data item's provenance metadata, as stored on chain."""

    #: Logical name (ledger key) of the data item, e.g. ``sensor-42/reading``.
    key: str
    #: SHA-256 checksum of the data item's content.
    checksum: str
    #: Pointer into off-chain storage (``ssh://host/path`` style URI).
    location: str
    #: Subject name from the creator's certificate.
    creator: str
    #: The creator's organization (MSP id).
    organization: str
    #: Fingerprint of the creator's certificate as validated by the MSP.
    certificate_fingerprint: str
    #: Ledger keys of the data items this item was derived from.
    dependencies: List[str] = field(default_factory=list)
    #: Free-form, domain-specific metadata.
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: Transaction timestamp (virtual time) when this version was recorded.
    timestamp: float = 0.0
    #: Size of the referenced data item in bytes (informational).
    size_bytes: int = 0

    def validate(self) -> None:
        """Basic schema validation before the record is written on chain."""
        if not self.key:
            raise ValidationError("provenance record requires a non-empty key")
        if not self.checksum or len(self.checksum) != 64:
            raise ValidationError("checksum must be a 64-character SHA-256 hex digest")
        if not self.location:
            raise ValidationError("provenance record requires a data location")
        if not self.creator:
            raise ValidationError("provenance record requires a creator")
        if any(not dep for dep in self.dependencies):
            raise ValidationError("dependency keys must be non-empty")

    def copy(self, **changes: Any) -> "ProvenanceRecord":
        """This record with ``changes`` applied, sharing no container with it."""
        return replace(
            self,
            dependencies=list(self.dependencies),
            metadata=copy_json(self.metadata),
            **changes,
        )

    def to_json(self) -> str:
        """Serialize to the JSON document stored as the ledger value."""
        return sorted_json(
            {
                "key": self.key,
                "checksum": self.checksum,
                "location": self.location,
                "creator": self.creator,
                "organization": self.organization,
                "certificate_fingerprint": self.certificate_fingerprint,
                "dependencies": list(self.dependencies),
                "metadata": self.metadata,
                "timestamp": self.timestamp,
                "size_bytes": self.size_bytes,
            }
        )

    @classmethod
    def from_json(cls, document: str) -> "ProvenanceRecord":
        """Parse a ledger value back into a record.

        Raises :class:`ValidationError` for anything that is not a JSON
        object with well-typed fields.  The parsed ``dependencies`` and
        ``metadata`` containers are private to this call and become the
        record's own.
        """
        return cls(*record_fields(document))

    def matches_checksum(self, checksum: str) -> bool:
        """Whether ``checksum`` equals this record's checksum."""
        return bool(checksum) and checksum == self.checksum
