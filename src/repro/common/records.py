"""Reading a committed provenance record: its fields, type-checked.

The record schema lives in :mod:`repro.chaincode.records`; what it takes
to *read* one lives here, below every package that reads records.  The
ledger memoizes each committed version's reading
(``VersionedValue.reading``), the query layer matches selectors on it and
the API builds views from it, and none of them may import the chaincode.
"""

from __future__ import annotations

import json
from typing import Any, Optional, Tuple

from repro.common.errors import ValidationError

#: The fields of a reading, in :class:`~repro.chaincode.records.ProvenanceRecord` order.
RECORD_FIELDS = (
    "key", "checksum", "location", "creator", "organization",
    "certificate_fingerprint", "dependencies", "metadata", "timestamp",
    "size_bytes",
)
DEPENDENCIES = RECORD_FIELDS.index("dependencies")
METADATA = RECORD_FIELDS.index("metadata")


def record_fields(value: Any) -> Tuple[Any, ...]:
    """The fields of a ledger value, type-checked, in :data:`RECORD_FIELDS` order.

    ``value`` is the committed JSON text or its already-parsed document.
    Raises :class:`ValidationError` for anything that is not a JSON object
    with well-typed fields.  ``dependencies`` and ``metadata`` are the
    document's own containers: whoever parsed the text owns them, whoever
    was handed a shared document copies them.
    """
    try:
        data = json.loads(value) if isinstance(value, str) else value
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        dependencies = data.get("dependencies") or []
        metadata = data.get("metadata") or {}
        if not isinstance(dependencies, list) or not isinstance(metadata, dict):
            raise TypeError("dependencies must be a list and metadata an object")
        get = data.get
        return (
            get("key", ""),
            get("checksum", ""),
            get("location", ""),
            get("creator", ""),
            get("organization", ""),
            get("certificate_fingerprint", ""),
            dependencies,
            metadata,
            float(get("timestamp", 0.0)),
            int(get("size_bytes", 0)),
        )
    except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ValidationError(f"malformed provenance record: {exc}") from exc


def record_reading(document: Optional[Any]) -> Optional[Tuple[Any, ...]]:
    """What a committed version memoizes of its parsed ``document``.

    :func:`record_fields` with ``dependencies`` as a tuple of strings, so
    nothing in the reading can be changed in place except ``metadata``,
    which is the shared document's own map (read-only by contract; a view
    copies it).  ``None`` when there is no document, when
    :func:`record_fields` refuses it, or when a dependency is not a
    string: whoever reads such a version goes back to the document and
    answers exactly as it would have without the memo.
    """
    if document is None:
        return None
    try:
        fields = record_fields(document)
    except ValidationError:
        return None
    dependencies = tuple(fields[DEPENDENCIES])
    if not all(type(dependency) is str for dependency in dependencies):
        return None
    return fields[:DEPENDENCIES] + (dependencies,) + fields[DEPENDENCIES + 1:]
