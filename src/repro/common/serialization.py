"""Canonical serialization helpers.

Signatures and checksums must be computed over a stable byte encoding, so
all structures destined for hashing or signing go through
:func:`canonical_json` (sorted keys, no whitespace, UTF-8).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any


class _CanonicalEncoder(json.JSONEncoder):
    """JSON encoder that understands dataclasses, bytes and sets."""

    def default(self, o: Any) -> Any:  # noqa: D102 - documented by parent
        if dataclasses.is_dataclass(o) and not isinstance(o, type):
            return dataclasses.asdict(o)
        if isinstance(o, (bytes, bytearray, memoryview)):
            return {"__bytes__": bytes(o).hex()}
        if isinstance(o, (set, frozenset)):
            return sorted(o)
        if hasattr(o, "to_dict"):
            return o.to_dict()
        return super().default(o)


#: Holds configuration only, so one instance serves every call (what
#: ``json.dumps`` would build afresh each time).
_CANONICAL = _CanonicalEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_json(obj: Any) -> bytes:
    """Encode ``obj`` into deterministic JSON bytes.

    Keys are sorted and separators are minimal so that logically equal
    objects always serialize to identical bytes.
    """
    return _CANONICAL.encode(obj).encode("utf-8")


def copy_json(value: Any) -> Any:
    """A private copy of a parsed-JSON value: containers copied, scalars shared.

    The common shape — a flat dict or list of scalars — costs one C-level
    copy and a type check per item; only nested containers recurse.
    """
    if type(value) is dict:
        copied = dict(value)
        for key, item in value.items():
            if type(item) is dict or type(item) is list:
                copied[key] = copy_json(item)
        return copied
    if type(value) is list:
        return [
            copy_json(item) if type(item) is dict or type(item) is list else item
            for item in value
        ]
    return value
