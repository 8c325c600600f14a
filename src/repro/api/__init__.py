"""Unified client-facing API: one protocol, three backends, tenant sessions.

* :mod:`repro.api.protocol` — :class:`ProvenanceStore`, the class every
  backend subclasses, and its typed envelopes (:class:`StoreRequest`,
  :class:`RecordView`, :class:`HistoryView`, :class:`VerifyResult`,
  :class:`SubmitHandle`).
* :mod:`repro.api.adapters` — :class:`HyperProvStore`, HyperProv's
  implementation (reached through ``client.as_store()``).  The central
  database and the PoW chain in :mod:`repro.baselines` are stores
  themselves.
* :mod:`repro.api.service` — :class:`HyperProvService`, the sessioned
  facade with futures-based submission and tenant namespaces.

See ``docs/api.md`` for the session lifecycle and the migration table
from the legacy blocking methods.
"""

from repro.api.adapters import HyperProvStore
from repro.api.protocol import (
    HistoryEntryView,
    HistoryView,
    ProvenanceStore,
    QueryPage,
    RecordView,
    StoreReceipt,
    StoreRequest,
    SubmitHandle,
    VerifyResult,
)
from repro.api.service import HyperProvService, ProvenanceSession

__all__ = [
    "ProvenanceStore",
    "StoreRequest",
    "RecordView",
    "HistoryView",
    "HistoryEntryView",
    "VerifyResult",
    "QueryPage",
    "StoreReceipt",
    "SubmitHandle",
    "HyperProvStore",
    "HyperProvService",
    "ProvenanceSession",
]
