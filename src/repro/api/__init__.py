"""Unified client-facing API: one protocol, three backends, tenant sessions.

* :mod:`repro.api.protocol` — the :class:`ProvenanceStore` protocol and
  its typed envelopes (:class:`StoreRequest`, :class:`RecordView`,
  :class:`HistoryView`, :class:`VerifyResult`, :class:`SubmitHandle`).
* :mod:`repro.api.adapters` — the protocol implementations for
  HyperProv, the central database and the PoW chain (reached through each
  backend's ``as_store()``).
* :mod:`repro.api.service` — :class:`HyperProvService`, the sessioned
  facade with futures-based submission and tenant namespaces.

See ``docs/api.md`` for the session lifecycle and the migration table
from the legacy blocking methods.
"""

from repro.api.adapters import CentralDbStore, HyperProvStore, PowChainStore
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
    "CentralDbStore",
    "PowChainStore",
    "HyperProvService",
    "ProvenanceSession",
]
