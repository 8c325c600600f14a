"""Centralized provenance database baseline.

A single trusted server stores provenance records in an ordinary mutable
database.  It is faster and cheaper than any blockchain, but offers no
tamper evidence: an administrator (or an attacker with server access) can
rewrite history without detection.  The benchmark reports its throughput
alongside HyperProv's; the test-suite demonstrates the silent-tampering
weakness that motivates blockchain-based provenance in the first place.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.api.protocol import (
    HistoryEntryView,
    HistoryView,
    ProvenanceStore,
    RecordView,
    StoreRequest,
    SubmitHandle,
    VerifyResult,
    as_checksum,
)
from repro.chaincode.records import ProvenanceRecord
from repro.common.errors import NotFoundError
from repro.devices.model import DeviceModel

#: Host name of the database server in every location it assigns.
SERVER_NODE = "provdb"
#: Fixed cost of one client request/response round trip (seconds).
REQUEST_OVERHEAD_S = 0.0015


class CentralProvenanceDatabase(ProvenanceStore):
    """Single-server provenance store behind the unified protocol."""

    backend_name = "central-db"

    def __init__(self, server_device: DeviceModel) -> None:
        self.server_device = server_device
        self._records: Dict[str, List[ProvenanceRecord]] = {}

    # ------------------------------------------------------------------ write
    def submit(self, request: StoreRequest, at_time: Optional[float] = None) -> SubmitHandle:
        """Store the request's record; costs one round trip plus a disk write."""
        start = at_time or 0.0
        record = request.record_for(
            start, f"db://{SERVER_NODE}/{request.key}", "client", "central"
        )
        record.validate()
        write = self.server_device.disk_write_time(
            len(request.data or b"") + len(record.to_json())
        )
        _, end = self.server_device.occupy("disk", start + REQUEST_OVERHEAD_S, write)
        self._records.setdefault(record.key, []).append(record)
        return SubmitHandle(
            request=request,
            backend=self.backend_name,
            record=record.copy(),
            latency_s=end - start,
            completed_at=end,
        )

    # ------------------------------------------------------------------- read
    def _versions(self, key: str) -> List[ProvenanceRecord]:
        """Every record stored for ``key``, oldest first."""
        versions = self._records.get(key)
        if not versions:
            raise NotFoundError(f"key {key!r} not present in the central database")
        return versions

    def get(self, key: str, at_time: Optional[float] = None) -> RecordView:
        return RecordView.from_document(self._versions(key)[-1].to_json())

    def history(self, key: str, at_time: Optional[float] = None) -> HistoryView:
        entries = tuple(
            HistoryEntryView(
                view=RecordView.from_document(record.to_json()), tx_id=str(index)
            )
            for index, record in enumerate(self._versions(key))
        )
        return HistoryView(key=key, entries=entries)

    def verify(
        self,
        key: str,
        data_or_checksum: Union[bytes, bytearray, str],
        at_time: Optional[float] = None,
    ) -> VerifyResult:
        checksum = as_checksum(data_or_checksum)
        return VerifyResult(key=key, matches=self._versions(key)[-1].checksum == checksum)

    # --------------------------------------------------------------- weakness
    def audit(self) -> bool:
        """No integrity record exists, so an audit always looks clean."""
        return True

    def tamper(self, key: str, new_checksum: str) -> None:
        """Silently rewrite the latest record for ``key``.

        Succeeds without leaving any trace — there is no hash chain or
        replicated ledger to contradict the rewrite.  This is the property
        HyperProv is designed to prevent.
        """
        versions = self._versions(key)
        versions[-1] = versions[-1].copy(checksum=new_checksum)
