"""Centralized provenance database baseline.

A single trusted server stores provenance records in an ordinary mutable
database.  It is faster and cheaper than any blockchain, but offers no
tamper evidence: an administrator (or an attacker with server access) can
rewrite history without detection.  The benchmark reports its throughput
alongside HyperProv's; the test-suite demonstrates the silent-tampering
weakness that motivates blockchain-based provenance in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.chaincode.records import ProvenanceRecord
from repro.common.errors import NotFoundError
from repro.devices.model import DeviceModel
from repro.network.fabric import NetworkFabric


@dataclass
class CentralStoreResult:
    """Outcome of one store operation against the central database."""

    record: ProvenanceRecord
    latency_s: float
    completed_at: float


class CentralProvenanceDatabase:
    """Single-server provenance store with request/response over the network."""

    def __init__(
        self,
        server_device: DeviceModel,
        network: Optional[NetworkFabric] = None,
        server_node: str = "provdb",
        request_overhead_s: float = 0.0015,
    ) -> None:
        self.server_device = server_device
        self.network = network
        self.server_node = server_node
        self.request_overhead_s = request_overhead_s
        self._records: Dict[str, List[ProvenanceRecord]] = {}
        if network is not None and server_node not in network.nodes:
            network.register_node(server_node, profile=server_device.profile.nic)
        self._store_adapter = None

    def as_store(self):
        """This baseline as a unified :class:`repro.api.ProvenanceStore`."""
        if self._store_adapter is None:
            from repro.api.adapters import CentralDbStore

            self._store_adapter = CentralDbStore(self)
        return self._store_adapter

    # ------------------------------------------------------------------ write
    def _store_record(
        self,
        record: ProvenanceRecord,
        at_time: float = 0.0,
        client_node: Optional[str] = None,
        payload_bytes: int = 0,
    ) -> CentralStoreResult:
        """Store a provenance record; costs one round trip plus a disk write."""
        record.validate()
        cursor = at_time + self.request_overhead_s
        if self.network is not None and client_node is not None:
            cursor += self.network.estimate_transfer_time(
                client_node, self.server_node, payload_bytes + 1024
            )
        write = self.server_device.disk_write_time(payload_bytes + len(record.to_json()))
        _, cursor = self.server_device.occupy("disk", cursor, write)
        self._records.setdefault(record.key, []).append(record)
        return CentralStoreResult(record=record, latency_s=cursor - at_time, completed_at=cursor)

    # ------------------------------------------------------------------- read
    def _get(self, key: str) -> ProvenanceRecord:
        """Latest record for ``key``."""
        history = self._records.get(key)
        if not history:
            raise NotFoundError(f"key {key!r} not present in the central database")
        return history[-1]

    def _history(self, key: str) -> List[ProvenanceRecord]:
        """Every version of ``key``, oldest first."""
        return list(self._records.get(key, []))

    # --------------------------------------------------------------- weakness
    def tamper(self, key: str, new_checksum: str) -> ProvenanceRecord:
        """Silently rewrite the latest record for ``key``.

        Succeeds without leaving any trace — there is no hash chain or
        replicated ledger to contradict the rewrite.  This is the property
        HyperProv is designed to prevent.
        """
        current = self._get(key)
        tampered = ProvenanceRecord(
            key=current.key,
            checksum=new_checksum,
            location=current.location,
            creator=current.creator,
            organization=current.organization,
            certificate_fingerprint=current.certificate_fingerprint,
            dependencies=list(current.dependencies),
            metadata=dict(current.metadata),
            timestamp=current.timestamp,
            size_bytes=current.size_bytes,
        )
        self._records[key][-1] = tampered
        return tampered

    def detect_tampering(self) -> List[str]:
        """The central DB has no integrity record, so detection finds nothing."""
        return []
