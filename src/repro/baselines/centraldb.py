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

from repro.baselines.pipeline_support import PipelinedStoreMixin
from repro.chaincode.records import ProvenanceRecord
from repro.common.errors import NotFoundError
from repro.common.metrics import MetricsRegistry
from repro.devices.model import DeviceModel
from repro.middleware.config import PipelineConfig
from repro.middleware.context import OperationKind
from repro.network.fabric import NetworkFabric


@dataclass
class CentralStoreResult:
    """Outcome of one store operation against the central database."""

    record: ProvenanceRecord
    latency_s: float
    completed_at: float


class CentralProvenanceDatabase(PipelinedStoreMixin):
    """Single-server provenance store with request/response over the network."""

    chaincode_label = "centraldb"

    def __init__(
        self,
        server_device: DeviceModel,
        network: Optional[NetworkFabric] = None,
        server_node: str = "provdb",
        request_overhead_s: float = 0.0015,
        pipeline_config: Optional[PipelineConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.server_device = server_device
        self.network = network
        self.server_node = server_node
        self.request_overhead_s = request_overhead_s
        self._records: Dict[str, List[ProvenanceRecord]] = {}
        if network is not None and server_node not in network.nodes:
            network.register_node(server_node, profile=server_device.profile.nic)
        self._init_pipeline(pipeline_config, metrics, "baseline.centraldb")

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
        _, cursor = self.server_device.occupy("disk", cursor, write, label="provdb-write")
        self._records.setdefault(record.key, []).append(record)
        self._invalidate_cached_reads(record.key)
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

    @property
    def record_count(self) -> int:
        return sum(len(history) for history in self._records.values())

    # --------------------------------------------------------------- weakness
    def tamper(self, key: str, new_checksum: str) -> ProvenanceRecord:
        """Silently rewrite the latest record for ``key``.

        Succeeds without leaving any trace — there is no hash chain or
        replicated ledger to contradict the rewrite.  This is the property
        HyperProv is designed to prevent.
        """
        current = self._execute("get", OperationKind.READ, [key])
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
