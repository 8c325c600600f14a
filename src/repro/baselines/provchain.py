"""ProvChain-style Proof-of-Work provenance baseline.

Every provenance record becomes a block mined at a fixed difficulty.  The
mining time is sampled from the PoW engine given the device's hash rate
and the CPU is pegged for the whole duration, so the baseline is both
slower and dramatically more energy-hungry than HyperProv on the same
hardware — the comparison the paper's related-work section appeals to.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from repro.common.errors import NotFoundError, ValidationError
from repro.common.hashing import HashChain
from repro.consensus.pow import ProofOfWorkEngine
from repro.devices.model import DeviceModel
from repro.simulation.randomness import DeterministicRandom


@dataclass
class PowChainEntry:
    """One mined provenance block."""

    index: int
    record: ProvenanceRecord
    chain_hash: str


class PowProvenanceChain(ProvenanceStore):
    """A single-miner Proof-of-Work provenance ledger behind the unified protocol."""

    backend_name = "provchain-pow"

    def __init__(
        self,
        miner_device: DeviceModel,
        difficulty_bits: int = 20,
        rng: Optional[DeterministicRandom] = None,
    ) -> None:
        self.miner_device = miner_device
        self.engine = ProofOfWorkEngine(
            difficulty_bits=difficulty_bits, rng=rng or DeterministicRandom(555)
        )
        self._chain = HashChain()
        self._entries: List[PowChainEntry] = []
        self._by_key: Dict[str, List[PowChainEntry]] = {}

    # ------------------------------------------------------------------ write
    def submit(self, request: StoreRequest, at_time: Optional[float] = None) -> SubmitHandle:
        """Mine a block anchoring the request's record; the miner CPU is busy throughout."""
        start = at_time or 0.0
        record = request.record_for(start, f"pow://{request.key}", "miner", "pow-org")
        record.validate()
        # All cores search in parallel, so the wall-clock mining time shrinks
        # by the core count but the whole CPU is pegged for its duration —
        # exactly the energy profile that makes PoW unsuitable at the edge.
        cores = self.miner_device.profile.cores
        hash_rate = self.miner_device.profile.hash_rate_bytes_per_s / 64.0 * cores
        mining_time, _full_util = self.engine.sample_mining_time(hash_rate)
        end = start
        for _core in range(cores):
            _, core_end = self.miner_device.charge_cpu(start, mining_time)
            end = max(end, core_end)
        entry = PowChainEntry(
            index=len(self._entries),
            record=record,
            chain_hash=self._chain.extend(record.to_json()),
        )
        self._entries.append(entry)
        self._by_key.setdefault(record.key, []).append(entry)
        return SubmitHandle(
            request=request,
            backend=self.backend_name,
            record=record.copy(),
            latency_s=end - start,
            completed_at=end,
        )

    # ------------------------------------------------------------------- read
    def _versions(self, key: str) -> List[PowChainEntry]:
        """Every entry for ``key``, oldest first."""
        entries = self._by_key.get(key)
        if not entries:
            raise NotFoundError(f"key {key!r} not recorded on the PoW chain")
        return entries

    def get(self, key: str, at_time: Optional[float] = None) -> RecordView:
        return RecordView.from_document(self._versions(key)[-1].record.to_json())

    def history(self, key: str, at_time: Optional[float] = None) -> HistoryView:
        views = tuple(
            HistoryEntryView(
                view=RecordView.from_document(entry.record.to_json()),
                tx_id=entry.chain_hash,
                block=entry.index,
            )
            for entry in self._versions(key)
        )
        return HistoryView(key=key, entries=views)

    def verify(
        self,
        key: str,
        data_or_checksum: Union[bytes, bytearray, str],
        at_time: Optional[float] = None,
    ) -> VerifyResult:
        checksum = as_checksum(data_or_checksum)
        return VerifyResult(key=key, matches=self._versions(key)[-1].record.checksum == checksum)

    # -------------------------------------------------------------- integrity
    def audit(self) -> bool:
        """Re-play the hash chain over every entry: a rewritten one breaks it."""
        return self._chain.verify(entry.record.to_json() for entry in self._entries)

    def tamper(self, key: str, new_checksum: str) -> None:
        """Attempt to rewrite the latest committed record for ``key`` in place.

        The rewrite is applied to the local copy but :meth:`audit` will
        subsequently fail — demonstrating tamper evidence.
        """
        if len(new_checksum) != 64:
            raise ValidationError("tampered checksum must still look like a SHA-256 digest")
        entry = self._versions(key)[-1]
        entry.record = entry.record.copy(checksum=new_checksum)
