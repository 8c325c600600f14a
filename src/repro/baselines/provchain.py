"""ProvChain-style Proof-of-Work provenance baseline.

Every provenance record becomes a block mined at a fixed difficulty.  The
mining time is sampled from the PoW engine given the device's hash rate
and the CPU is pegged for the whole duration, so the baseline is both
slower and dramatically more energy-hungry than HyperProv on the same
hardware — the comparison the paper's related-work section appeals to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

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
    mined_in_s: float
    recorded_at: float
    nonce: int = 0


@dataclass
class PowStoreResult:
    """Client-visible outcome of storing one record on the PoW chain."""

    entry: PowChainEntry
    latency_s: float


class PowProvenanceChain:
    """A single-miner Proof-of-Work provenance ledger."""

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
        self._latest_by_key: Dict[str, int] = {}
        self._store_adapter = None

    def as_store(self):
        """This baseline as a unified :class:`repro.api.ProvenanceStore`."""
        if self._store_adapter is None:
            from repro.api.adapters import PowChainStore

            self._store_adapter = PowChainStore(self)
        return self._store_adapter

    # ------------------------------------------------------------------ write
    def _store_record(self, record: ProvenanceRecord, at_time: float = 0.0) -> PowStoreResult:
        """Mine a block anchoring ``record``; the miner CPU is busy throughout."""
        record.validate()
        # All cores search in parallel, so the wall-clock mining time shrinks
        # by the core count but the whole CPU is pegged for its duration —
        # exactly the energy profile that makes PoW unsuitable at the edge.
        cores = self.miner_device.profile.cores
        hash_rate = self.miner_device.profile.hash_rate_bytes_per_s / 64.0 * cores
        mining_time, _full_util = self.engine.sample_mining_time(hash_rate)
        end = at_time
        for _core in range(cores):
            _, core_end = self.miner_device.charge_cpu(at_time, mining_time)
            end = max(end, core_end)
        chain_hash = self._chain.extend(record.to_json())
        entry = PowChainEntry(
            index=len(self._entries),
            record=record,
            chain_hash=chain_hash,
            mined_in_s=mining_time,
            recorded_at=end,
        )
        self._entries.append(entry)
        self._latest_by_key[record.key] = entry.index
        return PowStoreResult(entry=entry, latency_s=end - at_time)

    # ------------------------------------------------------------------- read
    def _get(self, key: str) -> PowChainEntry:
        """Latest entry for ``key``."""
        index = self._latest_by_key.get(key)
        if index is None:
            raise NotFoundError(f"key {key!r} not recorded on the PoW chain")
        return self._entries[index]

    def _history(self, key: str) -> List[PowChainEntry]:
        """Every entry for ``key``, oldest first."""
        return [entry for entry in self._entries if entry.record.key == key]

    @property
    def length(self) -> int:
        return len(self._entries)

    # -------------------------------------------------------------- integrity
    def verify_chain(self) -> bool:
        """Re-play the hash chain over all recorded entries."""
        return self._chain.verify(entry.record.to_json() for entry in self._entries)

    def tamper(self, key: str, new_checksum: str) -> None:
        """Attempt to rewrite a committed record in place.

        The rewrite is applied to the local copy but :meth:`verify_chain`
        will subsequently fail — demonstrating tamper evidence.
        """
        entry = self._get(key)
        tampered = ProvenanceRecord(
            key=entry.record.key,
            checksum=new_checksum,
            location=entry.record.location,
            creator=entry.record.creator,
            organization=entry.record.organization,
            certificate_fingerprint=entry.record.certificate_fingerprint,
            dependencies=list(entry.record.dependencies),
            metadata=dict(entry.record.metadata),
            timestamp=entry.record.timestamp,
            size_bytes=entry.record.size_bytes,
        )
        if len(new_checksum) != 64:
            raise ValidationError("tampered checksum must still look like a SHA-256 digest")
        self._entries[entry.index] = PowChainEntry(
            index=entry.index,
            record=tampered,
            chain_hash=entry.chain_hash,
            mined_in_s=entry.mined_in_s,
            recorded_at=entry.recorded_at,
            nonce=entry.nonce,
        )
