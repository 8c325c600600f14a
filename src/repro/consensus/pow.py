"""Proof-of-Work engine for the public-blockchain baseline.

HyperProv's related-work comparison (ProvChain [9] and public-blockchain
provenance in general) motivates the claim that permissioned blockchains
need far fewer resources.  The ProvChain-style baseline in
:mod:`repro.baselines` anchors provenance records by mining blocks with
this engine: :meth:`expected_mining_time` / :meth:`sample_mining_time`
give the analytic / sampled mining time for a device's hash rate, so the
baseline benchmark does not have to grind real hashes.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.simulation.randomness import DeterministicRandom


class ProofOfWorkEngine:
    """Proof of work over SHA-256 with a leading-zero-bit target, timed, not ground."""

    def __init__(self, difficulty_bits: int = 16, rng: Optional[DeterministicRandom] = None) -> None:
        if not 1 <= difficulty_bits <= 64:
            raise ConfigurationError("difficulty_bits must be between 1 and 64")
        self.difficulty_bits = difficulty_bits
        self._rng = rng or DeterministicRandom(999)

    @property
    def expected_attempts(self) -> float:
        """Mean number of hash evaluations to find a valid nonce."""
        return float(2 ** self.difficulty_bits)

    def expected_mining_time(self, hash_rate_per_s: float) -> float:
        """Mean mining time for a device hashing at ``hash_rate_per_s``."""
        if hash_rate_per_s <= 0:
            raise ConfigurationError("hash rate must be positive")
        return self.expected_attempts / hash_rate_per_s

    def sample_mining_time(self, hash_rate_per_s: float) -> Tuple[float, float]:
        """Sample one mining duration (geometric search ≈ exponential time).

        Returns ``(duration_s, energy_weight)`` where ``energy_weight`` is
        the fraction of the duration spent at full CPU utilization (always
        1.0 for PoW — the miner pegs the CPU, which is exactly the contrast
        with HyperProv that Fig. 3 highlights).
        """
        mean = self.expected_mining_time(hash_rate_per_s)
        return self._rng.exponential(mean), 1.0
