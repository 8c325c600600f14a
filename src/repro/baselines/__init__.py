"""Baseline provenance systems used for comparison benchmarks.

The paper positions HyperProv against public-blockchain provenance
systems (ProvChain [9], SmartProvenance [13]) on resource consumption,
and implicitly against centralized provenance databases on trust.  Two
baselines are provided, each a :class:`repro.api.ProvenanceStore` itself:

* :class:`~repro.baselines.provchain.PowProvenanceChain` — a ProvChain-style
  system that anchors every provenance record by mining a Proof-of-Work
  block, pegging the CPU of the mining device,
* :class:`~repro.baselines.centraldb.CentralProvenanceDatabase` — a
  single-server database with no tamper evidence (fast, but an admin can
  silently rewrite history — the test-suite demonstrates exactly that).
"""

from repro.baselines.provchain import PowProvenanceChain, PowChainEntry
from repro.baselines.centraldb import CentralProvenanceDatabase

__all__ = ["PowProvenanceChain", "PowChainEntry", "CentralProvenanceDatabase"]
