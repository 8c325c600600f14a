#!/usr/bin/env python
"""Tamper evidence: HyperProv vs a centralized provenance database.

Demonstrates the property that motivates blockchain-based provenance.
The same record is stored three ways:

1. in HyperProv — a malicious peer rewrites its local ledger copy and is
   immediately detectable (its hash chain breaks, the other peers still
   verify, and the off-chain data no longer matches the on-chain checksum);
2. in a ProvChain-style Proof-of-Work ledger — also tamper evident, but at
   a massive energy cost on edge hardware;
3. in a centralized database — the rewrite succeeds silently.

Run with::

    python examples/tamper_detection.py
"""

from __future__ import annotations

from repro.api import StoreRequest
from repro.baselines.centraldb import CentralProvenanceDatabase
from repro.baselines.provchain import PowProvenanceChain
from repro.common.hashing import checksum_of
from repro.core import build_desktop_deployment
from repro.devices.model import DeviceModel
from repro.devices.profiles import RASPBERRY_PI_3B_PLUS, XEON_E5_1603
from repro.energy.power import PowerModel


ORIGINAL = b"batch-42: 1000 units, QA passed"
FORGED = b"batch-42: 1000 units, QA passed (revised: 900 units)"


def hyperprov_scenario() -> None:
    print("=== HyperProv (permissioned blockchain) ===")
    deployment = build_desktop_deployment()
    store = deployment.client.as_store()
    store.store(StoreRequest(key="audit/batch-42", data=ORIGINAL))

    # A compromised peer rewrites the record inside its local block store.
    # Committed envelopes are sealed and structurally shared across peers,
    # so the rewrite goes through the peer's copy-on-write tamper hook —
    # only the victim's own ledger copy diverges.
    victim = deployment.peers[0]
    block = victim.block_store.block(0)
    position = next(i for i, t in enumerate(block.transactions) if t.function == "set")
    tx = victim.tamper(0, position)
    tx.args[1] = checksum_of(FORGED)

    print(f"  tampered peer chain verifies : {victim.block_store.verify_chain()}")
    for honest in deployment.peers[1:]:
        assert honest.block_store.verify_chain()
    print("  honest peers chain verifies  : True (3/3)")

    # Clients talking to honest peers still get the true record, and the
    # stored data still matches the chain.
    record = store.get("audit/batch-42")
    print(f"  on-chain checksum matches original data : "
          f"{record.checksum == checksum_of(ORIGINAL)}")
    print(f"  forged data accepted by verify           : "
          f"{bool(store.verify('audit/batch-42', FORGED))}")


def provchain_scenario() -> None:
    print("\n=== ProvChain-style Proof-of-Work ledger ===")
    miner = DeviceModel("rpi-miner", RASPBERRY_PI_3B_PLUS)
    chain = PowProvenanceChain(miner, difficulty_bits=20)
    result = chain.store(StoreRequest(key="audit/batch-42", data=ORIGINAL))
    power = PowerModel(miner).power_over((0.0, max(result.latency_s, 1e-9))).watts
    print(f"  mining one record took {result.latency_s:.2f} s of virtual time "
          f"at {power:.1f} W on an RPi")
    chain.tamper("audit/batch-42", checksum_of(FORGED))
    print(f"  audit after tampering: {chain.audit()} (detected)")


def central_db_scenario() -> None:
    print("\n=== Centralized provenance database ===")
    server = DeviceModel("db-server", XEON_E5_1603)
    database = CentralProvenanceDatabase(server_device=server)
    database.store(StoreRequest(key="audit/batch-42", data=ORIGINAL))
    database.tamper("audit/batch-42", checksum_of(FORGED))
    rewritten = database.get("audit/batch-42")
    print(f"  record now claims checksum of forged data: "
          f"{rewritten.checksum == checksum_of(FORGED)}")
    print(f"  audit still looks clean: {database.audit()} "
          "(nothing to detect it with)")


def main() -> None:
    hyperprov_scenario()
    provchain_scenario()
    central_db_scenario()
    print("\nSummary: both ledgers expose the rewrite; only HyperProv does so at "
          "edge-compatible resource cost, and the central database never notices.")


if __name__ == "__main__":
    main()
