#!/usr/bin/env python
"""Quickstart: store a data item with HyperProv and query its provenance.

Builds the paper's desktop deployment (four x86-64 peers, a Solo orderer,
an SSHFS-style off-chain storage node) and walks through the unified
``ProvenanceStore`` API via a service session: futures-based ``submit``,
``get``, ``verify``, ``history`` and the off-chain ``get_data`` fetch.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.api import HyperProvService
from repro.core import build_desktop_deployment


def main() -> None:
    # 1. Assemble the deployment (virtual hardware + Fabric network + storage).
    deployment = build_desktop_deployment()
    deployment.client.init()
    service = HyperProvService(deployment)
    print("Deployment ready:")
    print(f"  peers   : {[peer.name for peer in deployment.peers]}")
    print(f"  orderer : {deployment.fabric.shard(0).orderer_node} (Solo)")
    print(f"  storage : ssh://storage (off-chain)")

    with service.session() as session:
        # 2. Submit a data item: the payload goes to off-chain storage, the
        #    checksum + pointer + creator certificate go on chain.  submit()
        #    is non-blocking — the returned future completes at commit.
        payload = b"temperature=21.5C humidity=40% station=tromso-01"
        handle = session.submit(
            "stations/tromso-01/reading-0001",
            payload,
            metadata={"unit": "celsius", "station": "tromso-01"},
        )
        print(f"\nSubmitted (in flight: {session.in_flight}, done: {handle.done})")
        session.drain()  # let the orderer cut the block and the peers commit
        print("StoreData committed:")
        print(f"  tx id        : {handle.handle.tx_id}")
        print(f"  block        : {handle.commit_block}")
        print(f"  total latency: {handle.latency_s * 1000:.1f} ms (virtual)")
        print(f"  checksum     : {handle.record.checksum[:16]}…")
        print(f"  location     : {handle.storage_receipt.location}")

        # 3. Query the provenance record back (a typed RecordView).
        view = session.get("stations/tromso-01/reading-0001")
        print("\nOn-chain record:")
        print(f"  creator      : {view.creator} ({view.organization})")
        print(f"  size         : {view.size_bytes} bytes")
        print(f"  read latency : {view.latency_s * 1000:.1f} ms")

        # 4. Verify integrity: the chain vouches for the checksum.
        assert session.verify("stations/tromso-01/reading-0001", payload)
        assert not session.verify("stations/tromso-01/reading-0001", b"tampered")
        print("\nIntegrity check against the chain: OK (tampered copy rejected)")

        # 5. Update the item and inspect its operation history.
        session.store("stations/tromso-01/reading-0001", payload + b" corrected=true")
        history = session.history("stations/tromso-01/reading-0001")
        print(f"\nKey history has {len(history)} versions:")
        for entry in history:
            print(f"  block {entry.block}: checksum {entry.view.checksum[:16]}…")

    # 6. Fetch the data back through the on-chain pointer and verify it
    #    (get_data spans chain + off-chain storage, beyond the protocol core).
    result = deployment.client.get_data("stations/tromso-01/reading-0001")
    print("\nget_data:")
    print(f"  verified     : {result.verified}")
    print(f"  bytes        : {len(result.data)}")
    print(f"  latency      : {result.latency_s * 1000:.1f} ms "
          f"(chain {result.timings['chain_s'] * 1000:.1f} ms + "
          f"storage {result.timings['storage_s'] * 1000:.1f} ms)")

    heights = deployment.fabric.ledger_heights()
    print(f"\nAll peers agree on ledger height: {heights}")


if __name__ == "__main__":
    main()
