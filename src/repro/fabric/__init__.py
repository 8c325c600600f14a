"""The permissioned-blockchain substrate (Hyperledger-Fabric-like).

Implements Fabric's execute-order-validate architecture:

1. **Execute** — a client sends a proposal to endorsing peers; each peer
   simulates the chaincode against its committed state, producing a
   read/write set, and signs the result (:class:`~repro.fabric.peer.Peer`).
2. **Order** — the client assembles the endorsed transaction and submits
   it to the ordering service, which batches transactions into blocks
   (:mod:`repro.consensus`).
3. **Validate** — every peer receives each block, checks the endorsement
   policy and performs MVCC validation against its world state, then
   commits the valid transactions and indexes key history.

:class:`~repro.fabric.network.FabricNetwork` wires clients, peers, the
orderer, the simulated network and the device models together and is the
substrate the HyperProv client library runs on.
"""

from repro.fabric.proposal import Proposal, ProposalResponse, TransactionHandle
from repro.fabric.peer import Peer, CommitResult
from repro.fabric.channel import Channel
from repro.fabric.network import FabricNetwork

__all__ = [
    "Proposal",
    "ProposalResponse",
    "TransactionHandle",
    "Peer",
    "CommitResult",
    "Channel",
    "FabricNetwork",
]
