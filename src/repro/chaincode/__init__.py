"""Chaincode: the executable ledger logic hosted on every peer.

Fabric chaincode runs in its own container and talks to the peer through
the *shim* API (``GetState``/``PutState``/``GetHistoryForKey``/…).  This
package provides the shim (:mod:`repro.chaincode.shim`), the lifecycle
registry that installs chaincode on peers (:mod:`repro.chaincode.lifecycle`),
the HyperProv on-chain record schema (:mod:`repro.chaincode.records`) and
the HyperProv chaincode implementation (:mod:`repro.chaincode.hyperprov`)
with the same function set the paper's Go chaincode exposes.
"""

from repro.chaincode.shim import ChaincodeStub, ChaincodeResponse
from repro.chaincode.records import ProvenanceRecord
from repro.chaincode.hyperprov import HyperProvChaincode
from repro.chaincode.lifecycle import ChaincodeDefinition, ChaincodeRegistry

__all__ = [
    "ChaincodeStub",
    "ChaincodeResponse",
    "ProvenanceRecord",
    "HyperProvChaincode",
    "ChaincodeDefinition",
    "ChaincodeRegistry",
]
