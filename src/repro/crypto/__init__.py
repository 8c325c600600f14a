"""Cryptographic primitives for the permissioned blockchain substrate.

Real Hyperledger Fabric uses ECDSA over X.509 certificates.  The standard
library has no asymmetric cryptography, so this package implements an
HMAC-based signature scheme with the same *shape*: key pairs, signing,
verification, certificate authorities issuing certificates with a chain of
trust, and certificate revocation.  Security of the scheme is not the
point — the protocol logic (who signs what, what gets verified where) is
identical to Fabric's, which is what the reproduction needs.
"""

from repro.crypto.keys import KeyPair, sign, verify
from repro.crypto.certificates import Certificate, CertificateAuthority
from repro.crypto.merkle import merkle_root

__all__ = [
    "KeyPair",
    "sign",
    "verify",
    "Certificate",
    "CertificateAuthority",
    "merkle_root",
]
