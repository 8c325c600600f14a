"""Organizations and enrolled identities."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.crypto.certificates import Certificate, CertificateAuthority
from repro.crypto.keys import KeyPair


@dataclass
class Identity:
    """An enrolled identity: name, key pair and CA-issued certificate."""

    name: str
    organization: str
    keys: KeyPair = field(repr=False)
    certificate: Certificate

    def sign(self, message: bytes) -> str:
        """Sign ``message`` with this identity's private key."""
        return self.keys.sign(message)


class Organization:
    """A consortium member: owns a CA and enrolls peers, orderers and clients."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.ca = CertificateAuthority(name=f"{name}-ca", organization=name)
        self._identities: Dict[str, Identity] = {}

    def enroll(self, identity_name: str, role: str = "member") -> Identity:
        """Create keys and issue a certificate for ``identity_name``.

        Enrollment is idempotent — re-enrolling the same name returns the
        existing identity, matching how a Fabric CA's enrollment is reused.
        """
        if identity_name in self._identities:
            return self._identities[identity_name]
        keys = KeyPair.generate(f"{self.name}:{identity_name}")
        certificate = self.ca.issue(identity_name, keys.public_key, role=role)
        identity = Identity(
            name=identity_name,
            organization=self.name,
            keys=keys,
            certificate=certificate,
        )
        self._identities[identity_name] = identity
        return identity

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Organization({self.name!r}, identities={len(self._identities)})"
