"""The Membership Service Provider: validates identities and signatures.

Each channel carries an MSP configuration listing the trusted organizations
(their CA root keys).  Peers use the MSP to check that a submitting client
or an endorsing peer belongs to the consortium and that its certificate is
valid and unrevoked, and to verify signatures produced by those identities.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.common.errors import CryptoError
from repro.crypto.certificates import Certificate
from repro.crypto.keys import verify
from repro.membership.identity import Organization


class MSP:
    """Validates certificates and signatures against a set of organizations."""

    def __init__(self, organizations: Iterable[Organization] = ()) -> None:
        self._organizations: Dict[str, Organization] = {}
        for org in organizations:
            self.add_organization(org)

    def add_organization(self, organization: Organization) -> None:
        """Admit an organization (its CA becomes a trust anchor)."""
        self._organizations[organization.name] = organization

    def validate_certificate(self, certificate: Certificate) -> bool:
        """Return ``True`` iff the certificate chains to a trusted, unrevoked CA."""
        org = self._organizations.get(certificate.organization)
        if org is None:
            return False
        return org.ca.validate(certificate)

    def require_valid_certificate(self, certificate: Certificate) -> None:
        """Raise :class:`~repro.common.errors.CryptoError` on invalid certificates."""
        if not self.validate_certificate(certificate):
            raise CryptoError(
                f"certificate for {certificate.subject!r} "
                f"({certificate.organization}) failed MSP validation"
            )

    def verify_signature(
        self, certificate: Certificate, message: bytes, signature: str
    ) -> bool:
        """Validate the certificate *and* the signature it claims to cover."""
        if not self.validate_certificate(certificate):
            return False
        return verify(certificate.public_key, message, signature)
