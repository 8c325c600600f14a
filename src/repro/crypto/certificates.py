"""X.509-like certificates and certificate authorities.

HyperProv stores "a certificate pertaining to who stored the data" with
every on-chain record.  In Fabric that certificate is issued by the
organization's CA and validated by the MSP.  This module provides the same
structure: a :class:`CertificateAuthority` per organization issues
:class:`Certificate` objects binding a subject name to a public key, signed
by the CA; certificates can be verified against the CA and revoked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.common.errors import CryptoError, DuplicateError
from repro.common.serialization import canonical_json
from repro.crypto.keys import KeyPair, verify


@dataclass(frozen=True)
class Certificate:
    """A signed binding of ``subject`` (an identity) to a public key."""

    subject: str
    organization: str
    public_key: str
    issuer: str
    serial: int
    signature: str
    role: str = "member"

    def to_dict(self) -> Dict[str, object]:
        """Dictionary representation (used for canonical serialization)."""
        return {
            "subject": self.subject,
            "organization": self.organization,
            "public_key": self.public_key,
            "issuer": self.issuer,
            "serial": self.serial,
            "signature": self.signature,
            "role": self.role,
        }

    def canonical_text(self) -> str:
        """``canonical_json(self.to_dict())`` as text, encoded once per object.

        Every transaction envelope embeds its creator's and each endorser's
        certificate, and a whole run sees a handful of distinct ones; the
        certificate is frozen, so the fragment cannot change under it.
        """
        cached = self.__dict__.get("_canonical_text")
        if cached is None:
            cached = canonical_json(self.to_dict()).decode("ascii")
            object.__setattr__(self, "_canonical_text", cached)
        return cached

    def tbs_bytes(self) -> bytes:
        """The "to-be-signed" portion of the certificate."""
        return canonical_json(
            {
                "subject": self.subject,
                "organization": self.organization,
                "public_key": self.public_key,
                "issuer": self.issuer,
                "serial": self.serial,
                "role": self.role,
            }
        )

    @property
    def fingerprint(self) -> str:
        """Stable short identifier for the certificate.

        Computed once per certificate object — the chaincode reads the
        creator fingerprint on every endorsement, and the certificate is
        frozen, so the canonical serialization cannot change under it.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            from repro.common.hashing import sha256_hex

            cached = sha256_hex(self.tbs_bytes())[:16]
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def __hash__(self) -> int:
        # Same field tuple the generated __hash__ would use, but memoized:
        # MSP validation hashes the endorser certificate once per
        # endorsement per validating peer, and the 7-field tuple hash over
        # long strings is measurable on that path.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((
                self.subject, self.organization, self.public_key,
                self.issuer, self.serial, self.signature, self.role,
            ))
            object.__setattr__(self, "_hash", cached)
        return cached


class CertificateAuthority:
    """Issues and validates certificates for one organization."""

    def __init__(self, name: str, organization: str) -> None:
        self.name = name
        self.organization = organization
        self._keys = KeyPair.generate(f"ca:{organization}:{name}")
        self._serial = 0
        self._issued: Dict[str, Certificate] = {}
        self._revoked: Set[int] = set()
        #: Memoized signature-binding results (see :meth:`validate`).
        self._signature_ok: Dict[Certificate, bool] = {}

    @property
    def public_key(self) -> str:
        """The CA's root public key (trust anchor distributed to all MSPs)."""
        return self._keys.public_key

    def issue(self, subject: str, public_key: str, role: str = "member") -> Certificate:
        """Issue a certificate binding ``subject`` to ``public_key``.

        Raises :class:`~repro.common.errors.DuplicateError` if the subject
        already holds an unrevoked certificate from this CA.
        """
        existing = self._issued.get(subject)
        if existing is not None and existing.serial not in self._revoked:
            raise DuplicateError(
                f"subject {subject!r} already has certificate serial {existing.serial}"
            )
        self._serial += 1
        unsigned = Certificate(
            subject=subject,
            organization=self.organization,
            public_key=public_key,
            issuer=self.name,
            serial=self._serial,
            signature="",
            role=role,
        )
        signature = self._keys.sign(unsigned.tbs_bytes())
        certificate = Certificate(
            subject=subject,
            organization=self.organization,
            public_key=public_key,
            issuer=self.name,
            serial=self._serial,
            signature=signature,
            role=role,
        )
        self._issued[subject] = certificate
        return certificate

    def revoke(self, certificate: Certificate) -> None:
        """Add the certificate to the revocation list."""
        if certificate.issuer != self.name:
            raise CryptoError("cannot revoke a certificate issued by another CA")
        self._revoked.add(certificate.serial)

    def is_revoked(self, certificate: Certificate) -> bool:
        return certificate.serial in self._revoked

    def validate(self, certificate: Certificate) -> bool:
        """Check issuer, signature binding, and revocation status.

        The signature-binding check is memoized per certificate object
        value (certificates are frozen dataclasses, so the cache key
        covers every field): validating the same endorser certificate once
        per peer per block would otherwise redo the same HMAC millions of
        times.  Revocation is deliberately *not* cached — revoking takes
        effect on the next validation.
        """
        if certificate.issuer != self.name:
            return False
        if certificate.organization != self.organization:
            return False
        if self.is_revoked(certificate):
            return False
        cached = self._signature_ok.get(certificate)
        if cached is None:
            cached = verify(
                self.public_key,
                certificate.tbs_bytes(),
                certificate.signature,
                private_hint=self._keys.private_key,
            )
            self._signature_ok[certificate] = cached
        return cached

    def lookup(self, subject: str) -> Optional[Certificate]:
        """Return the certificate issued to ``subject``, if any."""
        return self._issued.get(subject)

    @property
    def issued_count(self) -> int:
        return len(self._issued)
