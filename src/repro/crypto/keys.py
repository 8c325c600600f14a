"""Key pairs and a deterministic signature scheme.

The scheme mimics the API of an asymmetric signature system:

* a :class:`KeyPair` has a private part (kept by the owner) and a public
  part (embedded in certificates),
* :func:`sign` produces a signature with the private key,
* :func:`verify` checks a signature given only the public key.

Internally the "public key" is a commitment to the private key and the
signature binds the message to the private key via HMAC; verification
recomputes the HMAC under the key registered for that commitment.  This
gives unforgeability against actors that follow the library API (nobody
else holds the private key object), which is sufficient for
protocol-level simulation.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from functools import lru_cache

from repro.common.errors import CryptoError

_PUBLIC_DERIVATION_TAG = b"hyperprov-public-key-v1"
_SIGNATURE_TAG = b"hyperprov-signature-v1"
#: What ``hexdigest`` emits, and all a signature's MAC may consist of.
_HEX_DIGITS = "0123456789abcdef"

#: Registry mapping public keys to the private key that generated them.  It
#: plays the role of the asymmetric trapdoor: verifiers can re-compute the
#: HMAC for any key created through this module without the signer handing
#: them the private key object, while code outside the library cannot forge
#: signatures for identities it did not create.  (A simulation substitute
#: for real ECDSA — see the package docstring.)
_KEY_REGISTRY: dict = {}


class _BoundedMemo(dict):
    """A dict memo with a size cap, cleared wholesale when full.

    O(1) amortized inserts, a hard memory bound and no per-hit
    bookkeeping; dropping everything on overflow is cheaper than LRU and
    the memo re-warms in one pass.  Not thread-safe — the simulation is
    single-threaded by design.
    """

    __slots__ = ("cap",)

    def __init__(self, cap: int) -> None:
        super().__init__()
        self.cap = cap

    def __setitem__(self, key, value) -> None:
        if len(self) >= self.cap and key not in self:
            self.clear()
        super().__setitem__(key, value)


#: Memoized verification outcomes keyed by (public_key, message, signature).
#: ``verify`` is a pure function, but the same triple is re-checked by every
#: endorsing peer (the client's proposal signature) — cache the HMAC result.
#: Every re-check falls inside one endorsement fan-out, before the next
#: triple arrives; the cap only bounds the message bytes the keys pin.
_VERIFY_CACHE = _BoundedMemo(64)


@lru_cache(maxsize=4096)
def _derive_public(private_key: bytes) -> str:
    # Pure derivation, re-run on every sign/verify for the same handful of
    # keys — memoized (keys are 32-byte digests, the cache stays tiny).
    return hashlib.sha256(_PUBLIC_DERIVATION_TAG + private_key).hexdigest()


@dataclass(frozen=True)
class KeyPair:
    """A private/public key pair.

    Create with :meth:`generate` (seeded, deterministic) rather than the
    constructor so key material derivation stays in one place.
    """

    private_key: bytes = field(repr=False)
    public_key: str

    @classmethod
    def generate(cls, seed: str) -> "KeyPair":
        """Deterministically derive a key pair from an identity seed."""
        private = hashlib.sha256(f"private:{seed}".encode("utf-8")).digest()
        public = _derive_public(private)
        _KEY_REGISTRY[public] = private
        return cls(private_key=private, public_key=public)

    def sign(self, message: bytes) -> str:
        """Sign ``message`` with this key pair's private key."""
        return sign(self.private_key, message)

    def verify(self, message: bytes, signature: str) -> bool:
        """Verify a signature against this key pair's public key."""
        return verify(self.public_key, message, signature, private_hint=self.private_key)


def sign(private_key: bytes, message: bytes) -> str:
    """Produce a hex signature of ``message`` under ``private_key``."""
    if not isinstance(message, (bytes, bytearray)):
        raise CryptoError("messages must be bytes")
    mac = hmac.new(private_key, _SIGNATURE_TAG + bytes(message), hashlib.sha256)
    # The signature embeds the public key so verifiers can bind it to the
    # claimed signer without access to the private key.
    return f"{_derive_public(private_key)}:{mac.hexdigest()}"


def verify(
    public_key: str,
    message: bytes,
    signature: str,
    private_hint: bytes | None = None,
) -> bool:
    """Check that ``signature`` over ``message`` was produced by the holder of
    ``public_key``.

    The HMAC is fully recomputed against the message, so a signature copied
    onto different content fails verification.  The signing key is obtained
    either from ``private_hint`` (when the verifier is the signer) or from
    the module's key registry.
    """
    if not isinstance(signature, str) or ":" not in signature:
        return False
    cache_key = (public_key, bytes(message), signature)
    cached = _VERIFY_CACHE.get(cache_key)
    if cached is not None:
        return cached
    embedded_public, mac_hex = signature.split(":", 1)
    if embedded_public != public_key:
        return False
    # 64 lower-case hex digits and nothing else: ``strip`` leaves an
    # empty string exactly when every character is in the set.
    if len(mac_hex) != 64 or mac_hex.strip(_HEX_DIGITS):
        return False
    if private_hint is None:
        # Registered by ``KeyPair.generate`` under the public key it
        # derives to, so a hit needs no second derivation.
        signing_key = _KEY_REGISTRY.get(public_key)
        if signing_key is None:
            return False
    elif _derive_public(private_hint) != public_key:
        return False
    else:
        signing_key = private_hint
    expected = hmac.new(
        signing_key, _SIGNATURE_TAG + bytes(message), hashlib.sha256
    ).hexdigest()
    result = hmac.compare_digest(expected, mac_hex)
    _VERIFY_CACHE[cache_key] = result
    return result
