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
from typing import Any, Tuple

from repro.common.errors import CryptoError

_PUBLIC_DERIVATION_TAG = b"hyperprov-public-key-v1"
_SIGNATURE_TAG = b"hyperprov-signature-v1"
#: SHA-256's block size: HMAC pads (or pre-hashes) every key to it.
_BLOCK_SIZE = 64
_INNER_PAD = bytes(byte ^ 0x36 for byte in range(256))
_OUTER_PAD = bytes(byte ^ 0x5C for byte in range(256))
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
#: ``verify`` is a pure function, and every triple a registered key signs
#: is checked again later: the client's proposal signature by each
#: endorsing peer, each endorsement signature by the validating replica at
#: commit.  So :func:`sign` stores the verdict ``True`` for the triple it
#: has just produced — ``verify`` would recompute that very MAC under the
#: registered key — and a forged or altered triple is a different key.
#: An endorsement's verdict is read only once its block is cut, so the cap
#: (1 024, about five triples a post) must outlast a block's worth of
#: posts in flight; it also bounds the message bytes the keys pin.
_VERIFY_CACHE = _BoundedMemo(1024)


@lru_cache(maxsize=4096)
def _derive_public(private_key: bytes) -> str:
    # Pure derivation, re-run on every sign/verify for the same handful of
    # keys — memoized (keys are 32-byte digests, the cache stays tiny).
    return hashlib.sha256(_PUBLIC_DERIVATION_TAG + private_key).hexdigest()


@lru_cache(maxsize=256)
def _pads(private_key: bytes) -> Tuple[Any, Any]:
    """SHA-256 states that have absorbed the key's HMAC pads (RFC 2104).

    The inner state has also absorbed :data:`_SIGNATURE_TAG`, the prefix
    of every signed message.  Deriving them once per key halves the cost
    of a MAC.  Bounded rather than a dict: a run has one key per identity,
    but a fleet has thousands of identities and each entry holds two hash
    states.
    """
    if len(private_key) > _BLOCK_SIZE:
        private_key = hashlib.sha256(private_key).digest()
    key = private_key.ljust(_BLOCK_SIZE, b"\0")
    inner = hashlib.sha256(key.translate(_INNER_PAD))
    inner.update(_SIGNATURE_TAG)
    return inner, hashlib.sha256(key.translate(_OUTER_PAD))


def _mac(private_key: bytes, message: bytes) -> str:
    """``hmac.new(private_key, _SIGNATURE_TAG + message, sha256).hexdigest()``."""
    inner_pad, outer_pad = _pads(private_key)
    inner = inner_pad.copy()
    inner.update(message)
    outer = outer_pad.copy()
    outer.update(inner.digest())
    return outer.hexdigest()


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


def sign(private_key: bytes, message: bytes) -> str:
    """Produce a hex signature of ``message`` under ``private_key``."""
    if not isinstance(message, (bytes, bytearray)):
        raise CryptoError("messages must be bytes")
    message = bytes(message)
    public = _derive_public(private_key)
    # The signature embeds the public key so verifiers can bind it to the
    # claimed signer without access to the private key.
    signature = f"{public}:{_mac(private_key, message)}"
    if _KEY_REGISTRY.get(public) == private_key:
        # ``verify`` looks the key up in the registry: a key it does not
        # hold gets no verdict here, so its signatures still fail.
        _VERIFY_CACHE[(public, message, signature)] = True
    return signature


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
    message = bytes(message)
    if private_hint is not None:
        # The signer checking its own signature.  The verdict rests on a
        # key the registry may not hold, so it neither reads nor feeds
        # the memo that registry-backed verdicts live in.
        if _derive_public(private_hint) != public_key:
            return False
        return _mac_matches(private_hint, public_key, message, signature)
    cache_key = (public_key, message, signature)
    cached = _VERIFY_CACHE.get(cache_key)
    if cached is not None:
        return cached
    # Registered by ``KeyPair.generate`` under the public key it derives
    # to, so a hit needs no second derivation.
    signing_key = _KEY_REGISTRY.get(public_key)
    if signing_key is None:
        return False
    result = _mac_matches(signing_key, public_key, message, signature)
    _VERIFY_CACHE[cache_key] = result
    return result


def _mac_matches(signing_key: bytes, public_key: str, message: bytes, signature: str) -> bool:
    """Whether ``signature`` names ``public_key`` and carries the MAC of
    ``message`` under ``signing_key``."""
    embedded_public, mac_hex = signature.split(":", 1)
    if embedded_public != public_key:
        return False
    # 64 lower-case hex digits and nothing else: ``strip`` leaves an
    # empty string exactly when every character is in the set.
    if len(mac_hex) != 64 or mac_hex.strip(_HEX_DIGITS):
        return False
    return hmac.compare_digest(_mac(signing_key, message), mac_hex)
