"""Tests for keys, certificates and Merkle trees."""

import hashlib
import hmac

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import CryptoError, DuplicateError
from repro.crypto.certificates import CertificateAuthority
from repro.crypto.keys import _SIGNATURE_TAG, KeyPair, _mac, sign, verify
from repro.common.hashing import sha256_hex
from repro.crypto.merkle import EMPTY_ROOT, merkle_root
from tests.property_budgets import budget


# ----------------------------------------------------------------------- keys
def test_keypair_generation_is_deterministic():
    assert KeyPair.generate("alice").public_key == KeyPair.generate("alice").public_key
    assert KeyPair.generate("alice").public_key != KeyPair.generate("bob").public_key


def test_sign_verify_roundtrip():
    keys = KeyPair.generate("alice")
    signature = keys.sign(b"message")
    assert verify(keys.public_key, b"message", signature)


def test_verify_rejects_wrong_message():
    keys = KeyPair.generate("alice")
    signature = keys.sign(b"message")
    assert not verify(keys.public_key, b"other message", signature)


def test_verify_rejects_signature_from_other_key():
    alice, bob = KeyPair.generate("alice"), KeyPair.generate("bob")
    signature = bob.sign(b"message")
    assert not verify(alice.public_key, b"message", signature)


def test_verify_rejects_malformed_signature():
    keys = KeyPair.generate("alice")
    assert not verify(keys.public_key, b"m", "garbage")
    assert not verify(keys.public_key, b"m", f"{keys.public_key}:not-hex!")


def test_verify_is_strict_about_the_mac_and_about_whose_key_it_checks():
    alice, bob = KeyPair.generate("alice"), KeyPair.generate("bob")
    signature = alice.sign(b"m")
    public, mac = signature.split(":")
    assert verify(alice.public_key, b"m", signature)
    # 64 lower-case hex digits, nothing else — wherever the odd character sits.
    for bad in (mac.upper(), mac[:-1], mac + "0", " " + mac[1:], mac[:31] + "g" + mac[32:],
                mac[:-1] + "é", mac[:-1] + "\n", ""):
        assert not verify(alice.public_key, b"m", f"{public}:{bad}"), bad
    # The embedded key must be the claimed one, and a known one.
    assert not verify(bob.public_key, b"m", signature)
    assert not verify("f" * 64, b"m", f"{'f' * 64}:{mac}")
    # A hint is checked against the public key, not taken on trust.
    assert verify(alice.public_key, b"m", signature, private_hint=alice.private_key)
    forged = sign(bob.private_key, b"m").split(":")[1]
    assert not verify(
        alice.public_key, b"m", f"{alice.public_key}:{forged}", private_hint=bob.private_key
    )


@budget
@given(st.binary(max_size=100), st.binary(max_size=300))
def test_mac_from_precomputed_pads_is_the_standard_hmac(key, message):
    """Keys up to SHA-256's 64-byte block are padded, longer ones pre-hashed."""
    expected = hmac.new(key, _SIGNATURE_TAG + message, hashlib.sha256).hexdigest()
    assert _mac(key, message) == expected


def test_only_a_registered_key_gets_its_signatures_verified():
    """``sign`` memoizes its own verdict only for a key the registry holds,
    and the signer's own check (``private_hint``) leaves nothing behind
    for a verifier that has no key to check with."""
    private_key = hashlib.sha256(b"never registered").digest()
    signature = sign(private_key, b"m")
    public_key = signature.partition(":")[0]
    assert verify(public_key, b"m", signature, private_hint=private_key)
    assert not verify(public_key, b"m", signature)
    assert verify(public_key, b"m", signature, private_hint=private_key)


def test_sign_requires_bytes():
    with pytest.raises(CryptoError):
        sign(KeyPair.generate("a").private_key, "not-bytes")  # type: ignore[arg-type]


# --------------------------------------------------------------- certificates
def test_ca_issues_valid_certificates():
    ca = CertificateAuthority("ca1", "org1")
    keys = KeyPair.generate("peer0")
    certificate = ca.issue("peer0", keys.public_key, role="peer")
    assert ca.validate(certificate)
    assert certificate.organization == "org1"
    assert certificate.role == "peer"


def test_ca_rejects_duplicate_subject():
    ca = CertificateAuthority("ca1", "org1")
    ca.issue("peer0", KeyPair.generate("peer0").public_key)
    with pytest.raises(DuplicateError):
        ca.issue("peer0", KeyPair.generate("other").public_key)


def test_revoked_certificate_fails_validation():
    ca = CertificateAuthority("ca1", "org1")
    certificate = ca.issue("peer0", KeyPair.generate("peer0").public_key)
    ca.revoke(certificate)
    assert ca.is_revoked(certificate)
    assert not ca.validate(certificate)


def test_certificate_from_other_ca_fails_validation():
    ca1 = CertificateAuthority("ca1", "org1")
    ca2 = CertificateAuthority("ca2", "org2")
    certificate = ca2.issue("peer0", KeyPair.generate("peer0").public_key)
    assert not ca1.validate(certificate)
    with pytest.raises(CryptoError):
        ca1.revoke(certificate)


def test_certificate_fingerprint_is_stable():
    ca = CertificateAuthority("ca1", "org1")
    certificate = ca.issue("peer0", KeyPair.generate("peer0").public_key)
    assert certificate.fingerprint == certificate.fingerprint
    assert len(certificate.fingerprint) == 16


# --------------------------------------------------------------------- merkle
def _leaves(count):
    return [sha256_hex(f"tx-{i}".encode()) for i in range(count)]


def test_merkle_root_changes_with_content():
    assert merkle_root(_leaves(3)) != merkle_root(_leaves(2) + [sha256_hex(b"x")])


def test_merkle_root_depends_on_order():
    assert merkle_root(_leaves(2)) != merkle_root(list(reversed(_leaves(2))))


def test_empty_tree_has_stable_root():
    assert merkle_root([]) == EMPTY_ROOT == sha256_hex(b"hyperprov-empty-merkle")


def test_single_leaf_root_is_the_leaf_hash():
    assert merkle_root(_leaves(1)) == _leaves(1)[0]


def test_odd_level_pairs_its_last_node_with_itself():
    a, b, c = _leaves(3)
    assert merkle_root([a, b, c]) == sha256_hex(sha256_hex(a + b) + sha256_hex(c + c))


@pytest.mark.parametrize("count, root", [
    (0, "127274a077e74cf64d34d14e9966bd5f7e94c221175fcb119cdd848ef0f28340"),
    (1, "91f0e7159da2067f58409cc8129457d810bf124dfaa3646a4551c1ca6048362a"),
    (2, "ff9e15804dd482624060d837c26ea526cf663294eacccce6a2d050fcba68934b"),
    (3, "12babf8bc4862ec2d54b8a38508bb46c2d3a12e966072dcfcbffa229fb31cb9c"),
    (5, "02689f5261019924b3bdb43c71ad2dfb94dc700085a501e49d6fa2ba581de3ce"),
])
def test_merkle_roots_are_pinned(count, root):
    # Block data hashes, hence block hashes and every anchor, hang off these.
    assert merkle_root(_leaves(count)) == root


@pytest.mark.parametrize("count", [2, 3, 4, 5, 8, 13])
def test_every_leaf_position_is_committed(count):
    # Odd levels pair their last node with itself: that node is committed too.
    leaves = _leaves(count)
    root = merkle_root(leaves)
    for position in range(count):
        substituted = list(leaves)
        substituted[position] = sha256_hex(b"forged")
        assert merkle_root(substituted) != root, position
