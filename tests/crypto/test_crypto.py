"""Tests for keys, certificates and Merkle trees."""

import pytest

from repro.common.errors import CryptoError, DuplicateError
from repro.crypto.certificates import CertificateAuthority
from repro.crypto.keys import KeyPair, sign, verify
from repro.crypto.merkle import MerkleTree


# ----------------------------------------------------------------------- keys
def test_keypair_generation_is_deterministic():
    assert KeyPair.generate("alice").public_key == KeyPair.generate("alice").public_key
    assert KeyPair.generate("alice").public_key != KeyPair.generate("bob").public_key


def test_sign_verify_roundtrip():
    keys = KeyPair.generate("alice")
    signature = keys.sign(b"message")
    assert keys.verify(b"message", signature)


def test_verify_rejects_wrong_message():
    keys = KeyPair.generate("alice")
    signature = keys.sign(b"message")
    assert not keys.verify(b"other message", signature)


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


def test_ca_lookup_and_count():
    ca = CertificateAuthority("ca1", "org1")
    issued = ca.issue("peer0", KeyPair.generate("peer0").public_key)
    assert ca.lookup("peer0") == issued
    assert ca.lookup("nobody") is None
    assert ca.issued_count == 1


# --------------------------------------------------------------------- merkle
def test_merkle_root_changes_with_content():
    left = MerkleTree([b"a", b"b", b"c"])
    right = MerkleTree([b"a", b"b", b"x"])
    assert left.root != right.root


def test_merkle_root_depends_on_order():
    assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root


def test_empty_tree_has_stable_root():
    assert MerkleTree([]).root == MerkleTree([]).root == MerkleTree.EMPTY_ROOT


def test_single_leaf_tree():
    tree = MerkleTree([b"only"])
    assert tree.leaf_count == 1
    proof = tree.proof(0)
    assert MerkleTree.verify_proof(b"only", proof, tree.root)


@pytest.mark.parametrize("count", [2, 3, 4, 5, 8, 13])
def test_inclusion_proofs_verify_for_every_leaf(count):
    leaves = [f"tx-{i}".encode() for i in range(count)]
    tree = MerkleTree(leaves)
    for index, leaf in enumerate(leaves):
        assert MerkleTree.verify_proof(leaf, tree.proof(index), tree.root)


def test_inclusion_proof_fails_for_wrong_leaf():
    leaves = [b"a", b"b", b"c", b"d"]
    tree = MerkleTree(leaves)
    proof = tree.proof(1)
    assert not MerkleTree.verify_proof(b"tampered", proof, tree.root)


def test_proof_index_out_of_range():
    with pytest.raises(IndexError):
        MerkleTree([b"a"]).proof(5)
