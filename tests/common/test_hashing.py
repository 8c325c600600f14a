"""Tests for repro.common.hashing."""

import hashlib

import pytest

from repro.common.hashing import (
    HashChain,
    checksum_of,
    sha256_hex,
)


def test_sha256_hex_matches_stdlib():
    assert sha256_hex(b"hyperprov") == hashlib.sha256(b"hyperprov").hexdigest()


def test_sha256_accepts_strings_as_utf8():
    assert sha256_hex("data") == sha256_hex(b"data")


def test_checksum_is_sha256_alias():
    assert checksum_of(b"payload") == sha256_hex(b"payload")


def test_hash_chain_starts_at_genesis():
    chain = HashChain()
    assert chain.current == HashChain.GENESIS


def test_hash_chain_extend_changes_digest():
    chain = HashChain()
    first = chain.extend(b"block-1")
    second = chain.extend(b"block-2")
    assert first != second


def test_hash_chain_verify_replays_items():
    chain = HashChain()
    items = [b"a", b"b", b"c"]
    for item in items:
        chain.extend(item)
    assert chain.verify(items)
    assert not chain.verify([b"a", b"tampered", b"c"])


def test_hash_chain_verify_detects_missing_item():
    chain = HashChain()
    chain.extend(b"a")
    chain.extend(b"b")
    assert not chain.verify([b"a"])


def test_hash_chain_custom_seed():
    chain = HashChain(seed=sha256_hex(b"seed"))
    chain.extend(b"x")
    assert chain.verify([b"x"], seed=sha256_hex(b"seed"))
    assert not chain.verify([b"x"])


@pytest.mark.parametrize("payload", [b"", b"a", b"x" * 10_000])
def test_checksum_length_is_64_hex_chars(payload):
    digest = checksum_of(payload)
    assert len(digest) == 64
    assert all(c in "0123456789abcdef" for c in digest)
