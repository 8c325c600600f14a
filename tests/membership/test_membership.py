"""Tests for organizations, identities, MSP validation and policies."""

import pytest

from repro.common.errors import ConfigurationError, CryptoError
from repro.membership.identity import Organization
from repro.membership.msp import MSP
from repro.membership.policies import MajorityPolicy


# --------------------------------------------------------------- organizations
def test_enroll_creates_identity_with_valid_certificate():
    org = Organization("org1")
    identity = org.enroll("peer0", role="peer")
    assert identity.organization == "org1"
    assert org.ca.validate(identity.certificate)


def test_enroll_is_idempotent():
    org = Organization("org1")
    assert org.enroll("peer0") is org.enroll("peer0")


def test_identity_signature_verifies_via_msp():
    org = Organization("org1")
    identity = org.enroll("client1", role="client")
    msp = MSP([org])
    signature = identity.sign(b"proposal")
    assert msp.verify_signature(identity.certificate, b"proposal", signature)


def test_revoked_identity_fails_msp_validation():
    org = Organization("org1")
    identity = org.enroll("client1")
    msp = MSP([org])
    org.ca.revoke(identity.certificate)
    assert not msp.validate_certificate(identity.certificate)
    with pytest.raises(CryptoError):
        msp.require_valid_certificate(identity.certificate)


# ------------------------------------------------------------------------ msp
def test_msp_rejects_foreign_organization():
    org1, org2 = Organization("org1"), Organization("org2")
    msp = MSP([org1])
    outsider = org2.enroll("peer0")
    assert not msp.validate_certificate(outsider.certificate)


def test_msp_add_organization_trusts_its_members():
    org1, org2 = Organization("org1"), Organization("org2")
    msp = MSP([org1])
    member = org2.enroll("b").certificate
    assert not msp.validate_certificate(member)
    msp.add_organization(org2)
    assert msp.validate_certificate(member)


# ------------------------------------------------------------------- policies
def test_majority_of_four_organizations_needs_three():
    policy = MajorityPolicy(["org1", "org2", "org3", "org4"])
    assert policy.evaluate({"org1", "org2", "org3"})
    assert not policy.evaluate({"org1", "org2"})


def test_majority_of_single_org():
    assert MajorityPolicy(["org1"]).evaluate({"org1", "org2"})
    assert not MajorityPolicy(["org1"]).evaluate({"org2"})
    with pytest.raises(ConfigurationError):
        MajorityPolicy([])


def test_majority_counts_signers_per_listed_organization():
    policy = MajorityPolicy(["org1", "org1", "org2"])
    assert policy.threshold == 2
    assert policy.evaluate({"org1"})
    assert not policy.evaluate({"org2", "org3"})
