"""Membership Service Provider (MSP) layer.

Permissioned blockchains differ from public ones precisely here: every
participant holds an identity issued by an organization's certificate
authority, and policies over those organizations gate endorsement and
channel access.  This package models organizations, enrolled identities,
the MSP validation rules and the majority endorsement policy.
"""

from repro.membership.identity import Identity, Organization
from repro.membership.msp import MSP
from repro.membership.policies import MajorityPolicy

__all__ = [
    "Identity",
    "Organization",
    "MSP",
    "MajorityPolicy",
]
