"""The endorsement policy: Fabric's default majority of the consortium.

A policy is evaluated against the set of organizations whose valid
signatures were collected for a proposal.  ``MajorityPolicy(orgs)`` is
the one policy every channel uses.
"""

from __future__ import annotations

from typing import Sequence, Set

from repro.common.errors import ConfigurationError


class MajorityPolicy:
    """A strict majority of the listed organizations must have signed.

    Each listed organization counts once per listing, as Fabric's
    ``NOutOf`` over one signature rule per organization does.
    """

    def __init__(self, organizations: Sequence[str]) -> None:
        if not organizations:
            raise ConfigurationError("cannot build a majority policy over zero organizations")
        self.organizations = tuple(organizations)
        self.threshold = len(self.organizations) // 2 + 1

    def evaluate(self, signed_organizations: Set[str]) -> bool:
        """Return ``True`` iff enough listed organizations signed."""
        satisfied = sum(1 for org in self.organizations if org in signed_organizations)
        return satisfied >= self.threshold
