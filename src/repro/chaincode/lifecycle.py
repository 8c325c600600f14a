"""Chaincode lifecycle: definitions, installation and instantiation.

A :class:`ChaincodeDefinition` names a chaincode, its version and the
endorsement policy that governs it.  The :class:`ChaincodeRegistry` held
by each channel tracks which definition is instantiated and which peers
have the package installed — a peer can only endorse proposals for
chaincode it has installed, matching Fabric's lifecycle rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.chaincode.hyperprov import HyperProvChaincode
from repro.common.errors import ChaincodeError, NotFoundError
from repro.membership.policies import MajorityPolicy


@dataclass
class ChaincodeDefinition:
    """An instantiated chaincode on a channel."""

    name: str
    version: str
    chaincode: HyperProvChaincode
    endorsement_policy: MajorityPolicy
    installed_on: Set[str] = field(default_factory=set)

    def is_installed_on(self, peer_name: str) -> bool:
        return peer_name in self.installed_on


class ChaincodeRegistry:
    """Per-channel registry of instantiated chaincode definitions."""

    def __init__(self) -> None:
        self._definitions: Dict[str, ChaincodeDefinition] = {}

    def instantiate(
        self,
        name: str,
        version: str,
        chaincode: HyperProvChaincode,
        endorsement_policy: MajorityPolicy,
    ) -> ChaincodeDefinition:
        """Register (or upgrade) a chaincode definition on the channel."""
        existing = self._definitions.get(name)
        if existing is not None and existing.version == version:
            raise ChaincodeError(
                f"chaincode {name!r} version {version!r} is already instantiated"
            )
        installed = existing.installed_on if existing else set()
        definition = ChaincodeDefinition(
            name=name,
            version=version,
            chaincode=chaincode,
            endorsement_policy=endorsement_policy,
            installed_on=set(installed),
        )
        self._definitions[name] = definition
        return definition

    def get(self, name: str) -> ChaincodeDefinition:
        definition = self._definitions.get(name)
        if definition is None:
            raise NotFoundError(f"chaincode {name!r} is not instantiated on this channel")
        return definition

    def find(self, name: str) -> Optional[ChaincodeDefinition]:
        return self._definitions.get(name)
