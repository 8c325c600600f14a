"""Channels: the unit of ledger sharing and policy configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.chaincode.lifecycle import ChaincodeRegistry
from repro.chaincode.hyperprov import HyperProvChaincode
from repro.common.errors import ConfigurationError
from repro.consensus.batching import BatchConfig
from repro.membership.msp import MSP
from repro.membership.policies import MajorityPolicy


@dataclass
class Channel:
    """A Fabric channel: name, membership, chaincode registry and batching.

    The paper's deployment uses a single channel joined by all four peers;
    multi-channel deployments are supported by creating several
    :class:`Channel` objects on the same :class:`~repro.fabric.network.FabricNetwork`.
    """

    name: str
    msp: MSP
    batch_config: BatchConfig = field(default_factory=BatchConfig)
    chaincodes: ChaincodeRegistry = field(default_factory=ChaincodeRegistry)
    #: Names of the peers that have joined the channel.
    members: List[str] = field(default_factory=list)

    def join(self, peer_name: str) -> None:
        """Add a peer to the channel (idempotent)."""
        if peer_name not in self.members:
            self.members.append(peer_name)

    def require_member(self, peer_name: str) -> None:
        if peer_name not in self.members:
            raise ConfigurationError(
                f"peer {peer_name!r} has not joined channel {self.name!r}"
            )

    def instantiate_chaincode(
        self,
        chaincode: HyperProvChaincode,
        endorsement_policy: MajorityPolicy,
        version: str = "1.0",
        install_on: Optional[List[str]] = None,
    ) -> None:
        """Instantiate a chaincode on the channel and install it on peers."""
        definition = self.chaincodes.instantiate(
            name=chaincode.name,
            version=version,
            chaincode=chaincode,
            endorsement_policy=endorsement_policy,
        )
        for peer_name in install_on if install_on is not None else self.members:
            self.require_member(peer_name)
            definition.installed_on.add(peer_name)
