"""Exception hierarchy for the HyperProv reproduction.

Every error raised by the library derives from :class:`HyperProvError` so
applications can catch library failures with a single ``except`` clause
while still being able to discriminate by subsystem.
"""

from __future__ import annotations


class HyperProvError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigurationError(HyperProvError):
    """An invalid or inconsistent configuration value was supplied."""


class ValidationError(HyperProvError):
    """A transaction, block, or record failed validation."""


class TenancyError(ValidationError):
    """A key that should lie inside a tenant's namespace lies outside it."""


class NotFoundError(HyperProvError):
    """A requested key, block, node, or data item does not exist."""


class DuplicateError(HyperProvError):
    """An entity with the same identifier already exists."""


class EndorsementError(HyperProvError):
    """A transaction proposal failed to gather the required endorsements."""


class SealedEnvelopeError(HyperProvError):
    """A sealed transaction envelope was mutated through the rw-set API.

    Sealed envelopes are structurally shared between the orderer and every
    peer; mutate a private copy obtained via ``Transaction.tamper()`` (or
    ``Block.tamper``) instead."""


class OrderingError(HyperProvError):
    """The ordering service rejected or failed to order a transaction."""


class AdmissionRejectedError(HyperProvError):
    """A tenant exceeded its in-flight submission cap (admission control)."""

    def __init__(self, tenant: str, limit: int) -> None:
        label = tenant or "<default>"
        super().__init__(
            f"tenant {label!r} has {limit} submissions in flight "
            f"(per-tenant cap); drain or wait for commits before submitting more"
        )
        self.tenant = tenant
        self.limit = limit


class IncompleteTransactionError(HyperProvError):
    """A result was requested from a transaction that has not committed yet."""


class StorageError(HyperProvError):
    """Off-chain storage failed (missing item, checksum mismatch, I/O)."""


class ChecksumMismatchError(StorageError):
    """Retrieved data does not match the checksum recorded on-chain."""

    def __init__(self, expected: str, actual: str) -> None:
        super().__init__(f"checksum mismatch: expected {expected}, got {actual}")
        self.expected = expected
        self.actual = actual


class NetworkError(HyperProvError):
    """A message could not be delivered (partition, unknown node, timeout)."""


class PartitionError(NetworkError):
    """Source and destination are in different network partitions."""


class CryptoError(HyperProvError):
    """Signature verification or certificate validation failed."""


class ChaincodeError(HyperProvError):
    """Chaincode invocation raised an application-level error."""


class SimulationError(HyperProvError):
    """The discrete-event simulation engine was used incorrectly."""
