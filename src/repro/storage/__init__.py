"""Off-chain storage.

HyperProv keeps only provenance *metadata* on chain; the data items
themselves go to an off-chain store — in the paper, an SSH file system
(SSHFS) mount served by a separate node.  This package provides:

* :class:`~repro.storage.base.StorageBackend` — the interface,
* :class:`~repro.storage.local.LocalStorageBackend` — in-memory /
  dictionary-backed store used when the client keeps data on its own disk,
* :class:`~repro.storage.sshfs.SSHFSStorageBackend` — the paper's setup: a
  remote store reached over the simulated network, charging transfer and
  checksum time to the requesting device,
* :class:`~repro.storage.content.ContentAddressedStore` — a thin layer that
  names objects by their checksum (how the client library builds data
  pointers).
"""

from repro.storage.base import StorageBackend, StoredObject, StorageReceipt
from repro.storage.local import LocalStorageBackend
from repro.storage.sshfs import SSHFSStorageBackend
from repro.storage.content import ContentAddressedStore

__all__ = [
    "StorageBackend",
    "StoredObject",
    "StorageReceipt",
    "LocalStorageBackend",
    "SSHFSStorageBackend",
    "ContentAddressedStore",
]
