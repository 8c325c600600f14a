"""Content-addressed naming layer over the SSHFS store.

HyperProv's data pointers are derived from the content checksum, so the
same payload stored twice resolves to the same location and the on-chain
record's checksum doubles as the retrieval key.
"""

from __future__ import annotations

from typing import Optional

from repro.common.hashing import checksum_of
from repro.storage.sshfs import SSHFSStorageBackend, StorageReceipt, StoredObject


class ContentAddressedStore:
    """Names objects ``<prefix>/<checksum>`` on an underlying backend."""

    def __init__(self, backend: SSHFSStorageBackend, prefix: str = "objects") -> None:
        self.backend = backend
        self.prefix = prefix

    def path_for(self, checksum: str) -> str:
        """Storage path used for a payload with the given checksum."""
        return f"{self.prefix}/{checksum[:2]}/{checksum}"

    def put(self, data: bytes, at_time: float = 0.0, **kwargs) -> StorageReceipt:
        """Store ``data`` under its content address (idempotent)."""
        checksum = checksum_of(data)
        path = self.path_for(checksum)
        if self.backend.exists(path):
            # Already stored: return a zero-cost receipt pointing at it.
            return StorageReceipt(
                path=path,
                location=self.backend.location_of(path),
                checksum=checksum,
                size_bytes=len(data),
                duration_s=0.0,
                completed_at=at_time,
            )
        return self.backend.store(path, data, at_time=at_time, **kwargs)

    def get(self, checksum: str, at_time: float = 0.0, **kwargs) -> StorageReceipt:
        """Retrieve the payload whose checksum is ``checksum``."""
        return self.backend.retrieve(self.path_for(checksum), at_time=at_time, **kwargs)

    def get_object(self, checksum: str) -> Optional[StoredObject]:
        return self.backend.get_object(self.path_for(checksum))
