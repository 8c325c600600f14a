"""Local (client-side) storage backend.

Models the case where a node keeps data items on its own disk and only
anchors the provenance metadata on chain.  Costs are charged to the owning
device's disk; no network transfer is involved.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import NotFoundError
from repro.devices.model import DeviceModel
from repro.storage.base import StorageBackend, StorageReceipt, StoredObject


class LocalStorageBackend(StorageBackend):
    """Dictionary-backed store with disk-time accounting on the local device."""

    scheme = "file"

    def __init__(self, device: Optional[DeviceModel] = None, host: str = "localhost") -> None:
        self.device = device
        self.host = host
        self._objects: Dict[str, StoredObject] = {}

    def location_of(self, path: str) -> str:
        return f"{self.scheme}://{self.host}/{path}"

    def _disk_cost(self, size_bytes: int, at_time: float, write: bool) -> float:
        if self.device is None:
            return 0.0
        duration = (
            self.device.disk_write_time(size_bytes)
            if write
            else self.device.disk_read_time(size_bytes)
        )
        _, end = self.device.occupy("disk", at_time, duration)
        return end - at_time

    def store(self, path: str, data: bytes, at_time: float = 0.0) -> StorageReceipt:
        checksum = self.checksum(data)
        duration = self._disk_cost(len(data), at_time, write=True)
        self._objects[path] = StoredObject(
            path=path, data=bytes(data), checksum=checksum, stored_at=at_time + duration
        )
        return StorageReceipt(
            path=path,
            location=self.location_of(path),
            checksum=checksum,
            size_bytes=len(data),
            duration_s=duration,
            completed_at=at_time + duration,
        )

    def retrieve(self, path: str, at_time: float = 0.0) -> StorageReceipt:
        obj = self._objects.get(path)
        if obj is None:
            raise NotFoundError(f"no object stored at {path!r}")
        duration = self._disk_cost(obj.size_bytes, at_time, write=False)
        return StorageReceipt(
            path=path,
            location=self.location_of(path),
            checksum=obj.checksum,
            size_bytes=obj.size_bytes,
            duration_s=duration,
            completed_at=at_time + duration,
        )

    def get_object(self, path: str) -> Optional[StoredObject]:
        return self._objects.get(path)

    def exists(self, path: str) -> bool:
        return path in self._objects

    def delete(self, path: str) -> bool:
        return self._objects.pop(path, None) is not None

    def list_paths(self, prefix: str = "") -> List[str]:
        return sorted(path for path in self._objects if path.startswith(prefix))
