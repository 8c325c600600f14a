"""SSHFS-style remote storage backend.

The paper's off-chain storage "based on SSH file system always runs on a
separate node".  Writing a data item therefore costs:

* checksum computation on the *client* device (HyperProv always hashes the
  data before posting its metadata),
* SSH encryption overhead on the client CPU,
* a network transfer from the client's host to the storage node,
* a disk write on the storage node.

Reads mirror the same path in the other direction plus a checksum
verification on the client.  These per-size costs are exactly what drives
the shape of Fig. 1 and Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import ChecksumMismatchError, NotFoundError
from repro.common.hashing import checksum_of
from repro.devices.model import DeviceModel
from repro.network.fabric import NetworkFabric


#: Extra CPU factor for SSH encryption/decryption relative to hashing the
#: same payload (AES on the client; cheap but not free on a RPi).
ENCRYPTION_FACTOR = 0.5
#: Fixed per-operation protocol overhead (SSH round-trips, FUSE), seconds.
PROTOCOL_OVERHEAD_S = 0.004


@dataclass(frozen=True)
class StoredObject:
    """An object held by the storage node."""

    path: str
    data: bytes
    checksum: str
    stored_at: float = 0.0

    @property
    def size_bytes(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class StorageReceipt:
    """Result of a store/retrieve operation, including its simulated cost."""

    path: str
    location: str
    checksum: str
    size_bytes: int
    duration_s: float
    completed_at: float


class SSHFSStorageBackend:
    """Remote store reached over the simulated network.

    ``storage_node`` names the network node hosting the SSHFS export.
    """

    def __init__(
        self,
        network: NetworkFabric,
        storage_device: DeviceModel,
        storage_node: str = "storage",
    ) -> None:
        self.network = network
        self.storage_device = storage_device
        self.storage_node = storage_node
        self._objects: Dict[str, StoredObject] = {}
        if self.storage_node not in network.nodes:
            network.register_node(self.storage_node, profile=storage_device.profile.nic)

    def location_of(self, path: str) -> str:
        """The URI recorded on chain as the data pointer."""
        return f"ssh://{self.storage_node}/{path}"

    # ------------------------------------------------------------------ cost
    def _client_side_cost(
        self, client_device: Optional[DeviceModel], size_bytes: int, at_time: float
    ) -> float:
        """Checksum + SSH encryption on the requesting device."""
        if client_device is None:
            return PROTOCOL_OVERHEAD_S
        duration = (
            client_device.hash_time(size_bytes) * (1.0 + ENCRYPTION_FACTOR)
            + PROTOCOL_OVERHEAD_S
        )
        _, end = client_device.charge_cpu(at_time, duration)
        return end - at_time

    # ----------------------------------------------------------------- store
    def store(
        self,
        path: str,
        data: bytes,
        at_time: float = 0.0,
        client_device: Optional[DeviceModel] = None,
        client_node: Optional[str] = None,
    ) -> StorageReceipt:
        """Upload ``data`` to the storage node.

        ``client_device``/``client_node`` identify where the upload
        originates; without them only the storage-side costs are charged.
        """
        checksum = checksum_of(data)
        cursor = at_time
        cursor += self._client_side_cost(client_device, len(data), cursor)

        if client_node is not None:
            transfer = self.network.estimate_transfer_time(
                client_node, self.storage_node, len(data)
            )
        else:
            transfer = 0.0
        cursor += transfer

        write_duration = self.storage_device.disk_write_time(len(data))
        _, cursor = self.storage_device.occupy("disk", cursor, write_duration)

        self._objects[path] = StoredObject(
            path=path, data=bytes(data), checksum=checksum, stored_at=cursor
        )
        return StorageReceipt(
            path=path,
            location=self.location_of(path),
            checksum=checksum,
            size_bytes=len(data),
            duration_s=cursor - at_time,
            completed_at=cursor,
        )

    # -------------------------------------------------------------- retrieve
    def retrieve(
        self,
        path: str,
        at_time: float = 0.0,
        client_device: Optional[DeviceModel] = None,
        client_node: Optional[str] = None,
        expected_checksum: Optional[str] = None,
    ) -> StorageReceipt:
        """Download the object at ``path`` and verify it against ``expected_checksum``."""
        obj = self._objects.get(path)
        if obj is None:
            raise NotFoundError(f"no object stored at {path!r} on {self.storage_node}")

        cursor = at_time
        read_duration = self.storage_device.disk_read_time(obj.size_bytes)
        _, cursor = self.storage_device.occupy("disk", cursor, read_duration)
        if client_node is not None:
            cursor += self.network.estimate_transfer_time(
                self.storage_node, client_node, obj.size_bytes
            )
        cursor += self._client_side_cost(client_device, obj.size_bytes, cursor)
        if expected_checksum is not None and expected_checksum != obj.checksum:
            raise ChecksumMismatchError(expected_checksum, obj.checksum)

        return StorageReceipt(
            path=path,
            location=self.location_of(path),
            checksum=obj.checksum,
            size_bytes=obj.size_bytes,
            duration_s=cursor - at_time,
            completed_at=cursor,
        )

    # ------------------------------------------------------------- inventory
    def get_object(self, path: str) -> Optional[StoredObject]:
        return self._objects.get(path)

    def exists(self, path: str) -> bool:
        return path in self._objects
