"""File watcher: automatic provenance capture for a directory of files.

The original HyperProv client ships a watcher that monitors a directory
and posts provenance for every new or modified file — this is how the IoT
use case ("camera writes an image, its provenance is anchored
automatically") is wired up.  The simulated equivalent watches an
in-memory namespace: applications register file versions with
:meth:`FileWatcher.observe` and the watcher stores them through the
HyperProv client, tracking derivations between consecutive versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.api.protocol import StoreRequest
from repro.common.hashing import checksum_of
from repro.core.client import HyperProvClient


@dataclass
class WatchedChange:
    """One observed file change and the provenance action it triggered."""

    path: str
    checksum: str
    size_bytes: int
    is_new: bool
    #: Future for the recording submission (:class:`repro.api.SubmitHandle`).
    post: object


class FileWatcher:
    """Posts provenance for every observed change under a namespace prefix."""

    def __init__(
        self,
        client: HyperProvClient,
        namespace: str = "files",
        track_derivations: bool = True,
    ) -> None:
        self.client = client
        self.namespace = namespace
        #: Link each new version to the previous version of the same path.
        self.track_derivations = track_derivations
        self._last_checksum: Dict[str, str] = {}
        self.changes: List[WatchedChange] = []

    def key_for(self, path: str) -> str:
        """Ledger key used for a watched path."""
        return f"{self.namespace}/{path}"

    def observe(
        self,
        path: str,
        data: bytes,
        metadata: Optional[Dict[str, object]] = None,
        at_time: Optional[float] = None,
    ) -> Optional[WatchedChange]:
        """Report the current contents of ``path``.

        Returns the change that was recorded, or ``None`` when the contents
        are identical to the last observed version (no provenance posted).
        """
        checksum = checksum_of(data)
        key = self.key_for(path)
        previous = self._last_checksum.get(path)
        if previous == checksum:
            return None

        dependencies: List[str] = []
        if self.track_derivations and previous is not None:
            dependencies = [key]

        combined_metadata = {"path": path, "watched": True}
        if metadata:
            combined_metadata.update(metadata)

        post = self.client.as_store().submit(
            StoreRequest(
                key=key,
                data=data,
                dependencies=tuple(dependencies),
                metadata=combined_metadata,
            ),
            at_time=at_time,
        )
        change = WatchedChange(
            path=path,
            checksum=checksum,
            size_bytes=len(data),
            is_new=previous is None,
            post=post,
        )
        self._last_checksum[path] = checksum
        self.changes.append(change)
        return change

    @property
    def change_count(self) -> int:
        return len(self.changes)
