"""Reference model of the ``ProvenanceStore`` contract, and the output checks.

The model is deliberately naive: a dict of latest versions, a per-key
version list, each version carrying its dependency tuple (the dependency
map), plus two sorted key lists so range and "hot" queries have an
expected answer without scanning.  It is updated only from
``SubmitHandle`` done-callbacks — i.e. when the store itself says a write
committed — so a read issued while writes are still in flight is checked
against what was committed at that moment.

:class:`Checker` compares every answer of the system under test with the
model.  Each mismatch counts one failed operation; the first few are kept
as notes so a red run says what went wrong.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Sorts after every key character the generators use.
_PREFIX_END = "\x7f"


class Version(NamedTuple):
    """One committed version of a key, as the application wrote it."""

    checksum: str
    location: str
    dependencies: Tuple[str, ...]
    metadata: Dict[str, Any]
    size_bytes: int

    @property
    def hot(self) -> bool:
        return self.metadata.get("hot") is True


class ReferenceModel:
    """dict + per-key version list + dependency map."""

    def __init__(self) -> None:
        self.versions: Dict[str, List[Version]] = {}
        self.sorted_keys: List[str] = []
        #: Keys whose *latest* version has ``metadata.hot == True``, sorted.
        self.hot_keys: List[str] = []
        #: ``(key, checksum)`` of every committed hot write, in commit order
        #: (what a standing ``{"metadata.hot": true}`` subscription must see).
        self.hot_commits: List[Tuple[str, str]] = []

    def latest(self, key: str) -> Optional[Version]:
        versions = self.versions.get(key)
        return versions[-1] if versions else None

    def commit(
        self,
        key: str,
        checksum: str,
        location: Optional[str],
        dependencies: Sequence[str],
        metadata: Dict[str, Any],
        size_bytes: int,
    ) -> Version:
        """Apply one committed write (called from the done-callback).

        ``location=None`` means "whatever the store chose" (payload writes
        are addressed by the off-chain store); the chaincode links an
        update to its predecessor through ``previous_checksum``.
        """
        previous = self.latest(key)
        recorded = dict(metadata)
        if previous is not None:
            recorded.setdefault("previous_checksum", previous.checksum)
        version = Version(
            checksum, location or "", tuple(dependencies), recorded, size_bytes
        )
        if previous is None:
            self.versions[key] = [version]
            insort(self.sorted_keys, key)
        else:
            self.versions[key].append(version)
        was_hot = previous is not None and previous.hot
        if version.hot and not was_hot:
            insort(self.hot_keys, key)
        elif was_hot and not version.hot:
            del self.hot_keys[bisect_left(self.hot_keys, key)]
        if version.hot:
            self.hot_commits.append((key, checksum))
        return version

    def keys_in_range(self, start_key: str, end_key: str) -> List[str]:
        """Keys with ``start_key <= key < end_key`` (empty end = unbounded)."""
        low = bisect_left(self.sorted_keys, start_key)
        high = bisect_left(self.sorted_keys, end_key) if end_key else len(self.sorted_keys)
        return self.sorted_keys[low:high]

    def hot_keys_under(self, prefix: str, limit: int) -> List[str]:
        """First ``limit`` hot keys starting with ``prefix``, in key order."""
        low = bisect_left(self.hot_keys, prefix)
        high = bisect_left(self.hot_keys, prefix + _PREFIX_END)
        return self.hot_keys[low:min(high, low + limit)]


class Checker:
    """Compares answers with a :class:`ReferenceModel`; counts mismatches."""

    MAX_NOTES = 5

    def __init__(self, model: ReferenceModel) -> None:
        self.model = model
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < self.MAX_NOTES:
            self.notes.append(note)

    # ------------------------------------------------------------ answers
    def _matches(self, view: Any, expected: Version, check_location: bool) -> bool:
        return (
            view.checksum == expected.checksum
            and tuple(view.dependencies) == expected.dependencies
            and view.metadata == expected.metadata
            and view.size_bytes == expected.size_bytes
            and (not check_location or not expected.location
                 or view.location == expected.location)
        )

    def check_get(self, key: str, view: Any) -> None:
        expected = self.model.latest(key)
        if expected is None or view.key != key or not self._matches(view, expected, True):
            self.fail(f"get({key!r}) returned {view!r}, expected {expected!r}")

    def check_verify(self, key: str, checksum: str, result: Any) -> None:
        expected = self.model.latest(key)
        should_match = expected is not None and expected.checksum == checksum
        if bool(result) != should_match:
            self.fail(f"verify({key!r}) said {bool(result)}, expected {should_match}")

    def check_history(self, key: str, history: Any) -> None:
        expected = self.model.versions.get(key, [])
        got = [entry.view for entry in history.entries]
        if len(got) != len(expected) or any(
            view is None or view.key != key or not self._matches(view, version, True)
            for view, version in zip(got, expected)
        ):
            self.fail(
                f"history({key!r}) returned {len(got)} version(s), "
                f"expected {len(expected)} matching the committed writes"
            )

    def _check_rows(self, what: str, rows: List[Tuple[str, Any]], keys: List[str]) -> None:
        """Rows must be exactly ``keys`` (in order) at their latest versions."""
        if [key for key, _ in rows] != keys:
            self.fail(
                f"{what} returned keys {[k for k, _ in rows][:4]}… "
                f"({len(rows)}), expected {keys[:4]}… ({len(keys)})"
            )
        elif any(
            not self._matches(record, self.model.latest(key), False)
            for key, record in rows
        ):
            self.fail(f"{what} returned a stale or foreign record")

    def check_range(self, start_key: str, end_key: str, result: Any) -> None:
        """``client.get_by_range`` answer."""
        rows = [(row["key"], row["record"]) for row in result.payload]
        self._check_rows(
            f"range[{start_key!r}, {end_key!r})", rows,
            self.model.keys_in_range(start_key, end_key),
        )

    def check_hot_query(self, prefix: str, limit: int, page: Any) -> None:
        """``{"_prefix": prefix, "metadata.hot": true}`` page."""
        rows = [(view.key, view) for view in page.records]
        self._check_rows(
            f"query(hot under {prefix!r})", rows,
            self.model.hot_keys_under(prefix, limit),
        )

    def check_deliveries(self, events: Sequence[Dict[str, Any]]) -> None:
        """Continuous query: every committed hot write exactly once, in order."""
        got = [(event["key"], event["record"].get("checksum")) for event in events]
        if got != self.model.hot_commits:
            self.fail(
                f"continuous query delivered {len(got)} event(s), expected the "
                f"{len(self.model.hot_commits)} committed hot writes exactly once"
            )

    def check_true(self, condition: bool, note: str) -> None:
        if not condition:
            self.fail(note)


class SimAnchor:
    """SHA-256 over the virtual-time outcome of every operation of a pass."""

    def __init__(self) -> None:
        self._digest = hashlib.sha256()

    def add(self, key: str, virtual_time: float, block: Optional[int] = None) -> None:
        self._digest.update(f"{key};{virtual_time!r};{block}\n".encode("utf-8"))

    def hexdigest(self) -> str:
        return self._digest.hexdigest()
