"""World state: the latest value and version of every key.

Fabric stores the world state in LevelDB/CouchDB; the version of a key is
the height (block number, tx number) of the transaction that last wrote
it.  MVCC validation compares the versions recorded in a transaction's
read set against the current world-state versions.

The key space is kept in a maintained sorted index (``bisect``-based
insort on insert, a lazily compacted tombstone set on delete) so range
and prefix scans cost O(log n + k) instead of re-sorting the whole key
space per call.  An optional secondary prefix index additionally buckets
keys by their first ``/``-separated segment, which lets prefix-scoped
rich queries fetch their candidate keys without touching the rest of the
key space.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right, insort
from itertools import chain, compress, repeat
from operator import eq
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.common.records import METADATA, READ_AS_STORED, record_reading
from repro.ledger.scan import row_size
from repro.ledger.transaction import ReadSetEntry, Version, canonical_read

#: Compact the sorted index once tombstones outnumber this floor *and*
#: half of the live keys (amortizes rebuilds over many deletes).
_COMPACT_MIN_TOMBSTONES = 16

#: Scan columns one world state holds at once; the oldest goes first.
#: ``read_mix`` holds 16 (``metadata.hot`` over each group's 501-key
#: bucket, 4.5 KiB each by ``sys.getsizeof``), so 32 leaves room for a
#: second field per group.  A column over the whole key index of that
#: state (8 015 keys) is 65.6 KiB: 32 of them are 2.1 MiB, 2 % of the
#: workload's 102.7 MiB peak RSS.
_MAX_COLUMNS = 32

#: ``(field, expected)`` equalities a scan's columns may reject rows on.
Where = Tuple[Tuple[str, Any], ...]


def _parse_document(entry: "VersionedValue") -> Optional[Dict[str, Any]]:
    try:
        document = json.loads(entry.value)
    except (TypeError, ValueError):
        return None
    return document if isinstance(document, dict) else None


def _reading(entry: "VersionedValue") -> Optional[Tuple[Any, ...]]:
    return record_reading(entry.document)


def _read_entry(entry: "VersionedValue") -> ReadSetEntry:
    if entry.key is None:
        raise AttributeError("a VersionedValue built without its key has no read entry")
    return ReadSetEntry(entry.key, entry.version)


def _read_line(entry: "VersionedValue") -> str:
    return canonical_read(*entry.read)


class VersionedValue:
    """A committed value together with the key and the version that wrote it.

    Immutable, and therefore shared between the replicas of a channel
    that committed the version together (``WorldState.put_entry``).  What
    a scan derives from a version is a *fragment* kept on the entry: filled
    on first access, so every version computes it at most once for all
    replicas and a workload that never scans computes none.

    ``document``   the value parsed as a JSON object (``None`` when it is
                   anything else).  Read-only by contract: whoever hands
                   parts of it out copies them.
    ``reading``    the record read from ``document`` once for every
                   replica and reader
                   (:func:`~repro.common.records.record_reading`): the
                   type-checked fields, ``dependencies`` a tuple,
                   ``metadata`` the document's own map.  What a scan's
                   row predicate matches on and what a client builds its
                   views from; ``None`` for a value that is no
                   well-typed record, which both answer from ``document``
                   instead, as if there were no memo.  A rewrite of the
                   key is a new version with a reading of its own.
    ``read``       the :class:`ReadSetEntry` a scan visiting this version
                   records.
    ``read_line``  that entry's line in the rw-set's canonical JSON.
    ``text_size``  the length of the version's row in a scan answer's text
                   (:func:`~repro.ledger.scan.row_size`) — what the network
                   charges for it; the text itself is never kept.
    """

    __slots__ = (
        "value", "version", "key", "document", "reading", "read", "read_line", "text_size"
    )

    value: str
    version: Version
    key: Optional[str]
    document: Optional[Dict[str, Any]]
    reading: Optional[Tuple[Any, ...]]
    read: ReadSetEntry
    read_line: str
    text_size: int

    _FRAGMENTS = {
        "document": _parse_document,
        "reading": _reading,
        "read": _read_entry,
        "read_line": _read_line,
        "text_size": row_size,
    }

    def __init__(self, value: str, version: Version, key: Optional[str] = None) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "key", key)

    def __getattr__(self, name: str) -> Any:
        # Reached only while a fragment's slot is still empty: a filled
        # slot is a plain attribute read, with no call on the scan path.
        fill = self._FRAGMENTS.get(name)
        if fill is None:
            raise AttributeError(name)
        fragment = fill(self)
        object.__setattr__(self, name, fragment)
        return fragment

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"VersionedValue is immutable; cannot assign {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VersionedValue):
            return NotImplemented
        return self.value == other.value and self.version == other.version

    def __hash__(self) -> int:
        return hash((self.value, self.version))

    def __repr__(self) -> str:
        return f"VersionedValue(value={self.value!r}, version={self.version!r})"


class _Undecided:
    """What a column holds for a row it cannot decide: equal to everything.

    A deleted key and a version with no reading compare equal to every
    expectation, so a scan hands them on (the lookup drops the first, the
    caller's predicate answers the second from the document).
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return True

    def __repr__(self) -> str:
        return "_UNDECIDED"


_UNDECIDED = _Undecided()


def _column_reader(field: str) -> Callable[[Optional["VersionedValue"]], Any]:
    """What a column holds of one row: the value an equality on ``field`` compares.

    ``metadata.<k>`` is the reading's metadata map's ``get(k)`` and a
    field of :data:`~repro.common.records.READ_AS_STORED` the reading's
    own value: exactly what ``compile_row_predicate`` compares, so a row
    a column rejects is one the predicate rejects.
    """
    if field.startswith("metadata."):
        name = field[len("metadata."):]

        def read_metadata(entry: Optional[VersionedValue]) -> Any:
            reading = entry.reading if entry is not None else None
            return _UNDECIDED if reading is None else reading[METADATA].get(name)

        return read_metadata
    index = READ_AS_STORED[field]

    def read_stored(entry: Optional[VersionedValue]) -> Any:
        reading = entry.reading if entry is not None else None
        return _UNDECIDED if reading is None else reading[index]

    return read_stored


def _prefix_end(prefix: str) -> str:
    """The least string above every string starting with ``prefix``.

    Empty when there is none: an empty prefix, or one made of U+10FFFF
    only, runs to the end of the key space.
    """
    stem = prefix.rstrip("\U0010ffff")
    return stem[:-1] + chr(ord(stem[-1]) + 1) if stem else ""


class _SortedKeyIndex:
    """A sorted key list maintained incrementally with lazy deletions.

    Inserts use ``insort`` (O(log n) search + memmove); deletions only
    record a tombstone until a compaction rebuilds the list.  Re-inserting
    a tombstoned key simply clears the tombstone, so the list never holds
    duplicates.  :class:`WorldState` slices ``keys`` directly and drops a
    tombstoned key by its missing entry.
    """

    def __init__(self) -> None:
        self.keys: List[str] = []
        self._dead: Set[str] = set()

    def __len__(self) -> int:
        return len(self.keys) - len(self._dead)

    def add(self, key: str) -> None:
        if key in self._dead:
            self._dead.discard(key)
            return
        insort(self.keys, key)

    def discard(self, key: str) -> None:
        self._dead.add(key)
        if len(self._dead) >= _COMPACT_MIN_TOMBSTONES and \
                len(self._dead) * 2 >= len(self.keys):
            self.compact()

    def compact(self) -> None:
        """Drop tombstoned entries from the sorted list.

        Rebinds (never mutates) both the key list and the tombstone set:
        in-flight scans hold a reference to the old list and keep
        iterating a consistent snapshot.
        """
        if self._dead:
            dead = self._dead
            self.keys = [key for key in self.keys if key not in dead]
            self._dead = set()


class WorldState:
    """Versioned key/value store with range and composite-key queries."""

    #: Separator used by the secondary prefix index to bucket
    #: keys by their first path segment (``tenant/...``, ``perf/...``).
    PREFIX_SEPARATOR = "/"

    #: Keys a lazy scan looks up ahead of the rows pulled from it (see
    #: :meth:`_run` for the measurement it comes from; not a tunable).
    _SCAN_LOOKAHEAD = 64

    def __init__(self) -> None:
        self._data: Dict[str, VersionedValue] = {}
        self._index = _SortedKeyIndex()
        #: first-segment bucket → sorted sub-index (secondary prefix index).
        self._buckets: Dict[str, _SortedKeyIndex] = {}
        #: optional field-value secondary index, maintained transactionally
        #: with every committed put/delete (see ``attach_secondary_index``):
        #: a ``repro.query.indexes.FieldValueIndex``, of which the ledger
        #: calls only ``update(key, value)`` and ``remove(key)``.  It is
        #: untyped here so the dependency arrow keeps pointing
        #: query → ledger, never back.
        self._secondary: Optional[Any] = None
        self.writes_applied = 0
        #: ``(run, field)`` → that field's scan column over the run (a
        #: first-segment bucket or the main index), all of them built on
        #: the state as it was after write ``_columns_at`` (see
        #: :meth:`_columns_for`; -1: no scan yet).
        self._columns: Dict[Tuple[_SortedKeyIndex, str], List[Any]] = {}
        self._columns_at = -1

    @property
    def secondary_index(self) -> Optional[Any]:
        """The attached field-value index, if any (read path introspection)."""
        return self._secondary

    def attach_secondary_index(self, index: Optional[Any]) -> None:
        """Attach (or detach, with ``None``) a field-value secondary index.

        Existing committed state is reindexed immediately, so an index
        enabled mid-run answers for keys committed before it existed.
        """
        self._secondary = index
        if index is not None:
            for entry in self._data.values():
                index.update(entry.key, entry.value)

    def get(self, key: str) -> Optional[VersionedValue]:
        """The latest committed value for ``key``, or ``None``."""
        return self._data.get(key)

    def get_version(self, key: str) -> Optional[Version]:
        entry = self._data.get(key)
        return entry.version if entry else None

    def put(self, key: str, value: str, version: Version) -> VersionedValue:
        """Commit a write (only the committing peer calls this); returns its entry."""
        return self.put_entry(key, VersionedValue(value, version, key))

    def put_entry(self, key: str, entry: VersionedValue) -> VersionedValue:
        """Commit a write whose immutable entry already exists.

        A replica adopting another replica's commit of the same block
        stores the very entry that replica built under the same ``key``
        (one object per committed version per channel, each of its
        fragments computed at most once); the sorted index, the prefix
        buckets and the attached secondary index are this world state's
        own and are kept here either way.
        """
        if key not in self._data:
            self._index.add(key)
            self._bucket_for(key).add(key)
        self._data[key] = entry
        if self._secondary is not None:
            self._secondary.update(key, entry.value)
        self.writes_applied += 1
        return entry

    def delete(self, key: str, version: Version) -> None:
        """Remove a key from the world state."""
        if self._data.pop(key, None) is not None:
            self._index.discard(key)
            self._bucket_for(key).discard(key)
            if self._secondary is not None:
                self._secondary.remove(key)
        self.writes_applied += 1

    def _bucket_for(self, key: str) -> _SortedKeyIndex:
        segment = key.split(self.PREFIX_SEPARATOR, 1)[0]
        bucket = self._buckets.get(segment)
        if bucket is None:
            bucket = self._buckets[segment] = _SortedKeyIndex()
        return bucket

    def __len__(self) -> int:
        return len(self._data)

    def range_query_versioned(self, start_key: str, end_key: str) -> List[VersionedValue]:
        """The committed versions (they carry ``.key``) with ``start_key <= key < end_key``.

        An empty ``end_key`` means "to the end of the key space", matching
        Fabric's ``GetStateByRange`` semantics.
        """
        return list(self._range(start_key, end_key))

    def query_by_prefix_versioned(self, prefix: str, where: Where) -> List[VersionedValue]:
        """The committed versions whose key starts with ``prefix``.

        Served from the secondary prefix index when the queried prefix is
        contained in a single first-segment bucket, otherwise from the
        main sorted index (same complexity, larger constant).  A version
        whose column value fails one of the ``where`` equalities is left
        out (see :meth:`_run`); ``()`` hands out the whole run.
        """
        return list(self._prefix_run(prefix, where))

    def prefix_key_estimate(self, prefix: str) -> int:
        """Cheap upper bound on the keys under ``prefix``.

        The planner's cost input: the bucket size when the prefix names a
        single first-segment bucket, the full key count otherwise.  O(1),
        never scans.
        """
        bucket = self._bucket_of_prefix(prefix)
        if bucket is self._index:
            return len(self._data)
        return len(bucket) if bucket is not None else 0

    def _bucket_of_prefix(self, prefix: str) -> Optional[_SortedKeyIndex]:
        """The smallest index holding every key under ``prefix``.

        The first-segment bucket when the prefix names one complete
        bucket (``None`` if no key ever landed there), the main index
        otherwise.
        """
        if prefix:
            segment, separator, _rest = prefix.partition(self.PREFIX_SEPARATOR)
            if separator:
                return self._buckets.get(segment)
        return self._index

    def iter_by_range_versioned(
        self, start_key: str, end_key: str, start_after: str = ""
    ) -> Iterator[VersionedValue]:
        """Lazy range scan, optionally resuming strictly after a bookmark."""
        return self._range(start_key, end_key, start_after, lazy=True)

    def iter_by_prefix_versioned(
        self, prefix: str, where: Where, start_after: str = ""
    ) -> Iterator[VersionedValue]:
        """Lazy variant of :meth:`query_by_prefix_versioned`.

        Hands out versions in key order without copying the prefix run,
        optionally resuming strictly after ``start_after`` — the building
        block for bookmark pagination: a caller wanting the first page of
        *k* rows touches O(log n + k) work instead of the whole run.
        """
        return self._prefix_run(prefix, where, start_after, lazy=True)

    def _range(
        self, start_key: str, end_key: str, start_after: str = "", lazy: bool = False
    ) -> Iterator[VersionedValue]:
        return self._run(self._index, start_key, end_key, start_after, lazy, ())

    def _prefix_run(
        self, prefix: str, where: Where, start_after: str = "", lazy: bool = False
    ) -> Iterator[VersionedValue]:
        return self._run(
            self._bucket_of_prefix(prefix), prefix, _prefix_end(prefix), start_after, lazy, where
        )

    def _columns_for(
        self, run: _SortedKeyIndex, where: Where
    ) -> Optional[List[Tuple[Optional[List[Any]], Any]]]:
        """The ``where`` fields' columns over ``run`` (``None`` for one not
        built yet), each with its expectation; ``None`` instead at the
        first scan since a write.

        Every column dies at the first scan after a write: it is valid
        only while :attr:`writes_applied` is the one it was built under,
        which is what spares the put path any work.  That first scan
        builds no column either, so a query that follows every write
        costs what a plain scan costs; a later scan of the unchanged state
        that reads the whole run builds the columns it lacks
        (:meth:`_build_columns`), and the scans after it read them.
        """
        if self._columns_at != self.writes_applied:
            self._columns = {}
            self._columns_at = self.writes_applied
            return None
        return [(self._columns.get((run, field)), expected) for field, expected in where]

    def _build_columns(self, run: _SortedKeyIndex, where: Where) -> None:
        """Build the ``where`` fields' missing columns over ``run``.

        Pulled after the last row of a scan over the whole run: a lazy
        scan's caller has read every row by then, an eager one's is about
        to, so a column parses no document its scan's caller would not.
        A write since the scan began builds nothing.  Past
        :data:`_MAX_COLUMNS` the oldest column is dropped.
        """
        if self._columns_at == self.writes_applied:
            entries = list(map(self._data.get, run.keys))
            for field, _expected in where:
                if (run, field) not in self._columns:
                    if len(self._columns) >= _MAX_COLUMNS:
                        del self._columns[next(iter(self._columns))]
                    self._columns[(run, field)] = list(map(_column_reader(field), entries))

    def _run(
        self, run: Optional[_SortedKeyIndex], lower: str, upper: str, start_after: str,
        lazy: bool, where: Where,
    ) -> Iterator[VersionedValue]:
        """The one scan: live versions of ``lower <= key < upper``, in key order.

        Both ends are found by bisect (an empty ``upper`` is the end of
        ``keys``) and the versions are looked up by C-level iteration, a
        chunk of keys per Python call (:meth:`_chunks`), so a visited row
        runs no Python frame here.  ``start_after`` resumes strictly
        *after* the given key — the bookmark contract: pages never overlap
        even when the bookmark key itself was deleted between pages.  A
        key deleted since it was indexed has no entry and is dropped.

        The eager form is one chunk.  The ``lazy`` form looks up
        :attr:`_SCAN_LOOKAHEAD` keys at a time as rows are pulled, so a
        page of *k* rows costs O(log n + k) whatever the run holds.  It
        is a chunk and not a row because a scan runs on cold caches (the
        state is far larger than L2): the dict probes of one chunk are
        independent loads whose misses overlap, a probe per pulled row
        waits for each in turn.  Measured on the benchmark's ``read_mix``
        state (8 015 keys), scan plus ``_collect`` over a 501-row prefix
        run with 64 MiB walked between calls, time relative to looking
        the whole run up first, by chunk size (two runs of 150 and 200
        calls each, medians): 1 → 2.0x, 4 → 1.37x, 8 → 1.24x, 16 →
        1.17x, 32 → 1.09–1.14x, 64 → 1.07–1.09x, 128 → 1.03–1.04x,
        256 → 1.01–1.02x.  64 is where the curve flattens; what a short
        page pays for it is at most 64 dict probes.  One host's cache
        sizes: re-measure before moving it.

        A lazy scan may be pulled across writes.  A compaction rebinds
        ``keys`` and never mutates it, so the scan keeps reading the list
        it started on.  A put of a new key inserts into that list in
        place, shifting every position after it: a scan that finds its
        list grew between two chunks bisects again, after the last key
        it looked up, and finds its stop again.  So a key live for the
        whole scan is handed out exactly once, and a key put during it
        only if it sorts after where the scan had got to.

        ``where`` lets the scan skip the rows a caller would reject.  For
        each of its fields the world state keeps a *column* over ``run``
        (:meth:`_columns_for`): the field's value for every key, read from
        the version's memoized reading as the query layer's row predicate
        reads it, and :data:`_UNDECIDED` — equal to every expectation —
        for a deleted key or a version with no reading.  When every field
        has its column, a chunk is matched in one C-level pass
        (``map(eq, …)`` and ``compress``) and only its survivors are
        looked up.  Otherwise the scan hands out every row; one over the
        whole run that is pulled past its last row then builds the
        missing columns, and a page that fills earlier builds none, so a
        short page reads no row past the one that filled it.  The caller
        still runs its predicate on every row handed out: a column only
        ever drops a row whose own value fails the same ``==``.  Rows
        leave through the same four methods either way, so what a scan
        hands out counts only what it did not reject.  A chunk pulled
        after a write reads no column.
        """
        return filter(None, chain.from_iterable(
            self._chunks(run, lower, upper, start_after, lazy, where)
        ))

    def _chunks(
        self, run: Optional[_SortedKeyIndex], lower: str, upper: str, start_after: str,
        lazy: bool, where: Where,
    ) -> Iterator[Tuple[Optional[VersionedValue], ...]]:
        """The versions :meth:`_run` hands out, one looked-up chunk at a time."""
        keys = run.keys if run is not None else []
        if start_after and start_after >= lower:
            start = bisect_right(keys, start_after)
        else:
            start = bisect_left(keys, lower)
        stop = bisect_left(keys, upper) if upper else len(keys)
        if start >= stop:
            return
        step = self._SCAN_LOOKAHEAD if lazy else stop - start
        get = self._data.get
        columns = self._columns_for(run, where) if where and run is not None else None
        held = [(values, expected) for values, expected in columns or () if values is not None]
        matching = bool(columns) and len(held) == len(columns)
        whole = bool(columns) and not matching and start == 0 and stop == len(keys)
        built_at = self._columns_at
        size = len(keys)
        while start < stop:
            end = min(start + step, stop)
            last = keys[end - 1]
            if matching and self.writes_applied == built_at:
                masks = [map(eq, values[start:end], repeat(expected)) for values, expected in held]
                keep = masks[0] if len(masks) == 1 else map(all, zip(*masks))
                yield tuple(map(get, compress(keys[start:end], keep)))
            else:
                yield tuple(map(get, keys[start:end]))
            start = end
            if len(keys) != size:
                size = len(keys)
                start = bisect_right(keys, last)
                stop = bisect_left(keys, upper) if upper else size
        if whole:
            self._build_columns(run, where)

    def snapshot(self) -> Dict[str, str]:
        """Plain ``{key: value}`` copy of the current state."""
        return {entry.key: entry.value for entry in self._data.values()}
