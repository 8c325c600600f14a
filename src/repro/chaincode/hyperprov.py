"""The HyperProv chaincode.

Implements the operator set of the paper's Go chaincode on the Python
shim.  Functions (dispatched by ``stub.function``):

``set``
    Record a new version of a data item: checksum, off-chain location,
    creator certificate, dependency list and custom metadata.
``get``
    Return the latest provenance record for a key.
``getkeyhistory``
    Return every recorded version of a key (operation history), via the
    peer's history index — HyperProv's "lightweight retrieval of
    provenance data".
``checkhash``
    Verify a supplied checksum against the latest on-chain record.
``getbyrange``
    Range query over keys (used by dashboards / audits).
``getdependencies``
    Return the dependency list of the latest record for a key.
``query``
    Rich selector query: return every record whose fields match a JSON
    selector (e.g. ``{"creator": "camera-gw"}``), the CouchDB-style query
    HLF offers when the state database supports it.
``delete``
    Remove the key from the world state (history remains, as in Fabric).

Updates are access-controlled: once a key exists, only clients from the
organization that created it may record new versions or delete it, so one
compromised consortium member cannot overwrite another member's provenance.
Every successful ``set`` also emits a ``provenance_recorded`` chaincode
event that client applications can subscribe to.
"""

from __future__ import annotations

import json
from itertools import filterfalse, islice
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Optional, Tuple

from repro.chaincode.records import ProvenanceRecord
from repro.chaincode.shim import Candidates, ChaincodeResponse, ChaincodeStub
from repro.common.errors import ValidationError
from repro.ledger.scan import HistoryPage, ScanPage
from repro.ledger.world_state import VersionedValue
from repro.query.planner import PATH_INDEX, build_plan, intersect_keys
from repro.query.selectors import RowPredicate, column_fields, compile_row_predicate

_READ = attrgetter("read")
_READ_LINE = attrgetter("read_line")


def _is_marker(entry: VersionedValue) -> bool:
    """Whether ``entry`` sits under a ``__`` marker key (never a record)."""
    return entry.key.startswith("__")


class HyperProvChaincode:
    """Chaincode storing and querying HyperProv provenance records."""

    name = "hyperprov"

    #: Functions that only read state (served by a single peer, no ordering).
    QUERY_FUNCTIONS = frozenset(
        {"get", "getkeyhistory", "checkhash", "getbyrange", "getdependencies", "query"}
    )
    #: Functions that write state (require endorsement + ordering + commit).
    INVOKE_FUNCTIONS = frozenset({"set", "delete"})

    #: Name of the chaincode event emitted on every successful ``set``.
    RECORD_EVENT = "provenance_recorded"

    # ---------------------------------------------------------------- invoke
    #: Dispatch table built once at class definition (the per-invocation
    #: dict literal showed up on the endorsement profile).
    _HANDLERS = {
        "set": "_set",
        "get": "_get",
        "getkeyhistory": "_get_key_history",
        "checkhash": "_check_hash",
        "getbyrange": "_get_by_range",
        "getdependencies": "_get_dependencies",
        "query": "_query",
        "delete": "_delete",
    }

    def invoke(self, stub: ChaincodeStub) -> ChaincodeResponse:
        handler_name = self._HANDLERS.get(stub.function)
        handler = getattr(self, handler_name) if handler_name else None
        if handler is None:
            return ChaincodeResponse.error(
                f"unknown function {stub.function!r}; "
                f"expected one of {sorted(self._HANDLERS)}"
            )
        try:
            return handler(stub)
        except ValidationError as exc:
            return ChaincodeResponse.error(str(exc))

    # ------------------------------------------------------------- functions
    def _set(self, stub: ChaincodeStub) -> ChaincodeResponse:
        """``set(key, checksum, location, dependencies_json, metadata_json, size)``

        Refused, naming the argument, unless ``dependencies_json`` is a
        JSON list of non-empty strings, ``metadata_json`` a JSON object
        and ``size`` an integer: nothing malformed reaches the ledger.
        """
        if len(stub.args) < 3:
            return ChaincodeResponse.error(
                "set requires at least: key, checksum, location"
            )
        args = stub.args
        key, checksum, location = args[0], args[1], args[2]
        try:
            dependencies = json.loads(args[3]) if len(args) > 3 and args[3] else []
        except ValueError:  # JSONDecodeError is a ValueError
            dependencies = None
        if not isinstance(dependencies, list) or not all(
            isinstance(dependency, str) and dependency for dependency in dependencies
        ):
            return ChaincodeResponse.error(
                "set: dependencies must be a JSON list of non-empty strings"
            )
        try:
            metadata = json.loads(args[4]) if len(args) > 4 and args[4] else {}
        except ValueError:
            metadata = None
        if not isinstance(metadata, dict):
            return ChaincodeResponse.error("set: metadata must be a JSON object")
        try:
            size_bytes = int(args[5]) if len(args) > 5 and args[5] else 0
        except ValueError:
            return ChaincodeResponse.error("set: size_bytes must be an integer")

        creator = stub.get_creator()
        if creator is None:
            return ChaincodeResponse.error("set requires a creator certificate")

        # Read the current version of the key (if any).  Besides letting the
        # new record link back to its predecessor, the read makes concurrent
        # updates of the same key MVCC-conflict at commit time, so exactly
        # one writer wins per block — the history index never interleaves
        # half-applied updates.
        previous_raw = stub.get_state(key)
        if previous_raw is not None:
            previous = ProvenanceRecord.from_json(previous_raw)
            if previous.organization and previous.organization != creator.organization:
                return ChaincodeResponse.error(
                    f"key {key!r} is owned by organization "
                    f"{previous.organization!r}; {creator.organization!r} may not update it"
                )
            metadata.setdefault("previous_checksum", previous.checksum)

        # Dependencies must already exist on chain — lineage cannot point at
        # unrecorded items.  The reads also make the transaction conflict if
        # a dependency is concurrently deleted.
        for dependency in dependencies:
            if stub.get_state(dependency) is None:
                return ChaincodeResponse.error(
                    f"dependency {dependency!r} is not recorded on the ledger"
                )

        record = ProvenanceRecord(
            key=key,
            checksum=checksum,
            location=location,
            creator=creator.subject,
            organization=creator.organization,
            certificate_fingerprint=creator.fingerprint,
            dependencies=dependencies,
            metadata=metadata,
            timestamp=stub.get_tx_timestamp(),
            size_bytes=size_bytes,
        )
        record.validate()
        record_json = record.to_json()
        # ``json.dumps`` of ``{"key", "checksum", "creator"}``, formatted
        # directly: chaincode arguments and certificate subjects are strings.
        event_json = '{"key": %s, "checksum": %s, "creator": %s}' % (
            _quote(key), _quote(checksum), _quote(creator.subject)
        )
        stub.put_state(key, record_json)
        stub.set_event(self.RECORD_EVENT, event_json)
        return ChaincodeResponse.success(record_json)

    def _get(self, stub: ChaincodeStub) -> ChaincodeResponse:
        """``get(key)`` — the latest provenance record for a key."""
        if not stub.args:
            return ChaincodeResponse.error("get requires a key argument")
        value = stub.get_state(stub.args[0])
        if value is None:
            return ChaincodeResponse.error(f"key {stub.args[0]!r} not found")
        return ChaincodeResponse.success(value)

    def _get_key_history(self, stub: ChaincodeStub) -> ChaincodeResponse:
        """``getkeyhistory(key)`` — every committed version of a key."""
        if not stub.args:
            return ChaincodeResponse.error("getkeyhistory requires a key argument")
        entries = stub.get_history_for_key(stub.args[0])
        if not entries:
            return ChaincodeResponse.error(f"no history for key {stub.args[0]!r}")
        return ChaincodeResponse.versions(HistoryPage(tuple(entries)))

    def _check_hash(self, stub: ChaincodeStub) -> ChaincodeResponse:
        """``checkhash(key, checksum)`` — verify data integrity against the chain."""
        if len(stub.args) < 2:
            return ChaincodeResponse.error("checkhash requires key and checksum")
        value = stub.get_state(stub.args[0])
        if value is None:
            return ChaincodeResponse.error(f"key {stub.args[0]!r} not found")
        record = ProvenanceRecord.from_json(value)
        matches = record.matches_checksum(stub.args[1])
        return ChaincodeResponse.success(json.dumps({"matches": matches}))

    def _get_by_range(self, stub: ChaincodeStub) -> ChaincodeResponse:
        """``getbyrange(start_key, end_key[, limit[, bookmark]])``.

        Committed records in a key range.  The two-argument form returns
        the plain row list (the historical surface).  With a ``limit``
        (and optionally a ``bookmark`` — the last key of the previous
        page) the response is a ``{"records", "bookmark"}`` envelope: the
        bookmark is non-null exactly when the page filled, and feeding it
        back resumes strictly after it.  The paginated form skips ``__``
        marker keys and, reading only the rows it returns, does not
        record them either; the plain form returns and records them.
        """
        start_key = stub.args[0] if stub.args else ""
        end_key = stub.args[1] if len(stub.args) > 1 else ""
        if len(stub.args) <= 2:
            rows, _ = self._collect(
                stub, stub.get_state_by_range(start_key, end_key), markers=True
            )
            return ChaincodeResponse.scanned(ScanPage(rows))
        try:
            limit = int(stub.args[2]) if stub.args[2] else 0
        except ValueError:
            return ChaincodeResponse.error("getbyrange limit must be an integer")
        if limit < 0:
            return ChaincodeResponse.error("getbyrange limit must be >= 0")
        bookmark = stub.args[3] if len(stub.args) > 3 else ""
        rows, truncated = self._collect(
            stub, stub.iter_state_by_range(start_key, end_key, bookmark), limit=limit
        )
        return ChaincodeResponse.scanned(
            ScanPage(rows, rows[-1].key if truncated else None, enveloped=True)
        )

    def _get_dependencies(self, stub: ChaincodeStub) -> ChaincodeResponse:
        """``getdependencies(key)`` — the dependency list of the latest record."""
        if not stub.args:
            return ChaincodeResponse.error("getdependencies requires a key argument")
        value = stub.get_state(stub.args[0])
        if value is None:
            return ChaincodeResponse.error(f"key {stub.args[0]!r} not found")
        record = ProvenanceRecord.from_json(value)
        return ChaincodeResponse.success(json.dumps(record.dependencies))

    def _query(self, stub: ChaincodeStub) -> ChaincodeResponse:
        """``query(selector_json)`` — records whose fields match the selector.

        The selector is a flat JSON object; a record matches when every
        selector field equals the corresponding record field (``metadata.*``
        selectors match inside the custom metadata map).  Mirrors the rich
        queries HLF supports with a CouchDB state database.

        Reserved selector fields:

        ``_prefix``
            Scope the scan: only keys starting with the prefix are
            considered (the equivalent of a CouchDB composite-key index).
        ``_limit`` / ``_bookmark``
            Paginate: return at most ``_limit`` matches, resuming
            strictly after the ``_bookmark`` key.  Responses become a
            ``{"records", "bookmark"}`` envelope; the bookmark is
            non-null exactly when the page filled.
        ``_explain``
            Embed the planner's chosen access path in the envelope as
            ``"plan"``; an index-intersection plan also reports
            ``"candidates"``, the exact number of keys the posting
            intersection handed the fetch.

        Access-path choice is delegated to :mod:`repro.query.planner`:
        when the peer's world state carries field-value secondary indexes
        the selector's equality fields are served by posting-list
        intersection, otherwise by the prefix run or a full scan.  Every
        path visits candidates in key order, costs one state operation
        and applies the same compiled predicates, so the returned rows,
        the read set (those rows) and the query's virtual-time cost are
        identical with indexes on or off.

        The prefix run and the full scan (an empty prefix), paginated or
        not, hand the world state the residual's ``metadata.<k>`` and
        stored-field equalities (:func:`~repro.query.selectors.column_fields`).
        It matches the run's keys against a column per field — built by
        a scan that reads the whole run, unless it is the first since the
        last write, and kept until the next (``WorldState._run``) — and
        looks up only the rows no column rejects: no Python frame runs
        for a rejected row.  The
        compiled row predicate, the one definition of "matches", still
        runs on every row handed over: a column rejects only a row whose
        own value fails the same ``==``, and passes on what it cannot
        decide (a version with no reading, a deleted key).
        """
        if not stub.args or not stub.args[0]:
            return ChaincodeResponse.error("query requires a JSON selector argument")
        try:
            selector = json.loads(stub.args[0])
        except json.JSONDecodeError as exc:
            return ChaincodeResponse.error(f"malformed selector: {exc}")
        if not isinstance(selector, dict) or not selector:
            return ChaincodeResponse.error("selector must be a non-empty JSON object")

        prefix = selector.pop("_prefix", None)
        if prefix is not None and not isinstance(prefix, str):
            return ChaincodeResponse.error("_prefix must be a string")
        limit = selector.pop("_limit", None)
        if limit is not None and (not isinstance(limit, int) or isinstance(limit, bool) or limit < 0):
            return ChaincodeResponse.error("_limit must be a non-negative integer")
        bookmark = selector.pop("_bookmark", None)
        if bookmark is not None and not isinstance(bookmark, str):
            return ChaincodeResponse.error("_bookmark must be a string")
        explain = selector.pop("_explain", None)
        if explain is not None and not isinstance(explain, bool):
            return ChaincodeResponse.error("_explain must be a boolean")
        if not selector and not prefix:
            return ChaincodeResponse.error("selector must be a non-empty JSON object")
        paginated = limit is not None or bookmark is not None or bool(explain)
        prefix = prefix or ""
        limit = limit or 0
        bookmark = bookmark or ""

        world_state = stub.world_state
        plan = build_plan(
            selector,
            index=world_state.secondary_index,
            total_keys=len(world_state),
            prefix=prefix,
            prefix_keys=world_state.prefix_key_estimate(prefix) if prefix else None,
            limit=limit,
            bookmark=bookmark,
        )
        explained = plan.explain() if explain else None
        # Index-served equalities are already guaranteed by the posting
        # intersection; the residual fields compile to one row predicate.
        residual = {name: selector[name] for name in plan.residual_fields}
        if plan.access_path == PATH_INDEX:
            keys = intersect_keys(world_state.secondary_index, plan, selector)
            if explained is not None:
                # Exact, where ``estimated_candidates`` is the smallest posting.
                explained["candidates"] = len(keys)
            candidates = stub.get_state_by_keys(keys)
        elif paginated:
            # The lazy scan: a bookmark+limit page stops as soon as it
            # fills instead of materialising the whole prefix run.
            candidates = stub.iter_state_by_prefix(prefix, column_fields(residual), bookmark)
        else:
            # An empty prefix is the whole key space.
            candidates = stub.get_state_by_prefix(prefix, column_fields(residual))

        match = compile_row_predicate(residual)
        rows, truncated = self._collect(stub, candidates, match, limit)
        return ChaincodeResponse.scanned(ScanPage(
            rows,
            rows[-1].key if truncated else None,
            explained,
            enveloped=paginated,
        ))

    @staticmethod
    def _collect(
        stub: ChaincodeStub,
        candidates: Candidates,
        match: Optional[RowPredicate] = None,
        limit: int = 0,
        markers: bool = False,
    ) -> Tuple[Tuple[VersionedValue, ...], bool]:
        """The one scan behind ``query`` and ``getbyrange``.

        Takes the run of ``candidates`` in order and returns ``(rows,
        truncated)``: every candidate that satisfies ``match`` (when
        given) and is not a ``__`` marker key (unless ``markers``);
        ``truncated`` when ``limit`` rows filled the page.  The read set
        is exactly the returned rows, as Fabric records for
        ``GetQueryResult``: only the keys the query hands back, never
        the rows it rejected or skipped (a paginated ``getbyrange``
        records no marker it passes over).  No invoke function scans, so
        a scan's reads reach no MVCC check; they only feed the digest an
        endorser signs over a read-only answer.

        ``filter`` calls ``match`` once per visited row (a scan without
        predicate makes no call), the marker test runs on its hits only,
        and ``islice`` stops pulling at the row that fills the page.
        ``candidates`` may be any iterable — under the benchmark's tracer
        a lazy scan arrives as a plain generator — so nothing here sizes
        or slices it.
        """
        if match is not None:
            candidates = filter(match, candidates)
        if not markers:
            candidates = filterfalse(_is_marker, candidates)
        rows = tuple(islice(candidates, limit) if limit else candidates)
        stub.rw_set.extend_reads(list(map(_READ, rows)), list(map(_READ_LINE, rows)))
        return rows, bool(limit) and len(rows) == limit

    def _delete(self, stub: ChaincodeStub) -> ChaincodeResponse:
        """``delete(key)`` — remove the key from the world state.

        Only the owning organization (the one that recorded the key) may
        delete it.
        """
        if not stub.args:
            return ChaincodeResponse.error("delete requires a key argument")
        current_raw = stub.get_state(stub.args[0])
        if current_raw is None:
            return ChaincodeResponse.error(f"key {stub.args[0]!r} not found")
        creator = stub.get_creator()
        current = ProvenanceRecord.from_json(current_raw)
        if creator is not None and current.organization and \
                current.organization != creator.organization:
            return ChaincodeResponse.error(
                f"key {stub.args[0]!r} is owned by organization "
                f"{current.organization!r}; {creator.organization!r} may not delete it"
            )
        stub.del_state(stub.args[0])
        return ChaincodeResponse.success(json.dumps({"deleted": stub.args[0]}))
