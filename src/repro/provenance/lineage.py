"""Lineage over committed HyperProv records, in Open Provenance Model terms.

Every version of a data item is an OPM *artifact*, named
``artifact:<key>@<checksum[:16]>`` (re-posting the same bytes names the
same artifact); the certificate subject that recorded it is an *agent*,
``agent:<organization>/<creator>``; and each dependency of a record is a
*wasDerivedFrom* edge to that key's latest artifact when the record
committed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

from repro.chaincode.records import ProvenanceRecord
from repro.common.errors import NotFoundError, ValidationError


@dataclass
class LineageReport:
    """Result of an ancestry/descendant query for one artifact."""

    root: str
    ancestors: List[str] = field(default_factory=list)
    descendants: List[str] = field(default_factory=list)
    depth: int = 0
    contributing_agents: List[str] = field(default_factory=list)

    @property
    def ancestor_count(self) -> int:
        return len(self.ancestors)

    @property
    def descendant_count(self) -> int:
        return len(self.descendants)


def _distances(start: str, edges: Dict[str, Set[str]]) -> Dict[str, int]:
    """Breadth-first distance from ``start`` to every node it reaches."""
    distance = {start: 0}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        for successor in edges.get(node, ()):
            if successor not in distance:
                distance[successor] = distance[node] + 1
                frontier.append(successor)
    return distance


def lineage_report(records: Iterable[ProvenanceRecord], key: str) -> LineageReport:
    """Ancestors, descendants, depth and agents of ``key``'s latest version.

    ``records`` are the committed records in commit order.  Raises
    :class:`ValidationError` for an invalid record or one whose dependency
    has no earlier version, :class:`NotFoundError` when ``key`` has none.
    """
    sources: Dict[str, Set[str]] = {}  # artifact -> what it derives from
    derivers: Dict[str, Set[str]] = {}  # the same edges, reversed
    agents: Dict[str, Set[str]] = {}
    latest: Dict[str, str] = {}  # key -> its latest artifact so far
    versions: Set[str] = set()  # every artifact of ``key``
    for record in records:
        record.validate()
        artifact = f"artifact:{record.key}@{record.checksum[:16]}"
        agents.setdefault(artifact, set()).add(f"agent:{record.organization}/{record.creator}")
        for dependency in record.dependencies:
            if dependency not in latest:
                raise ValidationError(
                    f"record {record.key!r} depends on {dependency!r}, "
                    "which has no recorded version"
                )
            sources.setdefault(artifact, set()).add(latest[dependency])
            derivers.setdefault(latest[dependency], set()).add(artifact)
        latest[record.key] = artifact
        if record.key == key:
            versions.add(artifact)
    if key not in latest:
        raise NotFoundError(f"no artifact recorded for key {key!r}")

    root = latest[key]
    reached = _distances(root, sources)
    descendants: Set[str] = set()
    for version in versions:  # a later version derived from an earlier one counts
        descendants |= _distances(version, derivers).keys() - {version}
    return LineageReport(
        root=root,
        ancestors=sorted(reached.keys() - {root}),
        descendants=sorted(descendants),
        depth=max(reached.values()),
        contributing_agents=sorted(set().union(*(agents[a] for a in reached))),
    )
