"""Network partition injection.

The paper motivates edge deployments where connectivity to the cloud (or
between sites) is intermittent; Vegvisir [8] is cited for partition
tolerance.  The :class:`PartitionManager` lets tests and benchmarks split
the node set into groups, check reachability and heal partitions.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence

from repro.common.errors import ConfigurationError, NotFoundError


class PartitionManager:
    """Tracks which partition group each node belongs to.

    With no partitions installed every node can reach every other node.

    A standalone manager accepts any node name.  Once bound to a node
    universe via :meth:`bind_known_nodes` (the fabric does this on
    construction), partitioning an unknown site name raises
    :class:`~repro.common.errors.NotFoundError` instead of silently
    installing a no-op group — a chaos plan with a typo'd site must fail
    loudly, not pass vacuously.
    """

    def __init__(self) -> None:
        self._group_of: Dict[str, int] = {}
        self._partitioned = False
        self._known_nodes: Optional[Callable[[], Iterable[str]]] = None

    def bind_known_nodes(self, provider: Callable[[], Iterable[str]]) -> None:
        """Restrict future :meth:`partition` calls to names ``provider`` yields.

        ``provider`` is called lazily at partition time so nodes registered
        after binding are still accepted.
        """
        self._known_nodes = provider

    @property
    def is_partitioned(self) -> bool:
        """Whether a partition is currently installed."""
        return self._partitioned

    def partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Split nodes into disjoint groups; nodes absent from every group
        form an implicit extra group and can only talk to each other."""
        known = set(self._known_nodes()) if self._known_nodes is not None else None
        staged: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for node in group:
                if node in staged:
                    raise ConfigurationError(f"node {node!r} appears in more than one group")
                if known is not None and node not in known:
                    raise NotFoundError(
                        f"cannot partition unknown node {node!r}; "
                        f"known nodes: {sorted(known)}"
                    )
                staged[node] = index
        self._group_of = staged
        self._partitioned = True

    def heal(self) -> None:
        """Remove all partitions; full connectivity is restored."""
        self._group_of = {}
        self._partitioned = False

    def can_communicate(self, source: str, destination: str) -> bool:
        """Whether a message from ``source`` can currently reach ``destination``."""
        if not self._partitioned:
            return True
        implicit_group = -1
        source_group = self._group_of.get(source, implicit_group)
        destination_group = self._group_of.get(destination, implicit_group)
        return source_group == destination_group
