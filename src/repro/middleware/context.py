"""The request context flowing through a transaction pipeline."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Chaincode functions whose first argument is the one ledger key they
#: touch: ``set`` and ``delete`` write it, the others read it.  The tenant
#: namespace, the shard route and the read cache's invalidation all follow
#: from that key; a middleware applies the table to the operations it sees.
KEY_SCOPED_FUNCTIONS = frozenset(
    {"get", "getkeyhistory", "checkhash", "getdependencies", "set", "delete"}
)


class OperationKind(enum.Enum):
    """Whether an operation mutates ledger state or only reads it."""

    READ = "read"
    WRITE = "write"


@dataclass
class Context:
    """One client operation travelling through a :class:`TransactionPipeline`.

    The context carries everything a middleware may need to route, time,
    cache or retry the operation.  Middlewares communicate with each other
    and with the terminal handler exclusively through this object (the
    ``tags`` dictionary is the free-form extension point — the Fabric
    stages park their proposal/transaction state there).
    """

    #: Client-facing operator name (``post``, ``get``, ``store_data``, ...).
    operation: str
    kind: OperationKind
    chaincode: str
    function: str
    args: List[str]
    payload_size_bytes: int = 0
    #: Virtual time the operation should start at; ``None`` means "now".
    at_time: Optional[float] = None
    #: Assigned by the tracing middleware (stable per retry attempt chain).
    request_id: str = ""
    #: 1-based attempt number, incremented by the retry middleware.
    attempt: int = 1
    #: Whether the read-cache middleware answered from cache.
    cache_hit: bool = False
    #: Whether the result is a degraded-mode answer served from the stale
    #: archive because the authoritative peer was unreachable.
    stale: bool = False
    #: Free-form middleware scratch space.
    tags: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_read(self) -> bool:
        return self.kind is OperationKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is OperationKind.WRITE

    def cache_key(self) -> Tuple[str, str, Tuple[str, ...]]:
        """Identity of the read for result caching."""
        return (self.chaincode, self.function, tuple(self.args))
