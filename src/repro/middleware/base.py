"""Middleware protocol and the pipeline that composes middlewares."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple, Type, TypeVar, Union

from repro.common.errors import ConfigurationError
from repro.middleware.context import Context

if TYPE_CHECKING:  # the fabric package's network imports this module
    from repro.fabric.proposal import ProposalResponse, TransactionHandle

#: What a read answers: the peer's response and its latency in seconds.
ReadResult = Tuple["ProposalResponse", float]

#: An operation's result, the one contract of every pipeline: a
#: :data:`ReadResult` when ``ctx.is_read``, else the
#: :class:`TransactionHandle` the write's commit completes.  The terminal
#: (``HyperProvClient._dispatch``, or the invoke stages' handle), the read
#: cache, the shard router and store-and-forward return no other shape,
#: so a middleware reads a result by ``ctx.kind`` and never inspects it.
Result = Union[ReadResult, "TransactionHandle"]

#: A handler takes the context and returns the operation's :data:`Result`.
Handler = Callable[[Context], Result]

M = TypeVar("M", bound="Middleware")


class Middleware:
    """One link in a transaction pipeline.

    Subclasses implement :meth:`handle` and either pass the context on by
    calling ``call_next(ctx)`` (possibly more than once — the retry
    middleware does) or short-circuit by returning without calling it (the
    cache middleware on a hit, the endorsement stage on policy failure).
    """

    #: Stable identifier used in pipeline introspection and config.
    name: str = "middleware"

    def handle(self, ctx: Context, call_next: Handler) -> Result:
        raise NotImplementedError

    def close(self) -> None:
        """Release any external resources (event subscriptions, queues)."""


class TransactionPipeline:
    """An ordered middleware chain terminating in a handler.

    ``execute`` threads the context down the chain; each middleware sees
    the downstream remainder as a single ``call_next`` callable, so a
    middleware can run code before/after its successors, swallow their
    result, retry them or never invoke them at all.
    """

    def __init__(self, middlewares: Iterable[Middleware], terminal: Handler) -> None:
        self.middlewares: List[Middleware] = list(middlewares)
        self.terminal = terminal
        for middleware in self.middlewares:
            if not isinstance(middleware, Middleware):
                raise ConfigurationError(
                    f"{middleware!r} does not implement the Middleware interface"
                )
        # The chain is static after construction; compose the nested
        # call_next closures once instead of rebuilding them per execute
        # (the pipeline runs for every operator of every client).
        self._entry: Handler = self._compose()

    def _compose(self) -> Handler:
        handler = self.terminal
        for middleware in reversed(self.middlewares):
            handler = self._wrap(middleware, handler)
        return handler

    # -------------------------------------------------------------- execute
    def execute(self, ctx: Context) -> Result:
        """Run ``ctx`` through the chain and return its result (see :data:`Handler`)."""
        return self._entry(ctx)

    @staticmethod
    def _wrap(middleware: Middleware, call_next: Handler) -> Handler:
        def handler(ctx: Context) -> Result:
            return middleware.handle(ctx, call_next)

        return handler

    # ------------------------------------------------------- introspection
    def middleware_names(self) -> List[str]:
        return [middleware.name for middleware in self.middlewares]

    def find(self, cls: Type[M]) -> Optional[M]:
        """First middleware of type ``cls`` in the chain, if any."""
        for middleware in self.middlewares:
            if isinstance(middleware, cls):
                return middleware
        return None

    def close(self) -> None:
        """Close every middleware (cache subscriptions, pending batches)."""
        for middleware in self.middlewares:
            middleware.close()
