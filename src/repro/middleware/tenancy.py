"""Tenant namespacing and admission control middlewares.

Multi-tenancy lands as a middleware concern (the SDSN@RT pattern): call
sites and backends stay tenant-unaware while two pipeline links enforce
the namespace on the wire:

* :class:`TenantPrefixMiddleware` rewrites every key argument to live
  under ``tenant/<name>/…`` before the operation reaches the cache or the
  terminal, so two tenants can never address each other's ledger keys.
* :class:`AdmissionControlMiddleware` caps how many write submissions a
  tenant may keep in flight at once (endorsed envelopes queued in the
  batcher or awaiting commit), rejecting excess submissions with
  :class:`~repro.common.errors.AdmissionRejectedError` instead of letting
  one tenant monopolize the ordering path.

Both are enabled declaratively through
:class:`~repro.middleware.config.PipelineConfig` (``tenant`` /
``max_in_flight``).
"""

from __future__ import annotations

import json
from dataclasses import replace
from repro.common.errors import (
    AdmissionRejectedError,
    ConfigurationError,
    ValidationError,
)
from repro.common.metrics import MetricsRegistry
from repro.common.serialization import sorted_json
from repro.common.tenancy import namespace_end, relative_key, tenant_namespace
from repro.middleware.base import Handler, Middleware, ReadResult, Result
from repro.middleware.context import KEY_SCOPED_FUNCTIONS, Context


class TenantPrefixMiddleware(Middleware):
    """Rewrites key arguments into the tenant's namespace.

    Placement matters: the middleware sits above the read cache, so cache
    entries are keyed on namespaced args and a tenant can only ever hit
    its own cached reads.  Rich queries (``query``) cannot be prefixed —
    selectors match record fields — so their result rows are post-filtered
    to the tenant's namespace instead.
    """

    name = "tenant-prefix"

    def __init__(self, tenant: str, metrics: MetricsRegistry) -> None:
        self.tenant = tenant
        self.prefix = tenant_namespace(tenant)
        self.end = namespace_end(tenant)
        self.metrics = metrics

    # ------------------------------------------------------------- pipeline
    def handle(self, ctx: Context, call_next: Handler) -> Result:
        self._rewrite_args(ctx)
        result = call_next(ctx)
        return self._scope_page(result) if ctx.is_read else result

    # ------------------------------------------------------------ rewriting
    def _rewrite_args(self, ctx: Context) -> None:
        """Namespace every key argument; too-short args go down for the chaincode to reject."""
        function, args = ctx.function, ctx.args
        if function == "set":
            if args:
                args[0] = self.prefix + args[0]
                if len(args) > 3:
                    args[3] = self._prefix_dependency_json(args[3])
        elif function in KEY_SCOPED_FUNCTIONS:
            if args:
                args[0] = self.prefix + args[0]
        elif function == "getbyrange":
            if len(args) >= 2:
                args[0] = self.prefix + args[0]
                # An empty end key means "unbounded": the namespace's end.
                args[1] = self.prefix + args[1] if args[1] else self.end
                # Paginated form: the resume bookmark is a (tenant-relative) key.
                if len(args) > 3 and args[3]:
                    args[3] = self.prefix + args[3]
        elif function == "query":
            if args:
                args[0] = self._namespace_selector_prefix(args[0])
        else:
            # Fail closed: an unrewritten key would address the global
            # namespace from inside the tenant's pipeline.
            raise ValidationError(
                f"tenant {self.tenant!r} pipeline has no namespace rule for "
                f"chaincode function {function!r}"
            )

    def _namespace_selector_prefix(self, encoded: str) -> str:
        """Scope a rich-query selector's reserved ``_prefix`` to the tenant.

        Selectors match record fields, so only the key-prefix scoping hint
        needs rewriting; rows are still post-filtered to the namespace.  A
        selector without ``_prefix`` gains one covering the whole tenant
        namespace, so the candidate scan skips other tenants entirely.
        """
        try:
            selector = json.loads(encoded)
        except (TypeError, ValueError):
            return encoded
        if not isinstance(selector, dict) or not selector:
            return encoded  # malformed/empty: let the chaincode reject it
        existing = selector.get("_prefix", "")
        if not isinstance(existing, str):
            return encoded  # invalid _prefix type: chaincode rejects it
        namespaced = {**selector, "_prefix": self.prefix + existing}
        bookmark = selector.get("_bookmark", "")
        if isinstance(bookmark, str) and bookmark:
            # Bookmarks are ledger keys; clients hold them tenant-relative.
            namespaced["_bookmark"] = self.prefix + bookmark
        return sorted_json(namespaced)

    def _prefix_dependency_json(self, encoded: str) -> str:
        try:
            dependencies = json.loads(encoded)
        except (TypeError, ValueError):
            return encoded
        if not isinstance(dependencies, list):
            return encoded
        return json.dumps([self.prefix + str(dep) for dep in dependencies])

    # ------------------------------------------------------------ filtering
    def _scope_page(self, result: ReadResult) -> ReadResult:
        """Keep a scan's answer (``query``, ``getbyrange``) inside the namespace.

        Rich-query selectors match record fields, so rows of other
        namespaces are dropped here, on the rows the response carries.
        The bookmark is a ledger key and goes back tenant-relative; one
        outside the namespace raises
        :class:`~repro.common.errors.TenancyError` rather than reach the
        tenant.  A read that carries no page passes through.
        """
        response, latency = result
        page = response.scan
        if page is None:
            return result
        prefix = self.prefix
        kept = tuple([row for row in page.rows if row.key.startswith(prefix)])
        dropped = len(page.rows) - len(kept)
        if not dropped and page.bookmark is None:
            return result
        if dropped:
            self.metrics.counter("tenant.rows_filtered").inc(dropped)
        bookmark = page.bookmark
        if bookmark is not None:
            bookmark = relative_key(self.tenant, bookmark)
        return replace(response, scan=page._replace(rows=kept, bookmark=bookmark)), latency


class InFlightCounter:
    """Mutable in-flight count, shareable between pipelines.

    A service facade hands the same counter to every session of one
    tenant, so the admission cap is genuinely per tenant rather than per
    session pipeline.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class AdmissionControlMiddleware(Middleware):
    """Per-tenant cap on in-flight write submissions.

    A write is "in flight" from the moment it enters the pipeline until
    its transaction handle completes (commit or invalidation); backends
    whose writes finish synchronously release the slot immediately.  The
    cap protects the shared ordering path from a single tenant queueing
    unbounded envelopes in the endorsement batcher.  Sessions of the same
    tenant share one :class:`InFlightCounter` (see ``adopt_counter``), so
    opening more sessions does not widen the cap.
    """

    name = "admission-control"

    def __init__(
        self,
        max_in_flight: int,
        tenant: str,
        metrics: MetricsRegistry,
    ) -> None:
        if max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be >= 1 when admission is on")
        self.max_in_flight = max_in_flight
        self.tenant = tenant
        self.metrics = metrics
        self._counter = InFlightCounter()

    def adopt_counter(self, counter: InFlightCounter) -> None:
        """Share another pipeline's counter (same-tenant sessions)."""
        counter.value += self._counter.value
        self._counter = counter

    # ------------------------------------------------------------- pipeline
    def handle(self, ctx: Context, call_next: Handler) -> Result:
        if not ctx.is_write:
            return call_next(ctx)
        if self._counter.value >= self.max_in_flight:
            self.metrics.counter("admission.rejected").inc()
            raise AdmissionRejectedError(self.tenant, self.max_in_flight)
        self._counter.value += 1
        try:
            result = call_next(ctx)
        except Exception:
            self._release()
            raise
        # A handle that already completed runs the callback at once.
        result.on_complete(lambda _handle: self._release())
        return result

    def _release(self) -> None:
        self._counter.value = max(0, self._counter.value - 1)
