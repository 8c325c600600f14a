"""The tenant key-namespace format, in one place.

The ``tenant/<name>/…`` ledger-key layout is load-bearing for four
otherwise-unrelated layers: the tenant-prefix middleware writes it, the
shard router co-locates on it and confines a tenant's reads by it, the
Fabric network records which shards hold each namespace, and the
fair-share orderer scheduler attributes transactions by it.  They all
parse the format through these helpers so a change to the scheme cannot
silently diverge.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError, TenancyError

#: Ledger-key prefix every tenant namespace lives under.
TENANT_PREFIX = "tenant/"


def tenant_namespace(tenant: str) -> str:
    """The ledger-key prefix owned by ``tenant`` (``tenant/<name>/``)."""
    if not tenant:
        raise ConfigurationError("tenant name must be non-empty")
    if "/" in tenant:
        raise ConfigurationError(f"tenant name {tenant!r} must not contain '/'")
    return f"{TENANT_PREFIX}{tenant}/"


def namespace_end(tenant: str) -> str:
    """The least string above every key in ``tenant``'s namespace.

    The exclusive end of the namespace's key range (``tenant/<name>0``):
    the bound ``WorldState`` puts on a prefix scan of ``tenant/<name>/``.
    """
    return tenant_namespace(tenant)[:-1] + chr(ord("/") + 1)


def namespace_key(tenant: str, key: str) -> str:
    """Map a tenant-relative key to its namespaced ledger key."""
    return tenant_namespace(tenant) + key


def strip_namespace(tenant: str, key: str) -> str:
    """Map a namespaced ledger key back to the tenant-relative key.

    Lenient: a key outside the namespace comes back unchanged.  What a
    tenant reads as its own goes through :func:`relative_key` instead.
    """
    prefix = tenant_namespace(tenant)
    return key[len(prefix):] if key.startswith(prefix) else key


def relative_key(tenant: str, key: str) -> str:
    """The tenant-relative form of a ledger key ``tenant`` owns.

    The strict :func:`strip_namespace`: a key outside the namespace is a
    :class:`~repro.common.errors.TenancyError`, so a leak fails where it
    happens instead of reaching the caller as a foreign key.
    """
    prefix = tenant_namespace(tenant)
    if not key.startswith(prefix):
        raise TenancyError(f"key {key!r} lies outside tenant {tenant!r}'s namespace")
    return key[len(prefix):]


def tenant_of_key(key: str) -> str:
    """The tenant owning a ledger key (``""`` for un-namespaced keys)."""
    if not key.startswith(TENANT_PREFIX):
        return ""
    remainder = key[len(TENANT_PREFIX):]
    name, _, rest = remainder.partition("/")
    return name if rest else ""


def tenant_of_prefix(prefix: str) -> str:
    """The tenant whose namespace holds every key starting with ``prefix``.

    ``""`` when no one namespace does: ``tenant/a`` also starts
    ``tenant/ab/…``, and ``tenant/`` starts every namespace.  Unlike
    :func:`tenant_of_key`, ``tenant/a/`` itself counts as inside ``a``.
    """
    if not prefix.startswith(TENANT_PREFIX):
        return ""
    name, slash, _ = prefix[len(TENANT_PREFIX):].partition("/")
    return name if slash else ""
