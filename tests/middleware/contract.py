"""Fake terminal answers in the only two shapes a pipeline returns, and
the collaborators every pipeline link is handed.

A read answers ``(ProposalResponse, latency_s)``; a write answers the
``TransactionHandle`` its commit completes (``repro.middleware.base.Result``).
"""

from repro.common.events import EventBus
from repro.common.metrics import MetricsRegistry
from repro.fabric.proposal import ProposalResponse, TransactionHandle
from repro.ledger.scan import HistoryPage, ScanPage
from repro.ledger.transaction import ReadWriteSet
from repro.simulation.engine import SimulationEngine


def collaborators():
    """Fresh ``events``, ``metrics``, ``engine`` and ``placement``, by name.

    The keyword arguments ``build_client_pipeline`` takes, and what a test
    hands a single middleware: an empty bus and registry, an engine at
    virtual time 0, and a placement in which no tenant has written on any
    shard (a tenant's read asks its namespace owner alone).
    """
    return {
        "events": EventBus(),
        "metrics": MetricsRegistry(),
        "engine": SimulationEngine(),
        "placement": lambda tenant: frozenset(),
    }


def response_with(answer):
    """A peer response carrying ``answer``: a page, a payload string, or ``None``.

    A present endorsement marks the response ok (``is_ok`` semantics); a
    shard missing the key answers with none, like a failed endorsement.
    A scan or a key history answers with its page and no payload string.
    """
    scan = answer if isinstance(answer, ScanPage) else None
    history = answer if isinstance(answer, HistoryPage) else None
    payload = answer if isinstance(answer, str) else None
    endorsement = object() if answer is not None else None
    status = 200 if answer is not None else 500
    return ProposalResponse(
        tx_id="t", peer="p", status=status, payload=payload, message="",
        rw_set=ReadWriteSet(), endorsement=endorsement, produced_at=0.0,
        scan=scan, history=history,
    )


def answer(ctx):
    """A terminal's result for ``ctx``: an ok read after 0.1 s, or a fresh handle."""
    if ctx.is_read:
        return response_with("payload"), 0.1
    return TransactionHandle(tx_id="tx-1", submitted_at=0.0, function=ctx.function)
