"""Cost-aware access-path planning for rich selector queries.

Given a multi-field selector, the planner chooses between three access
paths using index cardinality estimates:

``index-intersection``
    Intersect the posting lists of the selector's index-served equality
    fields (smallest first) and fetch only the surviving keys.
``prefix``
    Scope the scan to the ``_prefix`` run of the sorted key index.
``scan``
    Walk the whole key space.

Whatever the path, candidates are visited in key order and the residual
predicates are applied per document, so all three paths return the same
rows in the same order — the property the oracle equivalence tests pin.

The plan is explainable: ``QueryPlan.explain()`` is a plain dict the
chaincode embeds in the response when the reserved ``_explain`` selector
field asks for it, so tests and bench tables can assert the chosen path
instead of inferring it from timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Any, Dict, Iterable, List, Optional, Tuple

from repro.query.indexes import FieldValueIndex
from repro.query.selectors import split_selector

#: Access-path names (pinned by tests; treat as API).
PATH_INDEX = "index-intersection"
PATH_PREFIX = "prefix"
PATH_SCAN = "scan"


@dataclass(frozen=True)
class QueryPlan:
    """The chosen access path for one selector query."""

    access_path: str
    #: Index-served equality fields, in posting-size order (smallest first).
    indexed_fields: Tuple[str, ...] = ()
    #: Selector fields evaluated per document after candidate fetch.
    residual_fields: Tuple[str, ...] = ()
    #: Candidate keys the chosen path expects to visit (cost estimate).
    estimated_candidates: int = 0
    #: Candidate keys a plain scan of the selector scope would visit.
    scan_candidates: int = 0
    prefix: str = ""
    limit: int = 0
    bookmark: str = ""
    #: Per-field posting sizes backing the estimate (explain output).
    cardinalities: Dict[str, int] = field(default_factory=dict)

    def explain(self) -> Dict[str, Any]:
        """JSON-ready description of the plan (embedded on ``_explain``)."""
        plan: Dict[str, Any] = {
            "access_path": self.access_path,
            "estimated_candidates": self.estimated_candidates,
            "scan_candidates": self.scan_candidates,
            "residual_fields": sorted(self.residual_fields),
        }
        if self.indexed_fields:
            plan["indexed_fields"] = list(self.indexed_fields)
            plan["cardinalities"] = {
                name: self.cardinalities[name] for name in sorted(self.cardinalities)
            }
        if self.prefix:
            plan["prefix"] = self.prefix
        if self.limit:
            plan["limit"] = self.limit
        if self.bookmark:
            plan["bookmark"] = self.bookmark
        return plan


def build_plan(
    selector: Dict[str, Any],
    *,
    index: Optional[FieldValueIndex],
    total_keys: int,
    prefix: str = "",
    prefix_keys: Optional[int] = None,
    limit: int = 0,
    bookmark: str = "",
) -> QueryPlan:
    """Choose the cheapest access path for ``selector``.

    ``selector`` must already have its reserved fields stripped.
    ``prefix_keys`` is the scope size of the ``_prefix`` run (estimated by
    the world state's bucket index); ``total_keys`` the full key count.
    The cost model is simply "visit the fewest candidate keys": the
    smallest posting list of the index-served equalities against the
    scan scope — an upper bound on the intersection, which only shrinks.
    """
    scan_scope = prefix_keys if (prefix and prefix_keys is not None) else total_keys
    fallback_path = PATH_PREFIX if prefix else PATH_SCAN

    indexed: Dict[str, Any] = {}
    if index is not None:
        indexed, residual = split_selector(selector, index.covers)
    else:
        residual = dict(selector)

    if not indexed:
        return QueryPlan(
            access_path=fallback_path,
            residual_fields=tuple(residual),
            estimated_candidates=scan_scope,
            scan_candidates=scan_scope,
            prefix=prefix,
            limit=limit,
            bookmark=bookmark,
        )

    cardinalities = {
        name: index.cardinality(name, expected) for name, expected in indexed.items()
    }
    ordered = tuple(sorted(indexed, key=lambda name: (cardinalities[name], name)))
    smallest = cardinalities[ordered[0]]

    if smallest >= scan_scope:
        # The tightest posting list is no better than just scanning the
        # scope; fold the indexed equalities back into the residual check.
        merged_residual = dict(residual)
        merged_residual.update(indexed)
        return QueryPlan(
            access_path=fallback_path,
            residual_fields=tuple(merged_residual),
            estimated_candidates=scan_scope,
            scan_candidates=scan_scope,
            prefix=prefix,
            limit=limit,
            bookmark=bookmark,
            cardinalities=cardinalities,
        )

    return QueryPlan(
        access_path=PATH_INDEX,
        indexed_fields=ordered,
        residual_fields=tuple(residual),
        estimated_candidates=smallest,
        scan_candidates=scan_scope,
        prefix=prefix,
        limit=limit,
        bookmark=bookmark,
        cardinalities=cardinalities,
    )


def intersect_keys(
    index: FieldValueIndex,
    plan: QueryPlan,
    selector: Dict[str, Any],
) -> List[str]:
    """Sorted candidate keys for an ``index-intersection`` plan.

    Intersects posting lists smallest-first (the plan ordered them), cuts
    the survivors to the prefix scope and past the bookmark, and sorts
    what is left: the keys come back in the order the scan paths visit
    them.
    """
    survivors: Optional[AbstractSet[str]] = None
    for name in plan.indexed_fields:
        posting = index.lookup(name, selector[name])
        if not posting:
            return []
        # Postings are the index's own sets: intersect into a new one.
        survivors = posting if survivors is None else survivors & posting
        if not survivors:
            return []
    assert survivors is not None
    keys: Iterable[str] = survivors
    if plan.prefix:
        keys = [key for key in keys if key.startswith(plan.prefix)]
    if plan.bookmark:
        keys = [key for key in keys if key > plan.bookmark]
    return sorted(keys)
