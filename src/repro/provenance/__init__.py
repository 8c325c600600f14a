"""Lineage over committed records, following the Open Provenance Model."""

from repro.provenance.lineage import LineageReport, lineage_report

__all__ = ["LineageReport", "lineage_report"]
