"""Static-analysis pass for the reproduction's determinism and
architecture invariants.

Pure stdlib (``ast``) — this package imports nothing else from
``repro`` so it can analyze a broken tree without importing it.  Run as
``python -m repro.analysis``: it prints every finding and exits 1 if
there is one; an inline pragma is the only suppression.  See
``docs/determinism.md`` for the rule catalogue.
"""

from repro.analysis.cli import CHECKERS, main, run_analysis
from repro.analysis.core import RULES, AnalysisContext, Finding, SourceFile

__all__ = [
    "AnalysisContext",
    "CHECKERS",
    "Finding",
    "RULES",
    "SourceFile",
    "main",
    "run_analysis",
]
