"""Self-tests of the benchmark (``python -m pytest benchmarks/perf/tests``).

Tier-1 (``testpaths = ["tests"]``) does not collect this directory.  The
benchmark's modules are plain top-level modules next to ``run.py``, so put
that directory — and the program's ``src`` — on the path the way ``run.py``
does for itself.
"""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
REPO = PERF.parents[1]

for entry in (REPO / "src", PERF):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
