"""`repro` runs on the standard library alone: pyproject declares no runtime
dependency, and importing every module must not load anything installed.

The rule is the loaded module's file location, not
``sys.stdlib_module_names``, which Python 3.9 lacks.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORT_EVERYTHING = """
import importlib, json, pkgutil, sys
from pathlib import Path

already = set(sys.modules)
import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith(".__main__"):
        importlib.import_module(info.name)
installed = sorted(
    name
    for name, module in sys.modules.items()
    if name not in already
    and {"site-packages", "dist-packages"} & set(Path(getattr(module, "__file__", None) or "").parts)
)
print(json.dumps({"modules": sum(name.startswith("repro") for name in sys.modules),
                  "installed": installed}))
"""


def test_importing_every_repro_module_loads_nothing_installed():
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_EVERYTHING],
        cwd=SRC,
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert loaded["modules"] > 100
    assert loaded["installed"] == []
