"""Rules D101–D104 against the fixture corpus: exact ids and lines."""

from __future__ import annotations

from repro.analysis.core import AnalysisContext
from repro.analysis.determinism import check_determinism

from .conftest import pairs


def test_wallclock_and_env_exact_lines(bad_context):
    findings = check_determinism(bad_context)
    assert pairs(findings, "simx/wallclock.py") == [
        ("D101", 10),  # time.time()
        ("D101", 11),  # time.monotonic()
        ("D101", 12),  # datetime.now() via `from datetime import datetime`
        ("D104", 21),  # os.environ[...]
        ("D104", 22),  # platform.system()
        ("D104", 23),  # os.cpu_count()
    ]


def test_allow_wallclock_pragma_suppresses(bad_context):
    findings = check_determinism(bad_context)
    # Line 17 is time.perf_counter() under `# repro: allow-wallclock`.
    assert all(
        f.line != 17 for f in findings if f.path.endswith("simx/wallclock.py")
    )


def test_unseeded_randomness_exact_lines(bad_context):
    findings = check_determinism(bad_context)
    assert pairs(findings, "simx/randomness.py") == [
        ("D102", 9),  # random.random()
        ("D102", 10),  # zero-arg random.Random()
        ("D102", 11),  # uuid.uuid4()
        ("D102", 12),  # os.urandom()
    ]
    # random.Random(seed) on line 18 is the sanctioned construction.
    assert all(
        f.line != 18 for f in findings if f.path.endswith("simx/randomness.py")
    )


def test_ordering_exact_lines(bad_context):
    findings = check_determinism(bad_context)
    assert pairs(findings, "simx/ordering.py") == [
        ("D103", 6),  # for over a set (via one-level flow tracking)
        ("D103", 8),  # comprehension over a set
        ("D103", 13),  # list(a_set)
        ("D103", 14),  # ",".join(a_set)
        ("D103", 19),  # sorted(..., key=id)
        ("D103", 23),  # builtin hash() outside __hash__
    ]
    # hash() inside __hash__ (line 31) and sorted(a_set) (line 36) are fine.
    lines = {f.line for f in findings if f.path.endswith("simx/ordering.py")}
    assert 31 not in lines and 36 not in lines


def test_findings_carry_symbol_and_hint(bad_context):
    findings = check_determinism(bad_context)
    first = next(
        f
        for f in findings
        if f.path.endswith("simx/wallclock.py") and f.line == 10
    )
    assert first.symbol == "stamp"
    assert "allow-wallclock" in first.hint
    assert first.render().startswith(
        "src/repro/simx/wallclock.py:10: D101 [stamp]"
    )


def test_bench_paths_exempt_from_wallclock_but_not_randomness(tmp_path):
    bench = tmp_path / "src" / "repro" / "bench"
    bench.mkdir(parents=True)
    (bench / "timing.py").write_text(
        "import random\n"
        "import time\n"
        "\n"
        "\n"
        "def measure():\n"
        "    start = time.perf_counter()\n"  # D101-exempt path
        "    jitter = random.random()\n"  # D102 applies everywhere
        "    return start, jitter\n",
        encoding="utf-8",
    )
    context = AnalysisContext.load(tmp_path)
    assert pairs(check_determinism(context)) == [("D102", 7)]


def test_pragma_on_line_above_also_suppresses(tmp_path):
    module = tmp_path / "src" / "repro" / "simulation"
    module.mkdir(parents=True)
    (module / "probe.py").write_text(
        "import time\n"
        "\n"
        "\n"
        "def probe():\n"
        "    # repro: allow-wallclock\n"
        "    return time.monotonic()\n",
        encoding="utf-8",
    )
    context = AnalysisContext.load(tmp_path)
    assert check_determinism(context) == []
