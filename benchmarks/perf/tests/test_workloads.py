"""Each workload, end to end through ``run.py`` in a fresh process."""

import json
import shutil
import subprocess
import sys
import time

import pytest

import probes
import run


def _run(*arguments, cwd=run.REPO):
    begin = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=False,
    )
    return completed, time.perf_counter() - begin


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_completes_quickly_and_correctly_at_small_scale(workload):
    completed, elapsed = _run("--workload", workload, "--scale", "0.02", "--seed", "9")
    assert completed.returncode == 0, completed.stderr
    assert elapsed < 10.0
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric_and_a_chrome_trace(tmp_path):
    trace = tmp_path / "trace.json"
    report = tmp_path / "report.jsonl"
    completed, _ = _run("--workload", "ingest", "--scale", "0.02", "--trace", "1",
                        "--trace-out", str(trace), "--out", str(report))
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert {n: m["unit"] for n, m in result["metrics"].items()} == probes.PER_LAYER_UNITS
    assert result["metrics"]["trace.unattributed_share"]["value"] <= 0.10
    assert result["metrics"]["consensus.txs_per_block"]["value"] > 1.0
    events = json.loads(trace.read_text())["traceEvents"]
    assert {"api.submit", "fabric.peer.endorse", "chaincode.invoke"} <= {e["name"] for e in events}
    full = json.loads(report.read_text().splitlines()[-1])
    assert full["workload"] == "ingest" and full["failed_share"] == 0.0 and "noisy" in full


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert completed.returncode != 0
    assert "{" not in completed.stdout


def test_compare_accepts_a_set_against_itself_and_rejects_a_shifted_one(tmp_path):
    first = tmp_path / "a.jsonl"
    _run("--workload", "ingest", "--scale", "0.02", "--out", str(first))
    report = json.loads(first.read_text())
    report["metrics"]["ops_per_s"]["value"] *= 1.5
    second = tmp_path / "b.jsonl"
    second.write_text(json.dumps(report) + "\n")

    def compare(a, b):
        return subprocess.run([sys.executable, str(run.HERE / "compare.py"), str(a), str(b)],
                              capture_output=True, text=True, check=False)

    assert compare(first, first).returncode == 0
    shifted = compare(first, second)
    assert shifted.returncode == 1
    assert "ingest.ops_per_s: B/A = 1.5000" in shifted.stdout
