"""The benchmark's result line: `bench/run.py` must end its standard output
with its JSON result and write nothing to standard error, or no harness can
read what it measured.  A traced run must also resolve every per-layer span
target: a target missing from okv drops its metrics and leaves a "# warning"
line.  Each run takes a few seconds (one timed round)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["hull", "kernel", "tower", "modp"]


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return proc.stdout, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_run_ends_with_its_json_result(workload):
    _, result = run_bench(workload, trace=0)
    assert set(result["metrics"]) == {"ladder_s", "largest_job_s", "peak_alloc_mb", "setup_s"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_bench_run_carries_every_per_layer_metric(workload):
    stdout, result = run_bench(workload, trace=1)
    assert not [line for line in stdout.splitlines() if line.startswith("# warning")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {metric["name"] for metric in spec["per_layer"]}
