"""The benchmark's result line: `bench/run.py` must end its standard output
with its JSON result and write nothing to standard error, or no harness can
read what it measured.  Each run takes a few seconds (one timed round)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["kernel", "tower", "modp"])
def test_bench_run_ends_with_its_json_result(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == {"ladder_s", "largest_job_s", "peak_alloc_mb", "setup_s"}
