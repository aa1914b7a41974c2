"""Every benchmark workload runs against this checkout at the tiny scale.

The benchmark (``perfbench/``, declared in ``BENCHMARK.json``) imports
public names of ``repro``; renaming one of them fails here, not only
when the benchmark runs.
"""
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_benchmark_run_passes_its_checks(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--size", "tiny", "--seconds", "0.5", "--trace", "0", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
