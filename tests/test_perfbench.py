"""The benchmark's end-to-end path runs on the package as it is: each workload's smoke
run passes every check and reports the three end-to-end metrics.

This guards what perfbench reads from the package without editing perfbench: among
others `emb.embedding.chains`, the list form of `detect_breaks` for one read,
`ising_energy` and the samplers' `backend=` keyword.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["parity", "synthetic", "calibrate"])
def test_smoke_run_passes_its_checks(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
    assert sorted(result["metrics"]) == ["peak_rss_mb", "setup_s", "wall_s"]


def test_traced_kernel_counter_sees_betas():
    # perfbench's counter takes betas at position 5 or by name: the smoke batch is 8 reads of
    # 16 spins (chain lengths' sum) at 128 sweeps, so 16,384 spin updates
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "synthetic",
                           "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert metrics["kernels.spin_updates"]["value"] == 8 * 16 * 128
