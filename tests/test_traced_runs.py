"""Every benchmark workload also runs traced, as its per-layer metrics do.

``kleinbench/run.py --trace 1`` rebinds the package's functions to span
wrappers that call each span's attribute table with the call's own
arguments, so a changed signature fails there and nowhere else.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_exits_cleanly_and_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "kleinbench" / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["attempted"] > 0
