"""The benchmark's own machinery passes its self-test, and the tuning
workload's short runs check their pinned fingerprints."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SELFTEST = PERFBENCH / "selftest.py"


def test_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("trace", [0, 1])
def test_tuning_workload_is_correct(trace):
    # seed 0 checks the tuning runs against perfbench/fingerprints.json
    proc = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--workload", "tuning-nb",
                           "--seed", "0", "--seconds", "0.1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] > 0, proc.stdout
