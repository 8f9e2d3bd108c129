"""The benchmark's own machinery passes its self-test, and short runs of
its workloads check their pinned fingerprints."""

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


def run_workload(workload, trace):
    """Run a workload for 0.1 s at seed 0, which checks its runs against
    perfbench/fingerprints.json, and assert that every run passed."""
    proc = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
                           "--seed", "0", "--seconds", "0.1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] > 0, proc.stdout
    return result


@pytest.mark.parametrize("trace", [0, 1])
def test_tuning_workload_is_correct(trace):
    result = run_workload("tuning-nb", trace)
    if trace:
        # every miss is fitted through harness._fit_score, the span the
        # trace times a miss by
        assert result["metrics"]["harness.fit_score.ms_per_miss"]["value"] > 0


@pytest.mark.parametrize("workload", ["sphere-hraha", "rastrigin-race"])
def test_traced_benchmark_workload_is_correct(workload):
    # a traced run hides the benchmark's batch, so every evaluation of the
    # whole run goes through BenchmarkFn.__call__, the one-row form
    run_workload(workload, 1)


@pytest.mark.parametrize("workload", ["sphere-hraha", "rastrigin-race"])
def test_untraced_benchmark_workload_is_correct(workload):
    # only an untraced run takes the benchmark's batch path and checks the
    # quality panel against its fingerprints
    run_workload(workload, 0)
