"""The CI workflow runs the whole suite a second time with numpy's AVX-512
kernels off: ``np.exp`` and ``np.log`` give other last bits under them, so a
pin that passes on one kernel set may fail on the other. Both runs list
their ten slowest tests. Each leg logs its numpy version and SIMD kernels
before any test runs. One step runs the installed package, not the
checkout's ``src/``. Its token may only read the repository."""

import itertools
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_the_whole_suite_is_rerun_without_avx512():
    # the workflow's two pytest commands: the tier-1 step's, then the rerun's
    tier1, rerun = [line.strip() for line in WORKFLOW.read_text(encoding="utf-8").splitlines()
                    if "python -m pytest" in line]
    assert "tests/" not in tier1
    assert rerun == f"NPY_DISABLE_CPU_FEATURES=X86_V4 {tier1}"


def test_both_tier1_runs_list_their_slowest_tests():
    # the log then shows how close the acceptance criteria run to their
    # wall-clock gates
    runs = [line.split() for line in WORKFLOW.read_text(encoding="utf-8").splitlines()
            if "python -m pytest" in line]
    assert len(runs) == 2
    assert all("--durations=10" in run for run in runs)


def test_the_token_may_only_read_the_repository():
    # a top-level block, so every job gets it: "permissions:" at column 0,
    # followed by exactly one indented grant
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    at = lines.index("permissions:")
    grants = list(itertools.takewhile(lambda line: line.startswith(" "), lines[at + 1:]))
    assert [g.strip() for g in grants] == ["contents: read"]
    assert sum(line.strip().startswith("permissions:") for line in lines) == 1


def test_the_installed_package_runs_outside_the_checkout():
    # after the install, from the runner's temporary directory and with no
    # PYTHONPATH, so neither src/ nor the checkout's package data is reached
    lines = [line.strip() for line in WORKFLOW.read_text(encoding="utf-8").splitlines()]
    install = lines.index('run: python -m pip install ".[test]"')
    run = lines.index("run: env -u PYTHONPATH opt bench --function sphere --dims 2 "
                      "--pop-size 4 --iters 2")
    assert install < run
    assert lines[run - 1] == "working-directory: ${{ runner.temp }}"


def test_each_leg_logs_numpy_and_its_kernels_before_the_tests():
    # a byte pin's bits follow the numpy build and the SIMD kernels it picks,
    # so the log of every leg names them, after the install and before the
    # first pytest command
    lines = [line.strip() for line in WORKFLOW.read_text(encoding="utf-8").splitlines()]
    install = lines.index('run: python -m pip install ".[test]"')
    runtime = lines.index('run: python -c "import numpy; numpy.show_runtime()"')
    first_pytest = next(i for i, line in enumerate(lines) if "python -m pytest" in line)
    assert install < runtime < first_pytest
    # a step of its own, with no condition, so both matrix legs run it
    step = lines[lines.index("- name: Numpy version and SIMD kernels"):runtime]
    assert not any(line.startswith("if:") for line in step)
