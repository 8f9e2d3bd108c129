"""The CI workflow reruns every test file that pins bytes with numpy's
AVX-512 kernels off: ``np.exp`` and ``np.log`` give other last bits under
them, so a pin that passes on one kernel set may fail on the other."""

import hashlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# a quoted hex digest (32 hex digits or more: MD5, SHA-1, SHA-256) or a
# quoted hex float, as float.hex() writes one
PIN = re.compile(r"""["'](?:[0-9a-f]{32,}|[-+]?0x[01](?:\.[0-9a-f]*)?p[-+]?\d+)["']""")


def rerun_files(workflow: str) -> set[str]:
    """The test files named on the command that sets
    NPY_DISABLE_CPU_FEATURES=X86_V4, over its backslash-continued lines."""
    lines = workflow.splitlines()
    start = next(i for i, line in enumerate(lines) if "NPY_DISABLE_CPU_FEATURES=X86_V4" in line)
    command = [lines[start]]
    while command[-1].rstrip().endswith("\\"):
        command.append(lines[start + len(command)])
    return set(re.findall(r"tests/\w+\.py", " ".join(command)))


def pinning_files() -> set[str]:
    return {f"tests/{p.name}" for p in (ROOT / "tests").glob("test_*.py")
            if PIN.search(p.read_text(encoding="utf-8"))}


def test_the_pin_pattern_finds_the_known_pins():
    assert {"tests/test_cli.py", "tests/test_fingerprints.py",
            "tests/test_harness.py"} <= pinning_files()
    # built here, so this file holds no pin of its own
    for pin in (hashlib.sha256(b"").hexdigest(), (-3.14).hex(), (0.0).hex(), (1e-310).hex()):
        assert PIN.search(repr(pin)), pin
    assert not PIN.search(repr("0x1f")) and not PIN.search(repr("deadbeef"))


def test_every_pinning_test_file_is_rerun_without_avx512():
    rerun = rerun_files(WORKFLOW.read_text(encoding="utf-8"))
    assert sorted(pinning_files() - rerun) == []
