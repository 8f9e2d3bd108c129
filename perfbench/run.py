"""foxbird benchmark: one workload per call, one process, one thread.

    python3 perfbench/run.py --workload sphere-hraha --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run; README.md in this directory lists them.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The program is
imported from ``src/`` next to this directory; without it the benchmark
exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import os

# one BLAS thread, pinned before numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
DEFAULT_SEED = 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Put the checkout's ``src/`` first on the path and import foxbird."""
    if not (SRC / "foxbird" / "__init__.py").is_file():
        raise SystemExit(f"error: no foxbird sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import foxbird

    if Path(foxbird.__file__).resolve().parent != SRC / "foxbird":
        raise SystemExit(f"error: imported foxbird from {foxbird.__file__}, not {SRC}")


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def env_stamp(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "git_sha": git_sha(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    stamp = env_stamp(args)
    WORKDIR.mkdir(exist_ok=True)
    work = WORKDIR / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        t0 = time.perf_counter()
        if args.trace:
            out = measure.traced(workload, args.seconds)
        else:
            out = measure.untraced(workload, args.seconds)
        stamp["wall_s"] = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.metrics["peak_rss_mb"] = (peak, "MB")

    print("env " + json.dumps(stamp, sort_keys=True))
    for note in out.notes:
        print("note " + note)
    for error in out.errors:
        print("FAIL " + error)
    for name, (value, unit) in out.metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not out.errors,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
