"""Self-test of the benchmark's own machinery (not of foxbird).

    python3 perfbench/selftest.py

It checks that a perturbed result is counted as failed, and that the self
times of nested spans add up to the duration of the span around them.
Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import sys
import time

import run


def spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def check_perturbed_result_fails() -> list[str]:
    from measure import Outcome, _check_unit
    from workloads import Run, SphereHraha, Unit, fingerprint

    from foxbird import harness

    wl = SphereHraha(run.WORKDIR, 0)
    bench, box = wl._build()
    result = harness.run_method("hraha", bench, box, 6, 5, harness.child_rng(0, 0, 0))
    pinned = {"hraha/0": fingerprint(result)}
    failures = []
    perturbed = {
        "unchanged": result,
        "best_fitness": dataclasses.replace(result, best_fitness=result.best_fitness * 0.5),
        "history": dataclasses.replace(result, history=result.history[:-1] + [result.history[0] + 1]),
        "evaluations": dataclasses.replace(result, evaluations=result.evaluations + 1),
        "best_position": dataclasses.replace(result, best_position=box.upper + 1.0),
    }
    for what, res in perturbed.items():
        out = Outcome()
        _check_unit(out, wl, 0, Unit([Run("hraha/0", 1.0, res, box, bench)], [(1.0, 1.0)]), pinned)
        want = 0 if what == "unchanged" else 1
        if (out.attempted, out.failed) != (1, want):
            failures.append(f"{what}: attempted={out.attempted} failed={out.failed}, "
                            f"want 1 and {want}")
    # a unit whose optimizer raised counts all its runs as failed
    out = Outcome()

    class Broken(SphereHraha):
        def unit(self, i, tracer=None):
            raise RuntimeError("boom")

    from measure import _run_unit
    if _run_unit(out, Broken(run.WORKDIR, 0), 0) is not None or out.failed != 1:
        failures.append("a raising unit was not counted as failed")
    return failures


def check_self_times_add_up() -> list[str]:
    from spans import Tracer

    tracer = Tracer()
    inner_leaf = tracer.wrap(lambda: spin(0.002), "inner_leaf")
    outer_leaf = tracer.wrap(lambda: spin(0.002), "outer_leaf")

    def middle_body():
        spin(0.001)
        inner_leaf()
        inner_leaf()

    middle = tracer.wrap(middle_body, "middle")

    def root_body():
        middle()
        outer_leaf()
        spin(0.001)

    tracer.wrap(root_body, "root")()
    calls, total, self_s = {}, {}, {}
    for name, (c, t, s) in tracer.stats.items():
        calls[name], total[name], self_s[name] = c, t, s
    failures = []
    if abs(tracer.self_time_total() - total["root"]) > 1e-12:
        failures.append(f"self times sum to {tracer.self_time_total()!r}, "
                        f"root took {total['root']!r}")
    if abs(self_s["middle"] - (total["middle"] - total["inner_leaf"])) > 1e-12:
        failures.append("middle's self time does not exclude its two leaf spans")
    if abs(self_s["root"] - (total["root"] - total["middle"] - total["outer_leaf"])) > 1e-12:
        failures.append("root's self time does not exclude its direct children only")
    if calls["inner_leaf"] != 2 or abs(total["inner_leaf"] - self_s["inner_leaf"]) > 1e-12:
        failures.append("a leaf span's self time differs from its duration")
    if not self_s["middle"] >= 0.001:
        failures.append("middle's own spin is missing from its self time")
    return failures


def main() -> int:
    run.import_program()
    failures = check_perturbed_result_fails() + check_self_times_add_up()
    for f in failures:
        print("FAIL " + f)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
