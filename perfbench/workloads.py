"""The three workloads: inputs, timed units, quality panel and checks.

A *unit* is the smallest piece a run times: one HRAHA run on
``sphere-hraha``, one ``opt run`` call racing four methods on
``rastrigin-race``, and one seed's pair of set-up-plus-run for HRAHA and
random search on ``tuning-nb``. Unit ``i`` under workload seed ``s`` seeds
its optimizers from the master seed ``s * 1_000_000 + i`` exactly as the
harness does (``child_rng(master, method_index, 0)``), so the units of seed
0 are the runs whose fingerprints ``fingerprints.json`` pins.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from foxbird import cli, harness

import corpus
from refclock import Timer
from spans import Tracer

_clock = time.perf_counter

POP, ITERS = 30, 500            # sphere-hraha and rastrigin-race
TUNE_POP, TUNE_ITERS = 20, 30   # tuning-nb HRAHA
TUNE_RANDOM_BUDGET = 600        # tuning-nb random search
RACE_METHODS = ("hraha", "aha", "rfo", "pso")
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


def master_seed(seed: int, i: int) -> int:
    return seed * 1_000_000 + i


def fingerprint(result) -> str:
    payload = repr((repr(float(result.best_fitness)),
                    [float(h) for h in result.history],
                    int(result.evaluations)))
    return hashlib.sha256(payload.encode()).hexdigest()


def invariant_errors(result, box, objective) -> list[str]:
    """The result invariants that hold for every seed."""
    errors = []
    h = np.asarray(result.history, dtype=float)
    if h.size == 0 or not np.all(np.isfinite(h)):
        errors.append("history empty or not finite")
    elif np.any(np.diff(h) > 0):
        errors.append("history increases")
    elif float(result.best_fitness) != h[-1]:
        errors.append("best_fitness differs from the last history entry")
    x = np.asarray(result.best_position, dtype=float)
    if x.shape != box.lower.shape or np.any(x < box.lower) or np.any(x > box.upper):
        errors.append("best point outside the box")
    elif float(objective(x)) != float(result.best_fitness):
        errors.append("objective at the best point differs from best_fitness")
    return errors


@dataclass
class Run:
    """One optimizer run (one method, one seed)."""

    key: str            # "<method>/<unit index>"
    seconds: float
    result: object
    box: object
    objective: object   # untraced objective, for re-checking the best point
    counted: int | None = None  # objective calls seen by a wrapper, if any


@dataclass
class Unit:
    runs: list[Run]
    run_s: list[tuple]                  # (wall, rescaled) samples for run_s.*
    setup_s: list[tuple] = field(default_factory=list)  # (wall, rescaled)
    hashes: dict[str, str] = field(default_factory=dict)  # extra pinned outputs
    errors: list[str] = field(default_factory=list)       # unit-level failures
    report_bytes: int = 0


class _Recorder:
    """Counts objective calls and notes the first that reaches a target."""

    def __init__(self, fn, target: float):
        self.fn = fn
        self.target = target
        self.calls = 0
        self.hit_at = None

    def __call__(self, x) -> float:
        f = self.fn(x)
        self.calls += 1
        if self.hit_at is None and f <= self.target:
            self.hit_at = self.calls
        return f


class _Proxy:
    """A benchmark whose calls go through a traced wrapper."""

    def __init__(self, bench, call):
        self.space = bench.space
        self._call = call

    def __call__(self, x) -> float:
        return self._call(x)


def _timed_setup(timer: Timer, build, reps: int) -> tuple:
    """(wall, rescaled) seconds per call of a set-up too quick to time once."""
    def batch():
        for _ in range(reps):
            build()
    _, wall, scaled = timer(batch)
    return wall / reps, scaled / reps


class Workload:
    name = ""
    panel = 0               # units of seed 0 whose outputs are pinned
    methods = 1             # optimizer runs per unit
    target = 0.0            # evals_to_target threshold for the quality panel

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.timer = Timer()

    def setup_samples(self) -> list[tuple]:
        return []

    def prepare(self) -> list[str]:
        """One-time preparation for a window; returns check failures."""
        return []

    def unit(self, i: int, tracer: Tracer | None = None) -> Unit:
        raise NotImplementedError

    def quality_run(self, i: int):
        """The HRAHA run of panel unit ``i`` (seed 0) with a recording
        objective; returns (result, box, recorder)."""
        raise NotImplementedError


class SphereHraha(Workload):
    name = "sphere-hraha"
    panel = 10
    target = 1e-3

    def _build(self):
        bench = harness.get_benchmark("sphere")
        return bench, bench.space(10)

    def setup_samples(self):
        return [_timed_setup(self.timer, self._build, 2000) for _ in range(7)]

    def unit(self, i, tracer=None):
        bench, box = self._build()
        obj = bench if tracer is None else tracer.wrap(bench, "benchmarks.objective")
        before = tracer.calls("benchmarks.objective") if tracer else 0
        rng = harness.child_rng(master_seed(self.seed, i), 0, 0)
        result, dt, scaled = self.timer(harness.run_method, "hraha", obj, box, POP, ITERS, rng)
        counted = tracer.calls("benchmarks.objective") - before if tracer else None
        return Unit([Run(f"hraha/{i}", dt, result, box, bench, counted)], [(dt, scaled)])

    def quality_run(self, i):
        bench, box = self._build()
        rec = _Recorder(bench, self.target)
        rng = harness.child_rng(master_seed(0, i), 0, 0)
        return harness.run_method("hraha", rec, box, POP, ITERS, rng), box, rec


class RastriginRace(Workload):
    name = "rastrigin-race"
    panel = 6
    methods = len(RACE_METHODS)
    target = 20.0

    def _config_path(self) -> Path:
        return self.workdir / "race.json"

    def _build(self):
        bench = harness.get_benchmark("rastrigin")
        return bench, bench.space(10)

    def setup_samples(self):
        return [_timed_setup(self.timer, self._build, 2000) for _ in range(7)]

    def prepare(self):
        config = {
            "task": {"kind": "benchmark", "function": "rastrigin", "dims": 10},
            "methods": list(RACE_METHODS),
            "budget": {"pop_size": POP, "iterations": ITERS},
            "seeds": {"count": 1, "master_seed": 0},
        }
        self._config_path().write_text(json.dumps(config), encoding="utf-8")
        return []

    def unit(self, i, tracer=None):
        bench = harness.get_benchmark("rastrigin")
        master = master_seed(self.seed, i)
        out = self.workdir / "race"
        captured = []
        run_method = harness.run_method
        get_benchmark = harness.get_benchmark

        def capture(method, obj, space, pop_size, iterations, rng):
            before = tracer.calls("benchmarks.objective") if tracer else 0
            t0 = _clock()
            result = run_method(method, obj, space, pop_size, iterations, rng)
            dt = _clock() - t0
            counted = tracer.calls("benchmarks.objective") - before if tracer else None
            captured.append(Run(f"{method}/{i}", dt, result, space, bench, counted))
            return result

        main = cli.main if tracer is None else tracer.wrap(cli.main, "cli.main")
        harness.run_method = capture
        if tracer is not None:
            traced_obj = _Proxy(bench, tracer.wrap(bench, "benchmarks.objective"))
            harness.get_benchmark = lambda name: traced_obj
        argv = ["run", "--config", str(self._config_path()), "--seed", str(master),
                "--out", str(out)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code, dt, scaled = self.timer(main, argv)
        finally:
            harness.run_method = run_method
            harness.get_benchmark = get_benchmark
        unit = Unit(captured, [(dt, scaled)])
        if code != 0:
            unit.errors.append(f"opt run exited {code}")
            return unit
        if [r.key.split("/")[0] for r in captured] != list(RACE_METHODS):
            unit.errors.append("opt run did not race the four methods in order")
        raw = {name: (out / name).read_bytes()
               for name in ("report.csv", "report.json", "report.txt")}
        unit.report_bytes = sum(len(b) for b in raw.values())
        for name in ("report.csv", "report.json"):
            unit.hashes[f"{name}/{i}"] = hashlib.sha256(raw[name]).hexdigest()
        rows = json.loads(raw["report.json"])["rows"]
        for run in captured:
            method = run.key.split("/")[0]
            if rows.get(method, {}).get("best_fitness") != float(run.result.best_fitness):
                unit.errors.append(f"report.json best_fitness of {method} differs from its run")
        return unit

    def quality_run(self, i):
        bench = harness.get_benchmark("rastrigin")
        box = bench.space(10)
        rec = _Recorder(bench, self.target)
        rng = harness.child_rng(master_seed(0, i), 0, 0)
        return harness.run_method("hraha", rec, box, POP, ITERS, rng), box, rec


class TuningNB(Workload):
    name = "tuning-nb"
    panel = 4
    methods = 2
    target = 0.73
    # One corpus instance for every workload seed, as the other workloads
    # have one objective: the cost of a miss varied by up to 30% between
    # corpora drawn from different seeds, which would swamp run-to-run
    # comparisons. The workload seed drives the optimizers.
    CORPUS_SEED = 0
    # grid over the hyperparameter box for the discrimination check
    GRID = list(itertools.product((1, 2, 4), (10, 100, 400, 2000), (0.5, 1.5),
                                  (0.01, 0.5, 5.0)))

    def _build(self):
        """Generate the corpus, load it and build one objective: the set-up
        every tuning run pays, since each run gets its own objective."""
        path = self.workdir / "corpus.csv"
        corpus.write_csv(corpus.generate(self.CORPUS_SEED), path)
        labeled = harness.load_corpus(str(path))
        space = harness.default_tuning_space()
        return harness.classifier_objective(labeled, space), space.to_box()

    def prepare(self):
        obj, _ = self._build()
        values = [obj(np.array(g, dtype=float)) for g in self.GRID]
        top = max(values.count(v) for v in set(values)) / len(values)
        self.grid_top_share = top
        if top > 0.5:
            return [f"one fitness covers {top:.0%} of the {len(values)}-point grid"]
        return []

    def unit(self, i, tracer=None):
        master = master_seed(self.seed, i)
        runs, run_s, setup_s = [], [], []
        for mi, method in enumerate(("hraha", "random")):
            (obj, box), dt, scaled = self.timer(self._build)
            setup_s.append((dt, scaled))
            call = obj if tracer is None else tracer.wrap(obj, "harness.objective")
            calls0 = tracer.calls("harness.objective") if tracer else 0
            misses0 = tracer.calls("textpipe.build_vocabulary") if tracer else 0
            rng = harness.child_rng(master, mi, 0)
            if method == "hraha":
                result, dt, scaled = self.timer(harness.run_method, "hraha", call, box,
                                                TUNE_POP, TUNE_ITERS, rng)
            else:
                result, dt, scaled = self.timer(harness.run_random_search, call, box,
                                                TUNE_RANDOM_BUDGET, rng)
            counted = None
            if tracer is not None:
                counted = tracer.calls("harness.objective") - calls0
                tracer.count(f"objective.{method}.calls", counted)
                tracer.count(f"objective.{method}.misses",
                             tracer.calls("textpipe.build_vocabulary") - misses0)
            runs.append(Run(f"{method}/{i}", dt, result, box, obj, counted))
            run_s.append((dt, scaled))
        return Unit(runs, run_s, setup_s)

    def quality_run(self, i):
        obj, box = self._build()
        rec = _Recorder(obj, self.target)
        rng = harness.child_rng(master_seed(0, i), 0, 0)
        result = harness.run_method("hraha", rec, box, TUNE_POP, TUNE_ITERS, rng)
        return result, box, rec


WORKLOADS = {w.name: w for w in (SphereHraha, RastriginRace, TuningNB)}


def evals_to_target(rec: _Recorder, result) -> int:
    """COCO-style runtime: the evaluation at which best-so-far first reached
    the target, or the run's budget plus one if it never did."""
    return rec.hit_at if rec.hit_at is not None else int(result.evaluations) + 1


def load_pinned() -> dict:
    return json.loads(FINGERPRINTS.read_text(encoding="utf-8"))


def pinned_outputs(unit: Unit) -> dict[str, str]:
    out = {run.key: fingerprint(run.result) for run in unit.runs}
    out.update(unit.hashes)
    return out
