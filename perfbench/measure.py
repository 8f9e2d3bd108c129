"""The measuring loops: an untraced run for end-to-end metrics and a traced
run for per-layer metrics, each checking every result it produces."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from foxbird import baselines, cli, harness, hraha, textpipe

import spans
from workloads import evals_to_target, fingerprint, invariant_errors, load_pinned

_clock = time.perf_counter


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def record(self, what: str, errors: list[str]) -> None:
        """Count one run; a run with any error counts as failed."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{what}: {e}" for e in errors)


def tail(samples) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, never
    below the median."""
    n = len(samples)
    p = max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50
    return float(np.percentile(samples, p)), p


def _check_unit(out: Outcome, wl, i: int, unit, pinned: dict) -> None:
    check_pins = wl.seed == 0 and i < wl.panel
    unit_errors = list(unit.errors)
    for key, digest in unit.hashes.items():
        if check_pins and pinned.get(key) != digest:
            unit_errors.append(f"{key} differs from fingerprints.json")
    if not unit.runs:
        for _ in range(wl.methods):
            out.record(f"{wl.name} unit {i}", unit_errors or ["no runs"])
    for run in unit.runs:
        # a unit-level failure (exit code, report) fails each of its runs
        errors = unit_errors + invariant_errors(run.result, run.box, run.objective)
        if run.counted is not None and run.counted != run.result.evaluations:
            errors.append(f"evaluations {run.result.evaluations} != "
                          f"{run.counted} objective calls traced")
        if check_pins and pinned.get(run.key) != fingerprint(run.result):
            errors.append("fingerprint differs from fingerprints.json")
        out.record(f"{wl.name} {run.key}", errors)


def _run_unit(out: Outcome, wl, i: int, tracer=None, unit=None):
    """One unit (``wl.unit`` unless given); an exception fails all of its
    runs and the loop goes on."""
    try:
        return (unit or wl.unit)(i, tracer)
    except Exception as e:  # noqa: BLE001 - a failed run is counted, not fatal
        out.attempted += wl.methods
        out.failed += wl.methods
        out.errors.append(f"{wl.name} unit {i}: {type(e).__name__}: {e}")
        return None


def _quality(out: Outcome, wl, pinned: dict):
    """HRAHA on the pinned panel (the default seed's first units)."""
    best, ett = [], []
    for i in range(wl.panel):
        result, box, rec = wl.quality_run(i)
        errors = invariant_errors(result, box, rec.fn)
        if rec.calls != result.evaluations:
            errors.append(f"evaluations {result.evaluations} != {rec.calls} objective calls")
        if pinned.get(f"hraha/{i}") != fingerprint(result):
            errors.append("fingerprint differs from fingerprints.json")
        out.record(f"{wl.name} panel hraha/{i}", errors)
        best.append(float(result.best_fitness))
        ett.append(evals_to_target(rec, result))
    return best, ett


def untraced(wl, seconds: float) -> Outcome:
    out = Outcome()
    pinned = load_pinned()[wl.name]
    out.errors += wl.prepare()
    best, ett = _quality(out, wl, pinned)   # also warms up before timing
    setup = wl.setup_samples()

    # keep only the timings of checked units, so that results and objectives
    # are freed and peak_rss_mb does not grow with the number of units
    timed, rates, evals = [], [], 0
    deadline = _clock() + seconds
    i = 0
    while i == 0 or _clock() < deadline:
        unit = _run_unit(out, wl, i)
        if unit is not None:
            _check_unit(out, wl, i, unit, pinned)
            timed += unit.run_s
            setup += unit.setup_s
            n = sum(r.result.evaluations for r in unit.runs)
            rates.append(n / sum(x for _, x in unit.run_s))
            evals += n
        i += 1

    if not timed or not setup:
        out.errors.append("no unit completed")
        return out
    wall = [w for w, _ in timed]
    run_s = [r for _, r in timed]
    setup_wall = [w for w, _ in setup]
    setup = [r for _, r in setup]
    tail_s, p = tail(run_s)
    m = out.metrics
    m["setup_s"] = (float(np.median(setup)), "s")
    m["run_s.p50"] = (float(np.median(run_s)), "s")
    m["run_s.tail"] = (tail_s, "s")
    m["evals_per_s"] = (float(np.median(rates)), "1/s")
    m["evals_to_target.p50"] = (float(np.median(ett)), "count")
    m["best_f.p50"] = (float(np.median(best)), "1")
    out.notes += [
        f"run_s.tail is p{p} of {len(run_s)} runs; setup_s is the median of {len(setup)} set-ups",
        f"times are rescaled to the reference speed; wall-clock: setup_s "
        f"{np.median(setup_wall):.6g} s, run_s.p50 {np.median(wall):.6g} s, run_s.tail "
        f"{tail(wall)[0]:.6g} s, evaluations per second over all runs {evals / sum(wall):.6g}",
        f"quality panel: {wl.panel} HRAHA runs of seed 0; target {wl.target:g}; "
        f"best_f {['%.4g' % b for b in best]}; evals_to_target {ett}",
        f"failed_frac {out.failed / max(out.attempted, 1):.4g} "
        f"({out.failed} of {out.attempted} runs)",
    ]
    if hasattr(wl, "grid_top_share"):
        out.notes.append(f"largest share of the grid with one fitness: {wl.grid_top_share:.3f}")
    return out


# -- traced run --------------------------------------------------------------

# (module, attribute looked up by the caller, span name, probe factory)
LAYERS = (
    (harness, "run_method", "harness.run_method", None),
    (harness, "run_hraha", "hraha.run", None),
    (hraha, "compute_alpha", "hraha.compute_alpha", None),
    (hraha, "global_search_step", "hraha.global_step", spans.accept_probe),
    (hraha, "flight_mask", "hraha.flight_mask", None),
    (hraha, "stay_and_disguise", "hraha.stay", None),
    (hraha, "territorial_foraging", "hraha.territorial", None),
    (hraha, "migrate_worst", "hraha.migrate", spans.fired_probe),
    (hraha, "move_closer_reproduce", "hraha.move_closer", spans.improve_probe),
    (hraha, "clamp", "core.clamp", None),
    (baselines, "clamp", "core.clamp", None),
    (baselines, "run_rfo", "baselines.rfo", None),
    (baselines, "run_aha", "baselines.aha", None),
    (baselines, "run_pso", "baselines.pso", None),
    (harness, "run_random_search", "harness.run_random_search", None),
    (harness, "load_corpus", "harness.load_corpus", None),
    (harness, "classifier_objective", "harness.classifier_objective", None),
    (harness, "_fit_score", "harness.fit_score", None),
    (harness, "train_nb", "harness.train_nb", None),
    (harness, "predict_nb", "harness.predict_nb", None),
    (harness, "accuracy_metric", "metrics.accuracy", None),
    (harness, "f_score_metric", "metrics.f_score", None),
    (textpipe, "preprocess", "textpipe.preprocess", None),
    (textpipe, "clean_text", "textpipe.clean_text", None),
    (textpipe, "stem", "textpipe.stem", None),
    (textpipe, "build_vocabulary", "textpipe.build_vocabulary", None),
    (textpipe, "doc_frequencies", "textpipe.doc_frequencies", None),
    (textpipe, "bow_vectorize", "textpipe.bow_vectorize", None),
    (cli, "run_experiment", "harness.run_experiment", None),
    (cli, "emit_report", "harness.emit_report", None),
)

CALLS_AND_SELF = ("hraha.global_step", "hraha.stay", "hraha.territorial", "hraha.migrate",
                  "hraha.move_closer", "hraha.compute_alpha", "hraha.flight_mask",
                  "core.clamp", "textpipe.preprocess", "textpipe.clean_text", "textpipe.stem")
SELF_ONLY = ("textpipe.build_vocabulary", "textpipe.doc_frequencies", "textpipe.bow_vectorize",
             "harness.train_nb", "harness.predict_nb", "harness.run_experiment",
             "harness.emit_report", "metrics.accuracy", "metrics.f_score")


def _install(tracer: spans.Tracer) -> None:
    for module, attr, name, probe in LAYERS:
        tracer.patch(module, attr, name, probe(tracer, name) if probe else None)


def _bookkeeping_us(runs, obj_us: float) -> float:
    """Median microseconds per evaluation outside the objective."""
    if not runs:
        return 0.0
    return float(np.median([(r.seconds - r.result.evaluations * obj_us * 1e-6)
                            / r.result.evaluations * 1e6 for r in runs]))


def _scaled_total(units) -> float:
    return sum(x for u in units for _, x in u.run_s + u.setup_s)


def traced(wl, seconds: float) -> Outcome:
    """Alternate an untraced and a traced copy of each unit until the time is
    up; the traced copy must reproduce the untraced fingerprints."""
    out = Outcome()
    pinned = load_pinned()[wl.name]
    out.errors += wl.prepare()
    tracer = spans.Tracer()
    root = tracer.wrap(wl.unit, "bench.unit")
    plain, traced_units = [], []
    deadline = _clock() + seconds
    i = 0
    while i == 0 or _clock() < deadline:
        u0 = _run_unit(out, wl, i)
        _install(tracer)
        try:
            u1 = _run_unit(out, wl, i, tracer, root)
        finally:
            tracer.restore()
        if u0 is not None and u1 is not None:
            _check_unit(out, wl, i, u1, pinned)
            if [r.key for r in u0.runs] != [r.key for r in u1.runs]:
                out.errors.append(f"{wl.name} unit {i}: traced runs differ from untraced")
            for a, b in zip(u0.runs, u1.runs):
                if fingerprint(a.result) != fingerprint(b.result):
                    out.errors.append(f"{wl.name} {a.key}: traced fingerprint differs")
            plain.append(u0)
            traced_units.append(u1)
        i += 1
    if not traced_units:
        out.errors.append("no unit completed")
        return out

    st = tracer.stats
    n = len(traced_units)
    root_s = st["bench.unit"][1]
    self_sum = tracer.self_time_total()
    if abs(self_sum - root_s) > 1e-9 * max(root_s, 1.0):
        out.errors.append(f"span self times sum to {self_sum!r} s, traced units took {root_s!r} s")
    out.notes.append(f"{n} traced units; span self times sum to {self_sum:.6f} s "
                     f"of {root_s:.6f} s traced")

    def per_unit(name, k):
        return st[name][k] / n if name in st else 0.0

    def frac(num, den):
        d = tracer.counts.get(den, 0)
        return tracer.counts.get(num, 0) / d if d else 0.0

    m = out.metrics
    obj_calls, obj_s = (st["benchmarks.objective"][:2]
                        if "benchmarks.objective" in st else (0, 0.0))
    obj_us = obj_s / obj_calls * 1e6 if obj_calls else 0.0
    bench_runs = [r for u in plain for r in u.runs] if obj_calls else []
    by_method = {}
    for r in bench_runs:
        by_method.setdefault(r.key.split("/")[0], []).append(r)

    m["hraha.bookkeeping.us_per_eval"] = (_bookkeeping_us(by_method.get("hraha"), obj_us), "us")
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = (per_unit(name, 0), "count")
        m[f"{name}.self_s"] = (per_unit(name, 2), "s")
    m["hraha.global_step.accept_frac"] = (
        frac("hraha.global_step.accepted", "hraha.global_step.candidates"), "ratio")
    m["hraha.migrate.fired_frac"] = (
        tracer.counts.get("hraha.migrate.fired", 0) / st["hraha.migrate"][0]
        if st["hraha.migrate"][0] else 0.0, "ratio")
    m["hraha.move_closer.improve_frac"] = (
        frac("hraha.move_closer.improved", "hraha.move_closer.offspring"), "ratio")
    for method in ("rfo", "aha", "pso"):
        runs = by_method.get(method, [])
        m[f"baselines.{method}.bookkeeping.us_per_eval"] = (_bookkeeping_us(runs, obj_us), "us")
        m[f"baselines.{method}.run_s.p50"] = (
            float(np.median([r.seconds for r in runs])) if runs else 0.0, "s")
    m["benchmarks.objective.calls"] = (obj_calls / n, "count")
    m["benchmarks.objective.us_per_call"] = (obj_us, "us")
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = (per_unit(name, 2), "s")
    c = tracer.counts
    calls = sum(c.get(f"objective.{k}.calls", 0) for k in ("hraha", "random"))
    misses = sum(c.get(f"objective.{k}.misses", 0) for k in ("hraha", "random"))
    m["harness.objective.calls"] = (calls / n, "count")
    m["harness.objective.misses"] = (misses / n, "count")
    for k in ("hraha", "random"):
        kc = c.get(f"objective.{k}.calls", 0)
        m[f"harness.cache_hit_frac.{k}"] = (
            1 - c.get(f"objective.{k}.misses", 0) / kc if kc else 0.0, "ratio")
    fit_calls, fit_s = st["harness.fit_score"][:2]
    m["harness.fit_score.ms_per_miss"] = (fit_s / fit_calls * 1e3 if fit_calls else 0.0, "ms")
    main_calls, main_s = st["cli.main"][:2] if "cli.main" in st else (0, 0.0)
    m["cli.main.s"] = (main_s / main_calls if main_calls else 0.0, "s")
    m["cli.report.bytes"] = (float(np.mean([u.report_bytes for u in traced_units])), "bytes")
    m["trace.overhead_frac"] = (_scaled_total(traced_units) / _scaled_total(plain) - 1, "ratio")
    return out
