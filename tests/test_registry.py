"""The method registry: every method in ``harness.METHODS``, plus random
search, keeps the result invariants when the objective returns non-finite
values, and every module attribute the benchmark's trace wraps exists and is
looked up at call time."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foxbird import baselines, harness
from foxbird.benchmarks import get_benchmark
from foxbird.core import make_search_space

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


class Injecting:
    """A sphere that returns the given value on chosen call numbers (1-based)
    and counts its calls."""

    def __init__(self, bad: dict):
        self.bad = bad
        self.calls = 0

    def __call__(self, x) -> float:
        self.calls += 1
        return self.bad.get(self.calls, float(np.dot(x, x)))


def run(method, obj, space, pop_size, iterations, seed):
    if method == "random":
        return harness.run_random_search(obj, space, pop_size * (iterations + 1), seed)
    return harness.run_method(method, obj, space, pop_size, iterations, seed)


@settings(max_examples=150, deadline=None)
@given(method=st.sampled_from(harness.METHODS + ("random",)),
       dims=st.integers(1, 5), pop_size=st.integers(4, 8), iterations=st.integers(1, 10),
       seed=st.integers(0, 2**32 - 1),
       bad=st.dictionaries(st.integers(1, 150), st.sampled_from(NON_FINITE), max_size=30))
def test_invariants_under_non_finite_values(method, dims, pop_size, iterations, seed, bad):
    space = make_search_space([-5.0] * dims, [5.0] * dims)
    # core.evaluate rejects a non-finite value at initialisation by design,
    # so values are injected only after the first pop_size calls
    bad = {pop_size + k: v for k, v in bad.items()}
    obj = Injecting(bad)
    res = run(method, obj, space, pop_size, iterations, seed)

    history = np.array(res.history)
    assert np.all(np.isfinite(history))
    assert np.all(np.diff(history) <= 0)
    assert res.best_fitness == history[-1]
    assert math.isfinite(res.best_fitness)
    assert np.all(space.lower <= res.best_position)
    assert np.all(res.best_position <= space.upper)
    assert res.evaluations == obj.calls

    again = run(method, Injecting(bad), space, pop_size, iterations, seed)
    assert again.history == res.history
    assert again.best_fitness == res.best_fitness
    assert np.array_equal(again.best_position, res.best_position)
    assert again.evaluations == res.evaluations


def test_every_traced_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import measure

    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in measure.LAYERS
               if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("method, module, attr", [
    ("hraha", harness, "run_hraha"),
    ("rfo", baselines, "run_rfo"),
    ("aha", baselines, "run_aha"),
    ("pso", baselines, "run_pso"),
])
def test_run_method_calls_the_patched_runner(monkeypatch, method, module, attr):
    real = getattr(module, attr)
    calls = []

    def spy(*args):
        calls.append(method)
        return real(*args)

    monkeypatch.setattr(module, attr, spy)
    sphere = get_benchmark("sphere")
    harness.run_method(method, sphere, sphere.space(2), 4, 1, 0)
    assert calls == [method]
