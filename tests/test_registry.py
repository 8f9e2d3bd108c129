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
from foxbird.core import SearchSpace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


class Injecting:
    """A sphere that returns the given value on chosen call numbers (1-based),
    counts its calls and notes whether any value it returned was finite."""

    def __init__(self, bad: dict):
        self.bad = bad
        self.calls = 0
        self.any_finite = False

    def __call__(self, x) -> float:
        self.calls += 1
        f = self.bad.get(self.calls, float(np.dot(x, x)))
        self.any_finite |= math.isfinite(f)
        return f


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
    space = SearchSpace([-5.0] * dims, [5.0] * dims)
    obj = Injecting(bad)
    res = run(method, obj, space, pop_size, iterations, seed)

    # a non-finite value counts as +inf, from the initial population on: the
    # history holds no NaN or -inf, and it is +inf only while nothing finite
    # has been seen
    history = np.array(res.history)
    assert np.all(history[1:] <= history[:-1])
    assert np.all(np.isfinite(history) | (history == math.inf))
    assert res.best_fitness == history[-1]
    assert math.isfinite(res.best_fitness) == obj.any_finite
    assert np.all(space.lower <= res.best_position)
    assert np.all(res.best_position <= space.upper)
    assert res.evaluations == obj.calls

    again = run(method, Injecting(bad), space, pop_size, iterations, seed)
    assert again.history == res.history
    assert again.best_fitness == res.best_fitness
    assert np.array_equal(again.best_position, res.best_position)
    assert again.evaluations == res.evaluations


@pytest.mark.parametrize("method", harness.METHODS + ("random",))
def test_nowhere_finite_objective(method):
    space = SearchSpace([-5.0] * 3, [5.0] * 3)
    obj = Injecting({k: NON_FINITE[k % 3] for k in range(1, 200)})
    res = run(method, obj, space, 5, 4, 0)
    assert not obj.any_finite
    assert res.best_fitness == math.inf
    assert res.history == [math.inf] * len(res.history)
    assert np.all(space.lower <= res.best_position)
    assert np.all(res.best_position <= space.upper)
    assert res.evaluations == obj.calls


def read_only(fn):
    """``fn`` that marks every array it is given read-only first."""
    def obj(x):
        x.flags.writeable = False
        return fn(x)
    return obj


@pytest.mark.parametrize("dims, pop_size", [(10, 10), (5, 41), (1, 4), (2, 6)])
@pytest.mark.parametrize("function", ["sphere", "rastrigin"])
@pytest.mark.parametrize("method", harness.METHODS)
def test_no_method_writes_an_evaluated_point(method, function, dims, pop_size):
    # members keep the evaluated arrays themselves, uncopied: a method that
    # wrote one in place would raise here
    bench = get_benchmark(function)
    space = bench.space(dims)
    plain = harness.run_method(method, bench, space, pop_size, 20, 0)
    frozen = harness.run_method(method, read_only(bench), space, pop_size, 20, 0)
    assert frozen.history == plain.history
    assert frozen.best_fitness == plain.best_fitness
    assert frozen.best_position.tobytes() == plain.best_position.tobytes()
    assert frozen.evaluations == plain.evaluations


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
