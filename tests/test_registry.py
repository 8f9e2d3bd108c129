"""The method registry: every method in ``harness.METHODS``, plus random
search, keeps the result invariants when the objective returns non-finite
values, gives the same run through an objective's ``batch`` as through its
scalar calls, and every module attribute the benchmark's trace wraps exists
and is looked up at call time."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foxbird import baselines, harness
from foxbird.benchmarks import BENCHMARKS, get_benchmark
from foxbird.core import CountingObjective, SearchSpace, make_rng

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
    outer = CountingObjective(obj)
    res = run(method, outer, space, pop_size, iterations, seed)

    # the result is the best so far as an outer counter keeps it: the first
    # evaluated point strictly lower than every point before it. HRAHA's
    # position is its population's best, which prefers the lowest slot among
    # equal fitnesses, so only its fitness is compared
    assert res.best_fitness == outer.best_f
    if method != "hraha":
        assert res.best_position.tobytes() == outer.best_x.tobytes()

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


@pytest.mark.parametrize("method", harness.METHODS + ("random",))
def test_box_whose_squared_widths_overflow(method):
    # every width is finite but its square is not: the four methods refuse
    # the box in init_population, and random search, which never combines
    # widths, still samples it
    space = SearchSpace([-8e307], [8e307])
    if method != "random":
        with pytest.raises(ValueError, match="j=0"):
            run(method, lambda x: 0.0, space, 4, 1, 0)
    else:
        res = run(method, lambda x: float(x[0]), space, 4, 1, 0)
        assert space.lower[0] <= res.best_position[0] <= space.upper[0]


def widest_box(dims, side):
    """A box whose squared widths sum to 0.999 times the largest float."""
    w = math.sqrt(0.999 * np.finfo(float).max / dims)
    lower = {"symmetric": -w / 2, "positive": 0.0, "negative": -w}[side]
    return SearchSpace([lower] * dims, [lower + w] * dims), w


@pytest.mark.parametrize("side", ["symmetric", "positive", "negative"])
@pytest.mark.parametrize("dims", [1, 2, 10])
@pytest.mark.parametrize("method", harness.METHODS)
def test_widest_accepted_box_keeps_the_invariants(method, dims, side):
    # every warning is an error here, so no overflow may occur on the way
    space, w = widest_box(dims, side)
    assert float(np.sum((space.upper - space.lower) ** 2)) < np.finfo(float).max
    objectives = {
        "step": lambda x: float(np.floor(4 * x[0] / w)),
        "scaled sphere": lambda x: float(np.sum((x / w) ** 2)),
        "flat": lambda x: 1.0,
    }
    for name, fn in objectives.items():
        for seed in range(5):
            obj = CountingObjective(fn)
            res = run(method, obj, space, 5, 25, seed)
            history = np.array(res.history)
            assert np.all(np.isfinite(history)), name
            assert np.all(history[1:] <= history[:-1]), name
            assert res.best_fitness == history[-1]
            assert np.all(space.lower <= res.best_position), name
            assert np.all(res.best_position <= space.upper), name
            assert res.evaluations == obj.count


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(harness.METHODS + ("random",)),
       dims=st.integers(1, 4), pop_size=st.integers(4, 8), iterations=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), exponent=st.integers(0, 40))
def test_invariants_with_values_near_the_largest_float(method, dims, pop_size, iterations,
                                                        seed, exponent):
    # finite values of both signs up to the largest float over 2**exponent,
    # whose sums and ranges can overflow; every warning is an error here
    top = math.ldexp(np.finfo(float).max, -exponent)
    space = SearchSpace([-5.0] * dims, [5.0] * dims)
    obj = CountingObjective(lambda x: float(np.cos(3 * x).mean()) * top)
    res = run(method, obj, space, pop_size, iterations, seed)
    history = np.array(res.history)
    assert np.all(np.isfinite(history))
    assert np.all(history[1:] <= history[:-1])
    assert res.best_fitness == history[-1]
    assert np.all(space.lower <= res.best_position)
    assert np.all(res.best_position <= space.upper)
    assert res.evaluations == obj.count


def read_only(fn):
    """``fn`` that marks every array it is given read-only first."""
    def obj(x):
        x.flags.writeable = False
        return fn(x)
    return obj


@pytest.mark.parametrize("dims, pop_size",
                         [(10, 10), (5, 41), (1, 4), (2, 5), (2, 6), (3, 6)])
@pytest.mark.parametrize("function", sorted(BENCHMARKS))
@pytest.mark.parametrize("method", harness.METHODS)
def test_no_method_writes_an_evaluated_point(method, function, dims, pop_size):
    # members keep the evaluated arrays themselves, uncopied: a method that
    # wrote one in place would raise here. The benchmark scores whole sweeps
    # through its batch; the wrapper has none, so every point goes through
    # one scalar call, and the two runs must agree bit for bit.
    bench = BENCHMARKS[function]
    space = bench.space(dims)
    for seed in (0, 1):
        runs = []
        for obj in (bench, read_only(bench)):
            rng = make_rng(seed)
            runs.append((harness.run_method(method, obj, space, pop_size, 20, rng), rng))
        (plain, rng_p), (frozen, rng_f) = runs
        assert frozen.history == plain.history
        assert all(type(h) is float for h in plain.history + frozen.history)
        assert frozen.best_fitness == plain.best_fitness
        assert frozen.best_position.tobytes() == plain.best_position.tobytes()
        assert frozen.evaluations == plain.evaluations
        assert frozen.strategy_counts == plain.strategy_counts
        assert rng_f.bit_generator.state == rng_p.bit_generator.state


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
