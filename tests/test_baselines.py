import math

import numpy as np
import pytest

from foxbird.baselines import PSO_COGNITIVE, PSO_INERTIA, PSO_SOCIAL, run_pso
from foxbird.benchmarks import get_benchmark
from foxbird.core import CountingObjective, SearchSpace, clamp, make_rng
from foxbird.harness import run_method
from foxbird.hraha import OptimizationResult


SPHERE = get_benchmark("sphere")


def test_pso_sphere_convergence():
    space = SPHERE.space(2)
    result = run_pso(SPHERE, space, 20, 200, make_rng(1))
    assert result.best_fitness <= 1e-4


def test_zero_iterations_returns_initial_best(subtests=None):
    space = SPHERE.space(3)
    for kind in ("hraha", "rfo", "aha", "pso"):
        result = run_method(kind, SPHERE, space, 10, 0, make_rng(4))
        # same init draws as a fresh population with the same seed
        from foxbird.core import init_population

        pop = init_population(space, 10, make_rng(4), SPHERE)
        assert result.best_fitness == pop.best.fitness
        assert result.history == []


@pytest.mark.parametrize("kind", ["rfo", "aha", "pso"])
def test_determinism(kind):
    space = SPHERE.space(4)
    r1 = run_method(kind, SPHERE, space, 10, 30, make_rng(7))
    r2 = run_method(kind, SPHERE, space, 10, 30, make_rng(7))
    assert r1.best_fitness == r2.best_fitness
    assert np.array_equal(r1.best_position, r2.best_position)
    assert r1.history == r2.history
    assert r1.evaluations == r2.evaluations


@pytest.mark.parametrize("kind", ["rfo", "aha", "pso"])
def test_result_shape_and_bounds(kind):
    space = SPHERE.space(5)
    result = run_method(kind, SPHERE, space, 8, 25, make_rng(2))
    assert isinstance(result, OptimizationResult)
    assert len(result.history) == 25
    assert np.all(result.best_position >= space.lower)
    assert np.all(result.best_position <= space.upper)
    assert result.evaluations > 0
    # best-so-far history is non-increasing for every baseline
    assert np.all(np.diff(result.history) <= 0)


def test_unknown_kind():
    with pytest.raises(ValueError, match="unknown method"):
        run_method("cma", SPHERE, SPHERE.space(2), 10, 10, make_rng(0))


def run_pso_loop(obj, space, pop_size, max_iters, rng):
    # run_pso with one call per particle and its personal and global bests
    # updated member by member under a strict <, kept as the reference for the
    # array form that scores the swarm as one batch
    rng = make_rng(rng)
    counted = CountingObjective(obj)
    X = rng.uniform(space.lower, space.upper, size=(pop_size, space.dims))
    F = np.array([counted(x) for x in X])
    V = np.zeros_like(X)
    pbest_X, pbest_F = X.copy(), F.copy()
    g = int(np.argmin(F))
    gbest_x, gbest_f = X[g].copy(), float(F[g])
    history = []
    for _ in range(max_iters):
        r1 = rng.random(X.shape)
        r2 = rng.random(X.shape)
        V = (PSO_INERTIA * V + PSO_COGNITIVE * r1 * (pbest_X - X)
             + PSO_SOCIAL * r2 * (gbest_x - X))
        X = clamp(X + V, space)
        for i in range(pop_size):
            f = counted(X[i])
            if f < pbest_F[i]:
                pbest_F[i] = f
                pbest_X[i] = X[i]
                if f < gbest_f:
                    gbest_f = f
                    gbest_x = X[i].copy()
        history.append(gbest_f)
    return gbest_x, gbest_f, history, counted.count


def coarse(x):
    # whole floors of ties, so equal personal bests are common; +inf and NaN
    # on part of the box
    if x[0] > 4.0:
        return math.nan if x[0] > 4.5 else math.inf
    return float(np.floor(np.dot(x, x) / 4))


@pytest.mark.parametrize("objective", [coarse, SPHERE, get_benchmark("rastrigin")],
                         ids=["coarse", "sphere", "rastrigin"])
@pytest.mark.parametrize("dims, pop_size", [(1, 4), (3, 9), (10, 30)])
def test_pso_equals_member_by_member_reference(objective, dims, pop_size):
    space = SearchSpace([-5.12] * dims, [5.12] * dims)
    for seed in range(5):
        rngs = [make_rng(seed), make_rng(seed)]
        got = run_pso(objective, space, pop_size, 40, rngs[0])
        x, f, history, evaluations = run_pso_loop(objective, space, pop_size, 40, rngs[1])
        assert got.history == history
        assert all(type(h) is float for h in got.history)
        assert type(got.best_fitness) is float and got.best_fitness == f
        assert got.best_position.tobytes() == x.tobytes()
        assert got.evaluations == evaluations
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
