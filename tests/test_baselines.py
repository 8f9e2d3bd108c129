import numpy as np
import pytest

from foxbird.baselines import run_pso
from foxbird.benchmarks import get_benchmark
from foxbird.core import make_rng
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
