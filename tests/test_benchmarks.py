import numpy as np
import pytest

from foxbird.benchmarks import BENCHMARKS, get_benchmark


def test_sphere_optimum():
    assert get_benchmark("sphere")(np.zeros(5)) == 0.0


def test_rastrigin_values():
    assert get_benchmark("rastrigin")(np.zeros(4)) == pytest.approx(0.0, abs=1e-12)
    assert get_benchmark("rastrigin")(np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-9)


def test_ackley_optimum():
    assert get_benchmark("ackley")(np.zeros(2)) == pytest.approx(0.0, abs=1e-12)


def test_rosenbrock_optimum():
    assert get_benchmark("rosenbrock")(np.ones(6)) == 0.0


def test_unknown_name():
    with pytest.raises(ValueError, match="unknown benchmark"):
        get_benchmark("nope")


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_known_optimum_within_tolerance(name):
    b = get_benchmark(name)
    for dims in (2, 5, 10):
        x = b.optimum_location(dims)
        assert abs(b(x) - b.optimum_value) <= 1e-12
        space = b.space(dims)
        assert np.all(x >= space.lower) and np.all(x <= space.upper)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_batch_equals_scalar_calls_byte_for_byte(name):
    # the optimizers score whole sweeps through batch and single points
    # through __call__; a platform where the two forms differ fails here
    b = get_benchmark(name)
    rng = np.random.default_rng(0)
    for dims in range(1, 31):
        X = np.vstack([
            rng.uniform(b.lower, b.upper, (50, dims)),
            np.full(dims, b.lower),
            np.full(dims, b.upper),
            np.zeros(dims),
            b.optimum_location(dims),
        ])
        want = np.array([b(x) for x in X])
        got = b.batch(X)
        assert got.shape == (len(X),)
        assert got.tobytes() == want.tobytes(), (name, dims)
        assert b.batch(list(X)).tobytes() == want.tobytes(), (name, dims)
