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
