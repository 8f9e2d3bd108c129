import numpy as np
import pytest

from foxbird.benchmarks import BENCHMARKS, get_benchmark


# The 1-d formulas the fixed-seed fingerprints were recorded with, frozen
# here: every evaluation, of one point or of a batch, must equal them byte
# for byte.

def sphere_reference(x):
    return float(np.dot(x, x))


def rastrigin_reference(x):
    return float(10 * x.size + np.sum(x * x - 10 * np.cos(2 * np.pi * x)))


def rosenbrock_reference(x):
    return float(np.sum(100 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


def ackley_reference(x):
    n = x.size
    return float(
        -20 * np.exp(-0.2 * np.sqrt(np.sum(x * x) / n))
        - np.exp(np.sum(np.cos(2 * np.pi * x)) / n)
        + 20
        + np.e
    )


REFERENCES = {"sphere": sphere_reference, "rastrigin": rastrigin_reference,
              "rosenbrock": rosenbrock_reference, "ackley": ackley_reference}


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
    # through __call__; both must give the frozen reference's bits
    b, reference = get_benchmark(name), REFERENCES[name]
    rng = np.random.default_rng(0)
    for dims in range(1, 31):
        X = np.vstack([
            rng.uniform(b.lower, b.upper, (50, dims)),
            np.full(dims, b.lower),
            np.full(dims, b.upper),
            np.zeros(dims),
            b.optimum_location(dims),
        ])
        want = np.array([reference(x) for x in X])
        assert np.array([b(x) for x in X]).tobytes() == want.tobytes(), (name, dims)
        got = b.batch(X)
        assert got.shape == (len(X),)
        assert got.tobytes() == want.tobytes(), (name, dims)
        assert b.batch(list(X)).tobytes() == want.tobytes(), (name, dims)
