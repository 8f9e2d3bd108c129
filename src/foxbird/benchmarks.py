"""Standard benchmark objectives with their canonical boxes and optima.

Each function has a 1-d form for one point and a row-wise form for a
``(n, d)`` matrix of points. The row form gives, row for row, the same bits
as the 1-d form; it is what ``BenchmarkFn.batch`` runs. On a single point
the 1-d form is the faster one, so ``BenchmarkFn.__call__`` keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SearchSpace

__all__ = ["BenchmarkFn", "BENCHMARKS", "get_benchmark"]


def sphere(x: np.ndarray) -> float:
    return float(np.dot(x, x))


def rastrigin(x: np.ndarray) -> float:
    return float(10 * x.size + np.sum(x * x - 10 * np.cos(2 * np.pi * x)))


def rosenbrock(x: np.ndarray) -> float:
    return float(np.sum(100 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


def ackley(x: np.ndarray) -> float:
    n = x.size
    return float(
        -20 * np.exp(-0.2 * np.sqrt(np.sum(x * x) / n))
        - np.exp(np.sum(np.cos(2 * np.pi * x)) / n)
        + 20
        + np.e
    )


# Row-wise forms. The sphere needs vecdot (or matmul): it matches np.dot per
# row, while np.sum(X * X, axis=1) differs from it in the last bits.

def sphere_rows(X: np.ndarray) -> np.ndarray:
    return np.vecdot(X, X)


def rastrigin_rows(X: np.ndarray) -> np.ndarray:
    return 10 * X.shape[1] + np.sum(X * X - 10 * np.cos(2 * np.pi * X), axis=1)


def rosenbrock_rows(X: np.ndarray) -> np.ndarray:
    return np.sum(100 * (X[:, 1:] - X[:, :-1] ** 2) ** 2 + (1 - X[:, :-1]) ** 2, axis=1)


def ackley_rows(X: np.ndarray) -> np.ndarray:
    n = X.shape[1]
    return (
        -20 * np.exp(-0.2 * np.sqrt(np.sum(X * X, axis=1) / n))
        - np.exp(np.sum(np.cos(2 * np.pi * X), axis=1) / n)
        + 20
        + np.e
    )


@dataclass(frozen=True)
class BenchmarkFn:
    name: str
    fn: object
    rows: object  # the row-wise form of fn
    lower: float
    upper: float
    optimum_value: float
    optimum_at: float  # per-dimension coordinate of the global minimum

    def space(self, dims: int) -> SearchSpace:
        return SearchSpace(np.full(dims, self.lower), np.full(dims, self.upper))

    def optimum_location(self, dims: int) -> np.ndarray:
        return np.full(dims, self.optimum_at)

    def __call__(self, x) -> float:
        return self.fn(np.asarray(x, dtype=float))

    def batch(self, X) -> np.ndarray:
        """The values at the rows of ``X`` (a matrix or a list of points),
        each equal to ``self(x)`` byte for byte."""
        return self.rows(np.asarray(X, dtype=float))


BENCHMARKS: dict[str, BenchmarkFn] = {
    "sphere": BenchmarkFn("sphere", sphere, sphere_rows, -5.12, 5.12, 0.0, 0.0),
    "rastrigin": BenchmarkFn("rastrigin", rastrigin, rastrigin_rows, -5.12, 5.12, 0.0, 0.0),
    "rosenbrock": BenchmarkFn("rosenbrock", rosenbrock, rosenbrock_rows,
                              -2.048, 2.048, 0.0, 1.0),
    "ackley": BenchmarkFn("ackley", ackley, ackley_rows, -32.768, 32.768, 0.0, 0.0),
}


def get_benchmark(name: str) -> BenchmarkFn:
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise ValueError(f"unknown benchmark {name!r}; choose from {sorted(BENCHMARKS)}") from None
