"""Standard benchmark objectives with their canonical boxes and optima.

Each function is written once, row-wise: it maps a ``(n, d)`` matrix of
points to their ``n`` values. ``BenchmarkFn.batch`` runs it on a matrix and
``BenchmarkFn.__call__`` on a single point as a one-row matrix, so a point
gets the same bits either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SearchSpace

__all__ = ["BenchmarkFn", "BENCHMARKS", "get_benchmark"]


# The sphere needs vecdot (or matmul): per row it sums as np.dot does, which
# the fixed-seed results were recorded with, while np.sum(X * X, axis=1)
# differs from it in the last bits.

def sphere(X: np.ndarray) -> np.ndarray:
    return np.vecdot(X, X)


def rastrigin(X: np.ndarray) -> np.ndarray:
    return 10 * X.shape[1] + np.sum(X * X - 10 * np.cos(2 * np.pi * X), axis=1)


def rosenbrock(X: np.ndarray) -> np.ndarray:
    return np.sum(100 * (X[:, 1:] - X[:, :-1] ** 2) ** 2 + (1 - X[:, :-1]) ** 2, axis=1)


def ackley(X: np.ndarray) -> np.ndarray:
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
    rows: object  # (n, d) points -> (n,) values
    lower: float
    upper: float
    optimum_value: float
    optimum_at: float  # per-dimension coordinate of the global minimum

    def space(self, dims: int) -> SearchSpace:
        return SearchSpace(np.full(dims, self.lower), np.full(dims, self.upper))

    def optimum_location(self, dims: int) -> np.ndarray:
        return np.full(dims, self.optimum_at)

    def __call__(self, x) -> float:
        """The value at one point, scored as a one-row batch."""
        return float(self.rows(np.asarray(x, dtype=float)[None])[0])

    def batch(self, X) -> np.ndarray:
        """The values at the rows of ``X`` (a matrix or a list of points)."""
        return self.rows(np.asarray(X, dtype=float))


BENCHMARKS: dict[str, BenchmarkFn] = {
    "sphere": BenchmarkFn("sphere", sphere, -5.12, 5.12, 0.0, 0.0),
    "rastrigin": BenchmarkFn("rastrigin", rastrigin, -5.12, 5.12, 0.0, 0.0),
    "rosenbrock": BenchmarkFn("rosenbrock", rosenbrock, -2.048, 2.048, 0.0, 1.0),
    "ackley": BenchmarkFn("ackley", ackley, -32.768, 32.768, 0.0, 0.0),
}


def get_benchmark(name: str) -> BenchmarkFn:
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise ValueError(f"unknown benchmark {name!r}; choose from {sorted(BENCHMARKS)}") from None
