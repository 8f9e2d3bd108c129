"""Standard benchmark objectives with their canonical boxes and optima."""

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


@dataclass(frozen=True)
class BenchmarkFn:
    name: str
    fn: object
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
