"""Shared optimization substrate: search spaces, populations, seeded RNG.

All optimizers in this package minimize. The project-wide random number
generator is numpy's PCG64 (via ``numpy.random.Generator``): the same seed
produces the same draw stream on every platform, which the whole test suite
relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SearchSpace",
    "Individual",
    "Population",
    "make_rng",
    "make_search_space",
    "init_population",
    "evaluate",
    "CountingObjective",
    "accept_if_better",
    "clamp",
]


def make_rng(seed) -> np.random.Generator:
    """Return the project RNG (PCG64) for a seed, passing Generators through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class SearchSpace:
    """Axis-aligned box of real decision variables."""

    lower: np.ndarray
    upper: np.ndarray

    @property
    def dims(self) -> int:
        return self.lower.shape[0]

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if self.lower.ndim != 1 or self.upper.ndim != 1:
            raise ValueError("bounds must be 1-D vectors")
        if self.lower.shape != self.upper.shape:
            raise ValueError(
                f"dimension mismatch: lower has {self.lower.shape[0]} entries, "
                f"upper has {self.upper.shape[0]}"
            )
        bad = np.nonzero(~(self.lower < self.upper))[0]
        if bad.size:
            raise ValueError(f"inverted bound at j={bad[0]}")


def make_search_space(lower, upper) -> SearchSpace:
    return SearchSpace(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))


@dataclass
class Individual:
    """Position vector plus cached fitness (None while unevaluated)."""

    position: np.ndarray
    fitness: float | None = None

    def copy(self) -> "Individual":
        return Individual(self.position.copy(), self.fitness)


@dataclass
class Population:
    members: list[Individual] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def fitnesses(self) -> np.ndarray:
        if any(m.fitness is None for m in self.members):
            raise ValueError("unevaluated member present")
        return np.array([m.fitness for m in self.members], dtype=float)

    def positions(self) -> np.ndarray:
        return np.array([m.position for m in self.members], dtype=float)

    @property
    def best_index(self) -> int:
        # ties break toward the lowest index (np.argmin already does)
        return int(np.argmin(self.fitnesses()))

    @property
    def best(self) -> Individual:
        return self.members[self.best_index]

    @property
    def worst_index(self) -> int:
        return int(np.argmax(self.fitnesses()))


def init_population(space: SearchSpace, size: int, rng) -> Population:
    """Uniform random population inside the box; all members unevaluated.

    Requires size >= 4: the reproduction step needs two parents plus
    replaceable worst members.
    """
    if size < 4:
        raise ValueError(f"population size must be >= 4, got {size}")
    rng = make_rng(rng)
    pos = rng.uniform(space.lower, space.upper, size=(size, space.dims))
    return Population([Individual(pos[i]) for i in range(size)])


def evaluate(pop: Population, obj) -> Population:
    """Evaluate every member in place. A non-finite value is stored as +inf,
    the rule ``CountingObjective`` applies to every later evaluation."""
    for m in pop.members:
        f = float(obj(m.position))
        m.fitness = f if math.isfinite(f) else math.inf
    return pop


class CountingObjective:
    """Wraps an objective to count evaluations: the one evaluation contract
    every optimizer and random search share.

    A non-finite value is returned as +inf: a member that stores it is never
    selected as the best, and the evaluation still counts."""

    def __init__(self, obj):
        self.obj = obj
        self.count = 0

    def __call__(self, x) -> float:
        self.count += 1
        f = float(self.obj(x))
        return f if math.isfinite(f) else math.inf


def accept_if_better(member: Individual, cand: np.ndarray, f: float) -> None:
    """Greedy acceptance: the member takes the candidate array itself and its
    fitness unless that would worsen the member's fitness (ties accept)."""
    if f <= member.fitness:
        member.position = cand
        member.fitness = f


def clamp(position: np.ndarray, space: SearchSpace) -> np.ndarray:
    """Project a position onto the box."""
    position = np.asarray(position, dtype=float)
    if position.shape[-1] != space.dims:
        raise ValueError(
            f"length mismatch: position has {position.shape[-1]} entries, "
            f"space has {space.dims}"
        )
    return np.clip(position, space.lower, space.upper)
