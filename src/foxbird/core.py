"""Shared optimization substrate: search spaces, populations, seeded RNG.

All optimizers in this package minimize. A population is born evaluated:
``init_population`` scores every member, so each ``Individual`` carries a
fitness from the start. Members are immutable ``(position, fitness)`` values
and no code writes a stored position array in place, so a member kept past
later steps needs no copy: an accept puts a new value in the slot.

Evaluation is ask-and-tell. A sweep that builds every candidate before
scoring any (the initial population, the global step, AHA's foraging, the
PSO swarm, HRAHA's and RFO's queued local moves) scores them in one
``CountingObjective.batch`` call, then accepts them in member order
(``accept_rows``, the one evaluate-and-accept path; ties accept). Random
search scores all its samples in one such call too. An
objective may offer ``batch(X) -> (n,)``; it must equal the scalar calls on
the rows byte for byte. Without one, the rows are scored one call each, in
order, so an objective never sees a difference.

The project-wide random number generator is numpy's PCG64 (via
``numpy.random.Generator``): the same seed produces the same draw stream on
every platform, which the whole test suite relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "SearchSpace",
    "Individual",
    "Population",
    "make_rng",
    "init_population",
    "CountingObjective",
    "accept_rows",
    "clamp",
]


def make_rng(seed) -> np.random.Generator:
    """Return the project RNG (PCG64) for a seed, passing Generators through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class SearchSpace:
    """Axis-aligned box of real decision variables; the bounds may be given
    as any sequences and are stored as float arrays."""

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
        if self.lower.shape[0] == 0:
            raise ValueError("bounds must have at least one coordinate")
        for j, (lo, hi) in enumerate(zip(self.lower.tolist(), self.upper.tolist())):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"non-finite bound at j={j}")
            if not lo < hi:
                raise ValueError(f"inverted bound at j={j}")


class Individual(NamedTuple):
    """Position vector plus its fitness; an immutable value."""

    position: np.ndarray
    fitness: float


@dataclass
class Population:
    members: list[Individual] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.members)

    def fitnesses(self) -> np.ndarray:
        return np.array([m.fitness for m in self.members], dtype=float)

    def positions(self) -> np.ndarray:
        return np.array([m.position for m in self.members], dtype=float)

    @property
    def best(self) -> Individual:
        # ties break toward the lowest index (np.argmin already does)
        return self.members[int(np.argmin(self.fitnesses()))]

    @property
    def worst_index(self) -> int:
        return int(np.argmax(self.fitnesses()))


def init_population(space: SearchSpace, size: int, rng, obj) -> Population:
    """Uniform random population inside the box, evaluated as one batch of
    rows in order through ``obj`` wrapped in ``CountingObjective``, so a
    non-finite value is stored as +inf as it is at every later evaluation.

    Requires size >= 4: the reproduction step needs two parents plus
    replaceable worst members.
    """
    if size < 4:
        raise ValueError(f"population size must be >= 4, got {size}")
    rng = make_rng(rng)
    rows = list(rng.uniform(space.lower, space.upper, size=(size, space.dims)))
    return Population([Individual(x, f)
                       for x, f in zip(rows, CountingObjective(obj).batch(rows))])


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

    def batch(self, X) -> list[float]:
        """The values at the rows of ``X``, as ``[self(x) for x in X]`` gives
        them: counted, non-finite as +inf, Python floats. A result of the
        wrong shape raises ``ValueError``."""
        self.count += len(X)
        f = np.asarray(_score_rows(self.obj, X), dtype=float)
        if f.shape != (len(X),):
            raise ValueError(f"batch returned shape {f.shape} for {len(X)} rows; "
                             f"expected ({len(X)},)")
        return np.where(np.isfinite(f), f, math.inf).tolist()


def _score_rows(obj, rows):
    """``obj.batch(rows)`` when the objective has one; otherwise one call per
    row, in order, with the row objects given."""
    batch = getattr(obj, "batch", None)
    return batch(rows) if batch is not None else [obj(x) for x in rows]


def accept_rows(pop: Population, cands, obj, slots=None) -> None:
    """The greedy accept: evaluate every row of ``cands`` first (through
    ``obj.batch`` when there is one, else one call per row in order), then,
    in row order, store row ``k``, the array itself, in slot ``slots[k]``
    (slot ``k`` by default) unless that worsens the slot's fitness (ties
    accept)."""
    rows = list(cands)
    if slots is None:
        slots = range(len(rows))
    for i, x, f in zip(slots, rows, _score_rows(obj, rows), strict=True):
        f = float(f)
        if f <= pop.members[i].fitness:
            pop.members[i] = Individual(x, f)


def clamp(position: np.ndarray, space: SearchSpace) -> np.ndarray:
    """Project a position onto the box."""
    position = np.asarray(position, dtype=float)
    if position.shape[-1] != space.dims:
        raise ValueError(
            f"length mismatch: position has {position.shape[-1]} entries, "
            f"space has {space.dims}"
        )
    return np.minimum(np.maximum(position, space.lower), space.upper)
