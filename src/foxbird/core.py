"""Shared optimization substrate: search spaces, populations, seeded RNG.

All optimizers in this package minimize. A population is born evaluated:
``init_population`` scores every member, so every slot holds a fitness from
the start. A population is one ``(n, d)`` position array and one ``(n,)``
fitness array; ``Population.store`` is the one writer, copying one point into
one row, and every reader reads the arrays. A point a caller holds (the
counter's ``best_x`` included) is never a view of that storage, so no later
write changes it.

Evaluation is ask-and-tell. A sweep that builds every candidate before
scoring any (the initial population, the global step, AHA's foraging, the
PSO swarm, HRAHA's and RFO's queued local moves) scores them in one
``CountingObjective.batch`` call, then accepts them in member order
(``accept_rows``, the one evaluate-and-accept path; ties accept). Random
search scores all its samples in one such call too, and a single point
(a migrant or a move-closer child) is scored as a one-row batch, so the
count, the float conversion and the non-finite rule are written once: every
population write, given any objective, scores through ``CountingObjective``.
An objective may offer ``batch(X) -> (n,)`` equal byte for byte to its calls
on the rows, as the benchmarks and the tuning objective
(``harness.classifier_objective``) do; without one, each row is one call,
in order.

The counter also keeps the one best-so-far rule, by evaluation order and not
by slot, and every runner and random search report it.
``Population.best_index`` (the lowest slot among ties) is only a step's target.

The project-wide random number generator is numpy's PCG64 (via
``numpy.random.Generator``): the same seed produces the same draw stream on
every platform, which the whole test suite relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
            if lo < hi and math.isfinite(hi - lo):
                continue
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"non-finite bound at j={j}")
            if not lo < hi:
                raise ValueError(f"inverted bound at j={j}")
            # finite bounds, but no uniform draw spans them
            raise ValueError(f"width hi - lo is not finite at j={j}")


class Individual(NamedTuple):
    """Position vector plus its fitness: one member as ``Population.members``
    shows it."""

    position: np.ndarray
    fitness: float


class Population:
    """``n`` members as the rows of two arrays: ``positions`` ``(n, d)`` and
    ``fitnesses`` ``(n,)``, copied from ``(position, fitness)`` pairs.
    ``store`` is the one writer."""

    def __init__(self, members):
        members = list(members)
        self.positions = np.array([x for x, _ in members], dtype=float)
        self.fitnesses = np.array([f for _, f in members], dtype=float)
        self._view: list[Individual] | None = None
        self._stale: set[int] = set()

    def __len__(self) -> int:
        return len(self.fitnesses)

    def store(self, i: int, x, f: float) -> None:
        """Copy position ``x`` and fitness ``f`` into slot ``i``."""
        self.positions[i] = x
        self.fitnesses[i] = f
        if self._view is not None:
            self._stale.add(i)

    @property
    def members(self) -> tuple[Individual, ...]:
        """A read-only view for code that tells written slots by object
        identity; nothing in the package reads it but ``best``. One
        ``Individual`` per slot, holding read-only copies, rebuilt only for a
        slot written since the last read: an unwritten slot keeps its object,
        and a written one (by a tie with the same bits too) gets a new one."""
        if self._view is None:
            self._view = [None] * len(self)
            self._stale = set(range(len(self)))
        for i in self._stale:
            x = self.positions[i].copy()
            x.flags.writeable = False
            self._view[i] = Individual(x, float(self.fitnesses[i]))
        self._stale.clear()
        return tuple(self._view)

    @property
    def best_index(self) -> int:
        # ties break toward the lowest index (np.argmin already does)
        return int(np.argmin(self.fitnesses))

    @property
    def best(self) -> Individual:
        """The best member, as ``members`` shows it."""
        return self.members[self.best_index]

    @property
    def worst_index(self) -> int:
        return int(np.argmax(self.fitnesses))


def _width_overflow(lower, upper) -> int | None:
    """The first coordinate j at which the running sum of the squared widths
    ``(upper - lower) ** 2`` overflows, or None. HRAHA's habitat size is
    such a sum, and every runner's moves add multiples of a width, which stay
    finite wherever this sum does."""
    with np.errstate(over="ignore"):
        total = np.cumsum(np.square(np.subtract(upper, lower)))
    over = np.flatnonzero(np.isinf(total))
    return int(over[0]) if over.size else None


def init_population(space: SearchSpace, size: int, rng, obj) -> Population:
    """Uniform random population inside the box, evaluated as one batch of
    rows in order through ``_counting(obj)``, so a non-finite value is stored
    as +inf as it is at every later evaluation.

    Requires size >= 4: the reproduction step needs two parents plus
    replaceable worst members, and a box whose squared widths sum to a
    finite float (``_width_overflow``).
    """
    if size < 4:
        raise ValueError(f"population size must be >= 4, got {size}")
    j = _width_overflow(space.lower, space.upper)
    if j is not None:
        raise ValueError(f"the squared widths (hi - lo)**2 sum past the largest float at j={j}")
    rows = make_rng(rng).uniform(space.lower, space.upper, size=(size, space.dims))
    return Population(zip(rows, _counting(obj).batch(rows)))


class CountingObjective:
    """Wraps an objective to count evaluations and keep the best so far: the
    one evaluation contract every optimizer and random search share.

    A non-finite value is returned as +inf: a member that stores it is never
    selected as the best, and the evaluation still counts. ``best_f`` and
    ``best_x`` are the value and row of the first evaluated point strictly
    lower than every point before it, the very first point always taken (even
    at +inf); both are None until a row is scored."""

    def __init__(self, obj):
        self.obj = obj
        self.count = 0
        self.best_f = self.best_x = None

    def __call__(self, x) -> float:
        """The value at one point, scored as the one-row batch ``[x]``."""
        return self.batch([x])[0]

    def batch(self, X) -> list[float]:
        """The values at the rows of ``X`` (by the objective's ``batch``, else
        one call per row object, in order): counted, non-finite as +inf,
        Python floats. A result of the wrong shape raises ``ValueError``."""
        self.count += len(X)
        batch = getattr(self.obj, "batch", None)
        f = np.asarray(batch(X) if batch is not None else [self.obj(x) for x in X], dtype=float)
        if f.shape != (len(X),):
            raise ValueError(f"batch returned shape {f.shape} for {len(X)} rows; "
                             f"expected ({len(X)},)")
        vals = [v if math.isfinite(v) else math.inf for v in f.tolist()]
        # min and index take the first of equal values, so a tie (0.0 and
        # -0.0 included) keeps the earlier point
        if vals:
            m = min(vals)
            if self.best_f is None or m < self.best_f:
                self.best_f, self.best_x = m, X[vals.index(m)]
        return vals


def _counting(obj) -> CountingObjective:
    """``obj`` when it already counts (so a run's counter sees each
    evaluation once), else ``obj`` wrapped: the scorer of every write."""
    return obj if isinstance(obj, CountingObjective) else CountingObjective(obj)


def accept_rows(pop: Population, cands, obj, slots=None) -> None:
    """The greedy accept: score every row of ``cands`` first, as one
    ``_counting(obj).batch``, then, in row order, store row ``k`` in slot
    ``slots[k]`` (slot ``k`` by default) unless that worsens the slot's
    fitness (ties accept): a repeated slot competes with the row stored
    before."""
    fits = _counting(obj).batch(cands)
    if slots is None:
        slots = range(len(fits))
    for k, (i, f) in enumerate(zip(slots, fits, strict=True)):
        if f <= pop.fitnesses[i]:
            pop.store(i, cands[k], f)


def clamp(position: np.ndarray, space: SearchSpace) -> np.ndarray:
    """Project a position onto the box."""
    position = np.asarray(position, dtype=float)
    if position.shape[-1:] != (space.dims,):
        raise ValueError(
            f"length mismatch: position has shape {position.shape}, "
            f"space has {space.dims} entries"
        )
    return np.minimum(np.maximum(position, space.lower), space.upper)
