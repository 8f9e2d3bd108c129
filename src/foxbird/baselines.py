"""Baseline optimizers: red-fox search, hummingbird search, and PSO.

All three return the same result shape as the hybrid optimizer so the
harness can put them in one comparison table. The fox baseline reuses the
hybrid's guided step (``step_toward``, its global step's move toward the
best), its queued stay moves (``LocalMoves``, flushed before reproduction)
and its reproduction operators; the hummingbird baseline reuses its flight
masks and migration.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CountingObjective,
    SearchSpace,
    accept_rows,
    clamp,
    init_population,
    make_rng,
)
from .hraha import (
    AXIAL,
    DIAGONAL,
    OMNIDIRECTIONAL,
    LocalMoves,
    OptimizationResult,
    flight_mask,
    migrate_worst,
    move_closer_reproduce,
    step_toward,
)

__all__ = ["run_rfo", "run_aha", "run_pso"]

# canonical constriction-style PSO constants
PSO_INERTIA = 0.729
PSO_COGNITIVE = 1.49445
PSO_SOCIAL = 1.49445


def run_rfo(obj, space: SearchSpace, pop_size: int, max_iters: int,
            rng) -> OptimizationResult:
    """Red-fox search: greedy global move toward the best, a chance of a
    local circling move, then reproduction replacing the worst share. The
    step scale, worst share and nomad probability are the hybrid's."""
    rng = make_rng(rng)
    counted = CountingObjective(obj)
    pop = init_population(space, pop_size, rng, counted)
    history = []
    local = LocalMoves(space)
    for _ in range(max_iters):
        step_toward(pop, pop.best.position, rng.random(len(pop))[:, None], space, counted)
        for i in range(len(pop)):
            if rng.random() > 0.75:
                local.stay(i, rng)
        local.flush(pop, counted)
        move_closer_reproduce(pop, rng, space, counted)
        history.append(counted.best_f)
    return OptimizationResult(counted.best_x, counted.best_f, history, counted.count)


def run_aha(obj, space: SearchSpace, pop_size: int, max_iters: int,
            rng) -> OptimizationResult:
    """Hummingbird search: flight-masked guided or territorial foraging with
    greedy acceptance, plus migration of the worst member at most once every
    2 * pop_size iterations."""
    rng = make_rng(rng)
    counted = CountingObjective(obj)
    M = 2 * pop_size
    pop = init_population(space, pop_size, rng, counted)
    history = []
    last_migration = 0
    n = len(pop)
    for t in range(max_iters):
        # every candidate is built before any is accepted: candidate i reads
        # only slot i and best_pos, which no accept of this sweep changes.
        # The draws stay per member: the flight kind, its mask, the scale b
        # and the guided-or-territorial coin.
        best_pos = pop.best.position
        masks, b, guided = np.empty((n, space.dims)), np.empty((n, 1)), np.empty((n, 1), bool)
        for i in range(n):
            u = rng.random()
            if u < 1 / 3:
                kind = OMNIDIRECTIONAL
            elif u < 2 / 3:
                kind = AXIAL
            else:
                kind = DIAGONAL
            masks[i] = flight_mask(kind, space.dims, rng)
            b[i] = rng.standard_normal()
            guided[i] = rng.random() < 0.5
        X = pop.positions()
        # guided foraging steps from the best food source, territorial
        # foraging from the member's own; either step is relative to the
        # guiding source, not the origin, to avoid center-of-domain bias on
        # symmetric benchmarks
        source = np.where(guided, best_pos, X)
        accept_rows(pop, clamp(source + b * masks * (X - best_pos), space), counted)
        migrated, _ = migrate_worst(pop, space, rng, last_migration, t, M, counted)
        if migrated:
            last_migration = t
        history.append(counted.best_f)
    return OptimizationResult(counted.best_x, counted.best_f, history, counted.count)


def run_pso(obj, space: SearchSpace, pop_size: int, max_iters: int,
            rng) -> OptimizationResult:
    """Global-best PSO with the canonical constriction constants; the
    constriction factors make a separate velocity clamp unnecessary."""
    rng = make_rng(rng)
    counted = CountingObjective(obj)
    pop = init_population(space, pop_size, rng, counted)
    X = pop.positions()
    F = pop.fitnesses()
    V = np.zeros_like(X)
    pbest_X = X.copy()
    pbest_F = F.copy()
    history = []
    for _ in range(max_iters):
        r1 = rng.random(X.shape)
        r2 = rng.random(X.shape)
        V = (PSO_INERTIA * V + PSO_COGNITIVE * r1 * (pbest_X - X)
             + PSO_SOCIAL * r2 * (counted.best_x - X))
        X = clamp(X + V, space)
        F = np.array(counted.batch(X))
        better = F < pbest_F
        pbest_F[better] = F[better]
        pbest_X[better] = X[better]
        history.append(counted.best_f)
    return OptimizationResult(counted.best_x, counted.best_f, history, counted.count)
