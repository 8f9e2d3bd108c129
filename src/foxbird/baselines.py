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
    incumbent = pop.best
    history = []
    local = LocalMoves(space)
    for _ in range(max_iters):
        step_toward(pop, pop.best.position, rng.random(len(pop))[:, None], space, counted)
        for i in range(len(pop)):
            if rng.random() > 0.75:
                local.stay(i, rng)
        local.flush(pop, counted)
        move_closer_reproduce(pop, rng, space, counted)
        if pop.best.fitness < incumbent.fitness:
            incumbent = pop.best
        history.append(incumbent.fitness)
    return OptimizationResult(incumbent.position, incumbent.fitness, history, counted.count)


def run_aha(obj, space: SearchSpace, pop_size: int, max_iters: int,
            rng) -> OptimizationResult:
    """Hummingbird search: flight-masked guided or territorial foraging with
    greedy acceptance, plus migration of the worst member at most once every
    2 * pop_size iterations."""
    rng = make_rng(rng)
    counted = CountingObjective(obj)
    M = 2 * pop_size
    pop = init_population(space, pop_size, rng, counted)
    incumbent = pop.best
    history = []
    last_migration = 0
    for t in range(max_iters):
        # every candidate is built before any is accepted: candidate i reads
        # only slot i and best_pos, which no accept of this sweep changes
        best_pos = pop.best.position
        steps = []
        for i in range(len(pop)):
            u = rng.random()
            if u < 1 / 3:
                kind = OMNIDIRECTIONAL
            elif u < 2 / 3:
                kind = AXIAL
            else:
                kind = DIAGONAL
            mask = flight_mask(kind, space.dims, rng)
            b = rng.standard_normal()
            x = pop.members[i].position
            if rng.random() < 0.5:
                # guided foraging toward the best food source
                steps.append(best_pos + b * mask * (x - best_pos))
            else:
                # territorial foraging around the current source; the step is
                # relative to the guiding source, not the origin, to avoid
                # center-of-domain bias on symmetric benchmarks
                steps.append(x + b * mask * (x - best_pos))
        accept_rows(pop, clamp(np.array(steps), space), counted)
        migrated, _ = migrate_worst(pop, space, rng, last_migration, t, M, counted)
        if migrated:
            last_migration = t
        if pop.best.fitness < incumbent.fitness:
            incumbent = pop.best
        history.append(incumbent.fitness)
    return OptimizationResult(incumbent.position, incumbent.fitness, history, counted.count)


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
    g = int(np.argmin(F))
    gbest_x = X[g].copy()
    gbest_f = float(F[g])
    history = []
    for _ in range(max_iters):
        r1 = rng.random(X.shape)
        r2 = rng.random(X.shape)
        V = (PSO_INERTIA * V + PSO_COGNITIVE * r1 * (pbest_X - X)
             + PSO_SOCIAL * r2 * (gbest_x - X))
        X = clamp(X + V, space)
        F = np.array(counted.batch(X))
        better = F < pbest_F
        pbest_F[better] = F[better]
        pbest_X[better] = X[better]
        # gbest_f <= every old pbest, so only an improved pbest can beat it,
        # and argmin takes the first of equal minima as a strict < in member
        # order would
        g = int(np.argmin(pbest_F))
        if pbest_F[g] < gbest_f:
            gbest_f = float(pbest_F[g])
            gbest_x = pbest_X[g].copy()
        history.append(gbest_f)
    return OptimizationResult(gbest_x, gbest_f, history, counted.count)
