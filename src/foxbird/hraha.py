"""Hybrid red-fox / hummingbird optimizer.

Each iteration runs a global flight phase (movement toward the incumbent
best, with omnidirectional / axial / diagonal direction masks selected by a
scaling factor alpha) followed by per-member local strategies gated by a
uniform draw delta:

    delta <= 0.5          no local move
    0.5  < delta <= 0.75  stay-and-disguise (circling perturbation)
    0.75 < delta <= 0.85  territorial foraging (paired circular step)
    0.85 < delta <= 0.95  migration of the worst member (iteration-gated)
    0.95 < delta <= 1     reproduction replacing a share of the worst

Candidate moves in the global, stay and territorial phases are accepted
greedily (only if they do not worsen fitness); migration replaces the worst
member unconditionally. Elitism reinjects the best-so-far individual, in
place of the worst member, if an iteration loses it.

``run(obj, space, pop_size, max_iters, rng)`` has the signature of every
baseline runner. Its fixed parameters are module constants, read at call
time: ``OMEGA`` (0.5, the spread weight in alpha), ``ALPHA_THRESHOLDS``
(1/3, 2/3: the alpha cut points of omnidirectional / axial / diagonal flight),
``SCALING_A`` (0.2, the stay radius scale), ``WORST_FRACTION`` (0.05, the
share move-closer replaces) and ``NOMAD_PROBABILITY`` (0.5). The worst
member migrates at most once every ``2 * pop_size`` iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CountingObjective,
    Individual,
    Population,
    SearchSpace,
    accept_if_better,
    clamp,
    init_population,
    make_rng,
)

__all__ = [
    "OptimizationResult",
    "compute_alpha",
    "select_flight",
    "flight_mask",
    "step_toward",
    "global_search_step",
    "strategy_for_delta",
    "stay_and_disguise",
    "stay_step",
    "territorial_foraging",
    "migrate_worst",
    "habitat_center",
    "habitat_size",
    "crossover",
    "mutate",
    "move_closer_reproduce",
    "run",
]

OMNIDIRECTIONAL = "omnidirectional"
AXIAL = "axial"
DIAGONAL = "diagonal"
FLIGHT_KINDS = (OMNIDIRECTIONAL, AXIAL, DIAGONAL)

STRAT_NONE = "none"
STRAT_STAY = "stay_and_disguise"
STRAT_TERRITORIAL = "territorial_foraging"
STRAT_MIGRATION = "migration"
STRAT_MOVE_CLOSER = "move_closer"
LOCAL_STRATEGIES = (
    STRAT_NONE,
    STRAT_STAY,
    STRAT_TERRITORIAL,
    STRAT_MIGRATION,
    STRAT_MOVE_CLOSER,
)

OMEGA = 0.5
ALPHA_THRESHOLDS = (1 / 3, 2 / 3)
SCALING_A = 0.2
WORST_FRACTION = 0.05
NOMAD_PROBABILITY = 0.5


@dataclass
class OptimizationResult:
    best_position: np.ndarray
    best_fitness: float
    history: list[float]
    evaluations: int
    strategy_counts: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Global flight phase
# ---------------------------------------------------------------------------

def compute_alpha(pop: Population, omega: float, t: int, T: int) -> float:
    """Scaling factor blending normalized fitness spread with an iteration
    schedule; clamped to [0, 1]."""
    fits = pop.fitnesses()
    fits = fits[np.isfinite(fits)]  # members stored at +inf take no part
    spread = 0.0  # ... and with no finite member only the schedule counts
    if fits.size:
        f_best = fits.min()
        spread = (fits.mean() - f_best) / (fits.max() - f_best + 1e-12)
    alpha = omega * spread + (1 - omega) * (1 - t / T)
    return float(min(1.0, max(0.0, alpha)))


def select_flight(alpha: float, thresholds) -> str:
    a1, a2 = thresholds
    if alpha <= a1:
        return OMNIDIRECTIONAL
    if alpha <= a2:
        return AXIAL
    return DIAGONAL


def flight_mask(kind: str, dims: int, rng) -> np.ndarray:
    """0/1 direction mask: all axes, one axis, or a strict subset of axes."""
    if kind == OMNIDIRECTIONAL:
        return np.ones(dims)
    if kind == AXIAL:
        mask = np.zeros(dims)
        mask[rng.integers(0, dims)] = 1.0
        return mask
    if kind == DIAGONAL:
        if dims <= 2:
            return np.ones(dims)
        k = int(rng.integers(2, dims))  # subset size in 2..dims-1
        mask = np.zeros(dims)
        mask[rng.permutation(dims)[:k]] = 1.0
        return mask
    raise ValueError(f"unknown flight kind {kind!r}")


def step_toward(pop: Population, target: np.ndarray, step: np.ndarray,
                space: SearchSpace, obj) -> Population:
    """Move every member ``step`` of the way toward ``target``; greedy accept.

    The candidates are one clamped matrix (``step`` broadcasts against the
    ``(n, d)`` positions), evaluated and accepted one by one in member order:
    the member-by-member move of the global step and of RFO's guided move."""
    P = pop.positions()
    cands = clamp(P + step * (target - P), space)
    for i, cand in enumerate(cands):
        accept_if_better(pop, i, cand, obj)
    return pop


def global_search_step(pop: Population, best: Individual, alpha: float,
                       flight: str, rng, space: SearchSpace, obj) -> Population:
    """Move every member toward the best along the flight mask; greedy accept.

    The step is ``alpha * g * mask`` per member, with g a standard normal
    draw. The masks draw from ``rng`` in the same order as one
    ``flight_mask`` call per member."""
    rng = make_rng(rng)
    n, d = len(pop), space.dims
    g = rng.standard_normal(n)
    if flight == OMNIDIRECTIONAL:
        masks = np.ones((n, d))
    elif flight == AXIAL:
        masks = np.zeros((n, d))
        masks[np.arange(n), rng.integers(0, d, size=n)] = 1.0
    else:
        masks = np.array([flight_mask(flight, d, rng) for _ in range(n)])
    return step_toward(pop, best.position, alpha * g[:, None] * masks, space, obj)


# ---------------------------------------------------------------------------
# Local strategies
# ---------------------------------------------------------------------------

def strategy_for_delta(delta: float) -> str:
    if delta <= 0.5:
        return STRAT_NONE
    if delta <= 0.75:
        return STRAT_STAY
    if delta <= 0.85:
        return STRAT_TERRITORIAL
    if delta <= 0.95:
        return STRAT_MIGRATION
    return STRAT_MOVE_CLOSER


def stay_and_disguise(position: np.ndarray, nr: float, phis: np.ndarray,
                      space: SearchSpace) -> np.ndarray:
    """Circling perturbation: chained sine offsets with one cosine cross-term
    per middle coordinate; clamped to the box."""
    position = np.asarray(position, dtype=float)
    phis = np.asarray(phis, dtype=float)
    cum = np.cumsum(np.sin(phis))
    # coordinate k moves by nr * cum[k - 1] (nr * sin(phi_0) for k = 0) ...
    out = position + nr * np.concatenate((cum[:1], cum[:-1]))
    # ... and each middle coordinate also by nr * cos(phi_k)
    out[1:-1] += nr * np.cos(phis[1:-1])
    return clamp(out, space)


def stay_step(pop: Population, i: int, rng, space: SearchSpace, obj) -> None:
    """Member ``i``'s stay-and-disguise move: draw theta, then the angles,
    and accept greedily. HRAHA's stay strategy and RFO's local move."""
    theta = rng.random()
    phis = rng.uniform(0.0, 2 * math.pi, space.dims)
    cand = stay_and_disguise(pop.members[i].position, SCALING_A * theta, phis, space)
    accept_if_better(pop, i, cand, obj)


def territorial_foraging(position: np.ndarray, lam: float, r, phi, phi0, theta,
                         space: SearchSpace) -> np.ndarray:
    """Paired circular step: coordinates are processed in consecutive (x, y)
    pairs; a trailing unpaired coordinate takes the x-update alone. The angle
    and radius parameters may be scalars or per-pair vectors."""
    position = np.asarray(position, dtype=float)
    d = position.shape[0]
    r, phi, phi0, theta = (np.asarray(v, dtype=float) for v in (r, phi, phi0, theta))
    radial = np.broadcast_to(r * np.cos(phi) + theta * np.cos(phi0), ((d + 1) // 2,))
    out = position.copy()
    out[0::2] += lam * np.cos(phi) * radial
    out[1::2] += (lam * np.sin(phi) * radial)[: d // 2]
    return clamp(out, space)


def migrate_worst(pop: Population, space: SearchSpace, rng, last_migration: int,
                  current_iter: int, M: int, obj):
    """Re-seed the worst member uniformly in the box if at least M iterations
    passed since the last migration. The new member is evaluated
    unconditionally (the old source is abandoned, no greedy test).

    Returns (migrated, r_draws); r_draws is the per-dimension uniform vector
    used by the re-seeding, or None when the gate was closed.
    """
    if current_iter - last_migration < M:
        return False, None
    rng = make_rng(rng)
    w = pop.worst_index
    r = rng.random(space.dims)
    pos = space.lower + r * (space.upper - space.lower)
    pop.members[w] = Individual(pos, float(obj(pos)))
    return True, r


def habitat_center(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape:
        raise ValueError("length mismatch")
    return 0.5 * (p1 + p2)


def habitat_size(p1: np.ndarray, p2: np.ndarray, C: np.ndarray) -> float:
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    C = np.asarray(C, dtype=float)
    if not (p1.shape == p2.shape == C.shape):
        raise ValueError("length mismatch")
    return float(np.sum((p1 - C) ** 2 + (p2 - C) ** 2))


def crossover(parent1: np.ndarray, parent2: np.ndarray, r1: float) -> np.ndarray:
    parent1 = np.asarray(parent1, dtype=float)
    parent2 = np.asarray(parent2, dtype=float)
    if parent1.shape != parent2.shape:
        raise ValueError("length mismatch")
    return r1 * (parent1 - parent2) + parent2


def mutate(child: np.ndarray, C: np.ndarray, r2: float) -> np.ndarray:
    child = np.asarray(child, dtype=float)
    C = np.asarray(C, dtype=float)
    if child.shape != C.shape:
        raise ValueError("length mismatch")
    return child + r2 * (C - child)


def move_closer_reproduce(pop: Population, rng, space: SearchSpace, obj) -> Population:
    """Replace the worst share of the population with nomads spawned around
    the alpha couple's habitat or crossover/mutation offspring."""
    if len(pop) < 4:
        raise ValueError("population size must be >= 4")
    rng = make_rng(rng)
    fits = pop.fitnesses()
    order = np.argsort(fits, kind="stable")
    a1, a2 = int(order[0]), int(order[1])
    C = habitat_center(pop.members[a1].position, pop.members[a2].position)
    D = habitat_size(pop.members[a1].position, pop.members[a2].position, C)
    s = math.sqrt(D)
    lo = np.maximum(space.lower, C - s / 2)
    hi = np.minimum(space.upper, C + s / 2)
    k = max(1, int(math.floor(WORST_FRACTION * len(pop))))
    worst = [int(i) for i in order[len(pop) - k:]]
    non_alpha = np.sort(order[2:])
    for w in worst:
        if rng.random() < NOMAD_PROBABILITY:
            pos = np.where(hi > lo, rng.uniform(lo, np.maximum(hi, lo + 1e-300)), lo)
        else:
            p, q = rng.choice(len(non_alpha), size=2, replace=False)
            r1 = float(rng.random())
            r2 = float(rng.random())
            child = crossover(pop.members[non_alpha[p]].position,
                              pop.members[non_alpha[q]].position, r1)
            pos = mutate(child, C, r2)
        pos = clamp(pos, space)
        pop.members[w] = Individual(pos, float(obj(pos)))
    return pop


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

def run(obj, space: SearchSpace, pop_size: int, max_iters: int, rng) -> OptimizationResult:
    """Full optimization loop; deterministic for a fixed seed."""
    rng = make_rng(rng)
    counted = CountingObjective(obj)
    M = 2 * pop_size  # iterations between migrations

    pop = init_population(space, pop_size, rng, counted)

    counts = {k: 0 for k in FLIGHT_KINDS + LOCAL_STRATEGIES}
    history: list[float] = []
    last_migration = 0
    incumbent = pop.best
    # territorial step scale tied to the box width so hops can cross basins
    box_scale = 0.3 * float(np.mean(space.upper - space.lower))

    for t in range(max_iters):
        alpha = compute_alpha(pop, OMEGA, t, max_iters)
        flight = select_flight(alpha, ALPHA_THRESHOLDS)
        counts[flight] += 1
        global_search_step(pop, pop.best, alpha, flight, rng, space, counted)

        deltas = rng.random(len(pop))
        for i, delta in enumerate(deltas):
            strat = strategy_for_delta(float(delta))
            counts[strat] += 1
            if strat == STRAT_STAY:
                stay_step(pop, i, rng, space, counted)
            elif strat == STRAT_TERRITORIAL:
                n_pairs = (space.dims + 1) // 2
                lam = box_scale * rng.random()
                r = rng.random(n_pairs)
                phi = rng.uniform(0.0, 2 * math.pi, n_pairs)
                phi0 = rng.uniform(0.0, 2 * math.pi, n_pairs)
                theta = rng.random(n_pairs)
                cand = territorial_foraging(pop.members[i].position, lam, r, phi, phi0,
                                            theta, space)
                accept_if_better(pop, i, cand, counted)
            elif strat == STRAT_MIGRATION:
                migrated, _ = migrate_worst(pop, space, rng, last_migration, t, M, counted)
                if migrated:
                    last_migration = t
            elif strat == STRAT_MOVE_CLOSER:
                move_closer_reproduce(pop, rng, space, counted)

        cur_best = pop.best
        if cur_best.fitness > incumbent.fitness:
            pop.members[pop.worst_index] = incumbent
        else:
            incumbent = cur_best

        history.append(incumbent.fitness)

    return OptimizationResult(
        best_position=incumbent.position,
        best_fitness=float(incumbent.fitness),
        history=history,
        evaluations=counted.count,
        strategy_counts=counts,
    )
