"""Hybrid red-fox / hummingbird optimizer.

Each iteration runs a global flight phase (movement toward the population's
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
member unconditionally. HRAHA is elitist by construction: greedy accepts
never worsen a slot, migration rewrites the worst slot (the best only when all
members tie) and, while ``WORST_FRACTION < 1``, move-closer never rewrites the
first-ranked member. So no step raises the population's best fitness. Every
step reads the population's position and fitness arrays, and every writer
scores through ``CountingObjective`` and stores through ``Population.store``:
a stored fitness is finite or +inf.

The stay and territorial moves of a sweep are queued and scored in batches
(``LocalMoves``). Each draws only uniforms and reads and writes only its own
slot, so its candidate can wait until a step that reads another slot. The
queue is flushed before a migration whose gate is open, before move-closer
and at the end of the sweep, and a flush scores it in queue order, which is
member order here. So the draws, the points scored and their order are
those of one move at a time.

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
    Population,
    SearchSpace,
    _counting,
    accept_rows,
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
    "territorial_foraging",
    "LocalMoves",
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

def _gaps(fits: np.ndarray, f_best, f_worst):
    """How far the mean (as ``ndarray.mean`` takes it) and the worst lie above the best."""
    return fits.sum() / fits.size - f_best, f_worst - f_best


def compute_alpha(pop: Population, t: int, T: int) -> float:
    """Scaling factor blending normalized fitness spread with an iteration
    schedule; clamped to [0, 1]. Where the fitnesses' mean or range
    overflows, the spread is taken on them divided by a power of two near
    their largest magnitude, which scales both exactly (barring subnormals)."""
    # members stored at +inf (or NaN or -inf) take no part
    fits = pop.fitnesses[np.isfinite(pop.fitnesses)]
    spread = 0.0  # ... and with no finite member only the schedule counts
    if fits.size:
        f_best, f_worst = fits.min(), fits.max()
        big = max(-float(f_best), float(f_worst))
        if math.isfinite(2 * big * fits.size):  # no partial sum or difference nears overflow
            mean_gap, worst_gap = _gaps(fits, f_best, f_worst)
        else:  # numpy's warning state is only touched here: it is slow to switch
            with np.errstate(over="ignore", invalid="ignore"):
                mean_gap, worst_gap = _gaps(fits, f_best, f_worst)
            if not (math.isfinite(mean_gap) and math.isfinite(worst_gap)):
                fits = np.ldexp(fits, -math.frexp(big)[1])
                mean_gap, worst_gap = _gaps(fits, fits.min(), fits.max())
        spread = mean_gap / (worst_gap + 1e-12)
    alpha = OMEGA * spread + (1 - OMEGA) * (1 - t / T)
    return float(min(1.0, max(0.0, alpha)))


def select_flight(alpha: float) -> str:
    a1, a2 = ALPHA_THRESHOLDS
    if alpha <= a1:
        return OMNIDIRECTIONAL
    if alpha <= a2:
        return AXIAL
    return DIAGONAL


def flight_mask(kind: str, dims: int, rng) -> np.ndarray:
    """0/1 direction mask: all axes, one axis, or a strict subset of axes,
    written by ``_set_mask`` into a zero vector."""
    mask = np.zeros(dims)
    _set_mask(mask, kind, rng)
    return mask


def _set_mask(row: np.ndarray, kind: str, rng) -> None:
    """Write ``kind``'s mask into the zero row ``row``, drawing what
    ``flight_mask`` draws, in its order; an unknown kind raises before any draw."""
    dims = len(row)
    if kind == OMNIDIRECTIONAL or (kind == DIAGONAL and dims <= 2):
        row[:] = 1.0
    elif kind == AXIAL:
        row[rng.integers(0, dims)] = 1.0
    elif kind == DIAGONAL:
        k = rng.integers(2, dims)  # subset size in 2..dims-1, drawn before the subset
        row[rng.permutation(dims)[:k]] = 1.0
    else:
        raise ValueError(f"unknown flight kind {kind!r}")


def step_toward(pop: Population, step: np.ndarray, space: SearchSpace, obj) -> None:
    """Move every member ``step`` of the way toward ``pop.best``, read once
    before any accept; greedy accept.

    The candidates are one clamped matrix (``step`` broadcasts against the
    ``(n, d)`` positions), evaluated as one batch and accepted in member
    order: the move of the global step and of RFO's guided move."""
    P = pop.positions
    accept_rows(pop, clamp(P + step * (P[pop.best_index] - P), space), obj)


def global_search_step(pop: Population, alpha: float, flight: str, rng,
                       space: SearchSpace, obj) -> None:
    """Move every member toward ``pop.best`` along the flight mask; greedy accept.

    The step is ``alpha * g * mask`` per member, with g a standard normal
    draw. ``rng`` is the run's Generator; the masks draw from it in the same
    order as one ``flight_mask`` call per member."""
    n, d = len(pop), space.dims
    g = rng.standard_normal(n)
    if flight == OMNIDIRECTIONAL:
        masks = np.ones((n, d))
    elif flight == AXIAL:
        masks = np.zeros((n, d))
        masks[np.arange(n), rng.integers(0, d, size=n)] = 1.0
    else:
        masks = np.array([flight_mask(flight, d, rng) for _ in range(n)])
    step_toward(pop, alpha * g[:, None] * masks, space, obj)


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


def stay_and_disguise(position: np.ndarray, nr, phis: np.ndarray,
                      space: SearchSpace) -> np.ndarray:
    """Circling perturbation: chained sine offsets with one cosine cross-term
    per middle coordinate; clamped to the box.

    ``position`` and ``phis`` are one point's ``(d,)`` vectors, or ``(m, d)``
    rows with ``nr`` one radius per row; each row is that row's move alone."""
    position = np.asarray(position, dtype=float)
    phis = np.asarray(phis, dtype=float)
    nr = np.asarray(nr, dtype=float)[..., None]
    cum = np.cumsum(np.sin(phis), axis=-1)
    # coordinate k moves by nr * cum[k - 1] (nr * sin(phi_0) for k = 0) ...
    out = position + nr * np.concatenate((cum[..., :1], cum[..., :-1]), axis=-1)
    # ... and each middle coordinate also by nr * cos(phi_k)
    out[..., 1:-1] += nr * np.cos(phis[..., 1:-1])
    return clamp(out, space)


def territorial_foraging(position: np.ndarray, lam, r, phi, phi0, theta,
                         space: SearchSpace) -> np.ndarray:
    """Paired circular step: coordinates are processed in consecutive (x, y)
    pairs; a trailing unpaired coordinate takes the x-update alone. The angle
    and radius parameters may be scalars or per-pair vectors.

    ``position`` may also be ``(m, d)`` rows, with ``lam`` one value per row
    and the others ``(m, pairs)``; each row is that row's move alone."""
    position = np.asarray(position, dtype=float)
    d = position.shape[-1]
    lam = np.asarray(lam, dtype=float)[..., None]
    r, phi, phi0, theta = (np.asarray(v, dtype=float) for v in (r, phi, phi0, theta))
    cos_phi = np.cos(phi)
    radial = r * cos_phi + theta * np.cos(phi0)
    out = position.copy()
    # a scalar parameter leaves the products one wide; they broadcast per pair
    out[..., 0::2] += lam * cos_phi * radial
    out[..., 1::2] += (lam * np.sin(phi) * radial)[..., : d // 2]
    return clamp(out, space)


class LocalMoves:
    """Stay and territorial moves queued, then scored as one batch in queue
    order (member order in ``run`` and ``run_rfo``).

    ``stay`` and ``territorial`` draw a move's uniforms at once, in one
    ``rng.random`` call: the stream of drawing theta (or lambda's factor)
    and then each vector, with ``2 pi * u`` for an angle as
    ``rng.uniform(0, 2 pi)`` gives it. ``flush`` builds every queued
    candidate from its slot's position, scores them as one batch and accepts
    them in queue order through ``accept_rows``; a caller that queues out of
    member order has them scored in that order, not by slot. A move reads and
    writes only its own slot, so it may wait; a flush must come before any
    step that reads or writes another slot."""

    def __init__(self, space: SearchSpace):
        self.space = space
        self.pairs = (space.dims + 1) // 2
        # territorial step scale tied to the box width so hops can cross basins
        self.box_scale = 0.3 * float(np.mean(space.upper - space.lower))
        # (slot, is_stay, uniforms): theta's, then the d angles', for a stay;
        # lambda's, then r, phi, phi0 and theta, for a territorial move
        self.queue: list = []

    def stay(self, i: int, rng) -> None:
        self.queue.append((i, True, rng.random(self.space.dims + 1)))

    def territorial(self, i: int, rng) -> None:
        self.queue.append((i, False, rng.random(1 + 4 * self.pairs)))

    def flush(self, pop: Population, obj) -> None:
        """Score and accept every queued move; the queue is left empty."""
        if not self.queue:
            return
        slots, kinds, draws = zip(*self.queue)
        self.queue.clear()
        stay = np.array(kinds)
        cands = pop.positions[list(slots)]
        if any(kinds):
            U = np.array([u for u, s in zip(draws, kinds) if s])
            cands[stay] = stay_and_disguise(cands[stay], SCALING_A * U[:, 0],
                                            2 * math.pi * U[:, 1:], self.space)
        if not all(kinds):
            U = np.array([u for u, s in zip(draws, kinds) if not s])
            r, phi, phi0, theta = U[:, 1:].reshape(len(U), 4, self.pairs).swapaxes(0, 1)
            cands[~stay] = territorial_foraging(cands[~stay], self.box_scale * U[:, 0], r,
                                                2 * math.pi * phi, 2 * math.pi * phi0,
                                                theta, self.space)
        accept_rows(pop, cands, obj, slots)


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
    w = pop.worst_index
    r = rng.random(space.dims)
    pos = space.lower + r * (space.upper - space.lower)
    pop.store(w, pos, _counting(obj)(pos))
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


def move_closer_reproduce(pop: Population, rng, space: SearchSpace, obj) -> None:
    """Replace the worst share of the population with nomads spawned around
    the alpha couple's habitat or crossover/mutation offspring. A nomad is drawn
    in the box cut to ``C +- sqrt(habitat_size) / 2``, per coordinate as
    ``lo + (hi - lo) * rng.random(d)`` (``rng.uniform``'s stream); ``lo`` if zero-width."""
    if len(pop) < 4:
        raise ValueError("population size must be >= 4")
    P = pop.positions
    order = np.argsort(pop.fitnesses, kind="stable")
    p1, p2 = P[order[:2]]  # copies: a write to the couple's slots leaves them
    C = habitat_center(p1, p2)
    k = max(1, int(math.floor(WORST_FRACTION * len(pop))))
    for w in order[len(pop) - k:].tolist():
        if rng.random() < NOMAD_PROBABILITY:
            s = math.sqrt(habitat_size(p1, p2, C))
            lo = np.maximum(space.lower, C - s / 2)
            hi = np.minimum(space.upper, C + s / 2)
            pos = np.where(hi > lo, lo + (hi - lo) * rng.random(space.dims), lo)
        else:
            non_alpha = np.sort(order[2:])
            p, q = rng.choice(len(non_alpha), size=2, replace=False)
            r1 = float(rng.random())
            r2 = float(rng.random())
            child = crossover(P[non_alpha[p]], P[non_alpha[q]], r1)
            pos = mutate(child, C, r2)
        pos = clamp(pos, space)
        pop.store(w, pos, _counting(obj)(pos))


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
    local = LocalMoves(space)

    for t in range(max_iters):
        alpha = compute_alpha(pop, t, max_iters)
        flight = select_flight(alpha)
        counts[flight] += 1
        global_search_step(pop, alpha, flight, rng, space, counted)

        for i, delta in enumerate(rng.random(len(pop)).tolist()):
            strat = strategy_for_delta(delta)
            counts[strat] += 1
            if strat == STRAT_STAY:
                local.stay(i, rng)
            elif strat == STRAT_TERRITORIAL:
                local.territorial(i, rng)
            elif strat == STRAT_MIGRATION:
                if t - last_migration >= M:  # an open gate rewrites the worst slot
                    local.flush(pop, counted)
                migrated, _ = migrate_worst(pop, space, rng, last_migration, t, M, counted)
                if migrated:
                    last_migration = t
            elif strat == STRAT_MOVE_CLOSER:
                local.flush(pop, counted)
                move_closer_reproduce(pop, rng, space, counted)
        local.flush(pop, counted)
        history.append(counted.best_f)
    return OptimizationResult(counted.best_x, counted.best_f, history, counted.count, counts)
