"""Frozen member-by-member references for ``hraha.run``, ``run_rfo``,
``run_aha``, ``run_pso`` and ``run_random_search``.

Each reference is the runner written as one loop over the members, over
plain lists of positions and fitnesses, with every operator spelled out
here: nothing is imported from the package but the benchmarks. Its only job
is to equal the package's runs bit for bit. ``run_method`` must give the
same history, best fitness, best-position bytes, evaluation count, strategy
counts and final RNG state, and its objective must see the same points in
the same order, whatever the package batches or reorders inside. Random
search is the one-sample-at-a-time loop, run on every benchmark at budgets 1,
2, 57 and 600 and once on a tuning objective, which has no ``batch``.

A signed-zero floor plateau (``TIES``) runs every runner and random search
on whole floors of ties: each reports the first evaluated point of the
lowest value, with the sign of its zero.

The grid covers every benchmark, dims 1, 2, 3, 5 and 10 (an unpaired
trailing coordinate for territorial foraging at odd dims, and diagonal flight
on every axis at dims <= 2) and populations 4, 5, 40 and 41 (move-closer
replaces two members at 40 and 41). The small populations run long enough for
migration to fire, at iteration 2 * pop_size or later, in the middle of
sweeps whose earlier members already made stay or territorial moves.
"""

import math

import numpy as np
import pytest

from foxbird import harness
from foxbird.benchmarks import BENCHMARKS, BenchmarkFn

TWO_PI = 2 * math.pi
NON_FINITE = (float("nan"), float("inf"), float("-inf"))
DIMS = (1, 2, 3, 5, 10)
POP_SIZES = (4, 5, 40, 41)
SEEDS = (0, 1)


def signed_plateau(X):
    # whole floors of ties, and the floor-0 disc is -0.0 where x[0] < 0: a
    # best-so-far rule that does not keep the first of equal values shows in
    # the best position or in the sign of a zero
    f = np.floor(np.vecdot(X, X))
    return np.where((f == 0) & (X[:, 0] < 0), -0.0, f)


TIES = {name: BenchmarkFn(name, signed_plateau, -w, w, 0.0, 0.0)
        for name, w in (("signed-plateau-1.5", 1.5), ("signed-plateau-3", 3.0))}
OBJECTIVES = {**BENCHMARKS, **TIES}


def iterations_for(pop_size):
    # past the first migration gate (iteration 2 * pop_size) for the small
    # populations; a few sweeps, with their two-member move-closer, for the
    # large ones
    return 24 if pop_size < 10 else 5


# -- the objective as the runners see it --------------------------------------

class Recorder:
    """An objective that notes every point it scores, in order, and returns a
    chosen value on chosen point numbers (1-based)."""

    def __init__(self, fn, bad=None):
        self.fn = fn
        self.bad = bad or {}
        self.points = []

    def _value(self, x, f):
        self.points.append(np.asarray(x, dtype=float).tobytes())
        return self.bad.get(len(self.points), f)

    def __call__(self, x):
        return self._value(x, self.fn(x))


class BatchRecorder(Recorder):
    """A recorded benchmark that offers ``batch``, so the package scores its
    sweeps through the benchmark's row form."""

    def batch(self, X):
        X = np.asarray(X, dtype=float)
        return np.array([self._value(x, f) for x, f in zip(X, self.fn.batch(X))])


class Scored:
    """Counted calls, one point each; a non-finite value counts as +inf. The
    best so far is the first scored point strictly lower than every point
    before it, the very first point always taken."""

    def __init__(self, fn):
        self.fn = fn
        self.count = 0
        self.best_x, self.best_f = None, math.inf

    def __call__(self, x):
        self.count += 1
        f = float(self.fn(x))
        f = f if math.isfinite(f) else math.inf
        if self.best_x is None or f < self.best_f:
            self.best_x, self.best_f = x, f
        return f


def first_min(F):
    return min(range(len(F)), key=F.__getitem__)


def first_max(F):
    return max(range(len(F)), key=F.__getitem__)


def box(x, lower, upper):
    return np.minimum(np.maximum(x, lower), upper)


def initial_population(score, lower, upper, n, rng):
    X = list(rng.uniform(lower, upper, size=(n, lower.shape[0])))
    return X, [score(x) for x in X]


# -- the operators, one member at a time --------------------------------------

def stay_move(x, nr, phis, lower, upper):
    d = x.shape[0]
    out = x.copy()
    sines = np.sin(phis)
    out[0] = x[0] + nr * sines[0]
    if d >= 2:
        cum = np.cumsum(sines)
        for k in range(1, d - 1):
            out[k] = x[k] + nr * cum[k - 1] + nr * math.cos(phis[k])
        out[d - 1] = x[d - 1] + nr * cum[d - 2]
    return box(out, lower, upper)


def territorial_move(x, lam, r, phi, phi0, theta, lower, upper):
    d = x.shape[0]
    out = x.copy()
    radial = r * np.cos(phi) + theta * np.cos(phi0)
    for p in range((d + 1) // 2):
        i = 2 * p
        out[i] = x[i] + lam * math.cos(phi[p]) * radial[p]
        if i + 1 < d:
            out[i + 1] = x[i + 1] + lam * math.sin(phi[p]) * radial[p]
    return box(out, lower, upper)


def stay(X, F, i, rng, score, lower, upper):
    theta = rng.random()
    phis = rng.uniform(0.0, TWO_PI, lower.shape[0])
    cand = stay_move(X[i], 0.2 * theta, phis, lower, upper)
    f = score(cand)
    if f <= F[i]:
        X[i], F[i] = cand, f


def move_closer(X, F, rng, score, lower, upper):
    n = len(X)
    order = np.argsort(np.array(F), kind="stable")
    p1, p2 = X[int(order[0])], X[int(order[1])]
    C = 0.5 * (p1 + p2)
    s = math.sqrt(float(np.sum((p1 - C) ** 2 + (p2 - C) ** 2)))
    lo = np.maximum(lower, C - s / 2)
    hi = np.minimum(upper, C + s / 2)
    non_alpha = sorted(int(i) for i in order[2:])
    for w in order[n - max(1, int(math.floor(0.05 * n))):]:
        if rng.random() < 0.5:
            pos = np.where(hi > lo, rng.uniform(lo, np.maximum(hi, lo + 1e-300)), lo)
        else:
            p, q = rng.choice(len(non_alpha), size=2, replace=False)
            r1 = float(rng.random())
            r2 = float(rng.random())
            a, b = X[non_alpha[p]], X[non_alpha[q]]
            child = r1 * (a - b) + b
            pos = child + r2 * (C - child)
        pos = box(pos, lower, upper)
        X[int(w)], F[int(w)] = pos, score(pos)


def migrate(X, F, rng, score, lower, upper):
    w = first_max(F)
    X[w] = lower + rng.random(lower.shape[0]) * (upper - lower)
    F[w] = score(X[w])


def guided_move(X, F, best, step_of, score, lower, upper):
    # candidate i reads only slot i and best, so scoring and accepting member
    # by member is the package's score-the-sweep-then-accept
    for i in range(len(X)):
        cand = box(X[i] + step_of(i) * (best - X[i]), lower, upper)
        f = score(cand)
        if f <= F[i]:
            X[i], F[i] = cand, f


def alpha_for(F, t, T):
    fits = np.array(F)
    fits = fits[np.isfinite(fits)]
    spread = 0.0
    if fits.size:
        f_best = fits.min()
        spread = (fits.mean() - f_best) / (fits.max() - f_best + 1e-12)
    alpha = 0.5 * spread + 0.5 * (1 - t / T)
    return float(min(1.0, max(0.0, alpha)))


def flight_masks(flight, n, d, rng):
    masks = []
    for _ in range(n):
        mask = np.ones(d)
        if flight == "axial":
            mask = np.zeros(d)
            mask[rng.integers(0, d)] = 1.0
        elif flight == "diagonal" and d > 2:
            k = int(rng.integers(2, d))
            mask = np.zeros(d)
            mask[rng.permutation(d)[:k]] = 1.0
        masks.append(mask)
    return masks


# -- the runners ---------------------------------------------------------------

def reference_hraha(fn, lower, upper, n, T, rng):
    score = Scored(fn)
    d = lower.shape[0]
    X, F = initial_population(score, lower, upper, n, rng)
    counts = dict.fromkeys(("omnidirectional", "axial", "diagonal", "none",
                            "stay_and_disguise", "territorial_foraging", "migration",
                            "move_closer"), 0)
    history = []
    last_migration = 0
    box_scale = 0.3 * float(np.mean(upper - lower))
    for t in range(T):
        alpha = alpha_for(F, t, T)
        flight = ("omnidirectional" if alpha <= 1 / 3
                  else "axial" if alpha <= 2 / 3 else "diagonal")
        counts[flight] += 1
        best = X[first_min(F)]
        g = rng.standard_normal(n)
        masks = flight_masks(flight, n, d, rng)
        guided_move(X, F, best, lambda i: alpha * g[i] * masks[i], score, lower, upper)

        for i, delta in enumerate(rng.random(n)):
            delta = float(delta)
            if delta <= 0.5:
                counts["none"] += 1
            elif delta <= 0.75:
                counts["stay_and_disguise"] += 1
                stay(X, F, i, rng, score, lower, upper)
            elif delta <= 0.85:
                counts["territorial_foraging"] += 1
                h = (d + 1) // 2
                lam = box_scale * rng.random()
                r = rng.random(h)
                phi = rng.uniform(0.0, TWO_PI, h)
                phi0 = rng.uniform(0.0, TWO_PI, h)
                theta = rng.random(h)
                cand = territorial_move(X[i], lam, r, phi, phi0, theta, lower, upper)
                f = score(cand)
                if f <= F[i]:
                    X[i], F[i] = cand, f
            elif delta <= 0.95:
                counts["migration"] += 1
                if t - last_migration >= 2 * n:
                    migrate(X, F, rng, score, lower, upper)
                    last_migration = t
            else:
                counts["move_closer"] += 1
                move_closer(X, F, rng, score, lower, upper)
        history.append(score.best_f)
    return score.best_x, score.best_f, history, score.count, counts


def reference_rfo(fn, lower, upper, n, T, rng):
    score = Scored(fn)
    X, F = initial_population(score, lower, upper, n, rng)
    history = []
    for _ in range(T):
        kappa = rng.random(n)
        guided_move(X, F, X[first_min(F)], kappa.__getitem__, score, lower, upper)
        for i in range(n):
            if rng.random() > 0.75:
                stay(X, F, i, rng, score, lower, upper)
        move_closer(X, F, rng, score, lower, upper)
        history.append(score.best_f)
    return score.best_x, score.best_f, history, score.count, {}


def reference_aha(fn, lower, upper, n, T, rng):
    score = Scored(fn)
    d = lower.shape[0]
    X, F = initial_population(score, lower, upper, n, rng)
    history = []
    last_migration = 0
    for t in range(T):
        # candidate i reads only slot i and the best, so building, scoring
        # and accepting member by member is the package's sweep
        best = X[first_min(F)]
        for i in range(n):
            u = rng.random()
            flight = ("omnidirectional" if u < 1 / 3
                      else "axial" if u < 2 / 3 else "diagonal")
            mask = flight_masks(flight, 1, d, rng)[0]
            scale = rng.standard_normal()
            if rng.random() < 0.5:  # guided: around the best
                cand = best + scale * mask * (X[i] - best)
            else:  # territorial: around the member itself
                cand = X[i] + scale * mask * (X[i] - best)
            cand = box(cand, lower, upper)
            f = score(cand)
            if f <= F[i]:
                X[i], F[i] = cand, f
        if t - last_migration >= 2 * n:
            migrate(X, F, rng, score, lower, upper)
            last_migration = t
        history.append(score.best_f)
    return score.best_x, score.best_f, history, score.count, {}


def reference_pso(fn, lower, upper, n, T, rng):
    # global-best PSO with the constriction constants w = 0.729 and
    # c1 = c2 = 1.49445; every velocity of a sweep reads the global best
    # from before it
    score = Scored(fn)
    X, F = initial_population(score, lower, upper, n, rng)
    X = np.array(X)
    V = np.zeros_like(X)
    P, PF = X.copy(), list(F)
    g = first_min(F)
    G, GF = X[g].copy(), F[g]
    history = []
    for _ in range(T):
        r1 = rng.random(X.shape)
        r2 = rng.random(X.shape)
        for i in range(n):
            V[i] = 0.729 * V[i] + 1.49445 * r1[i] * (P[i] - X[i]) + 1.49445 * r2[i] * (G - X[i])
            X[i] = box(X[i] + V[i], lower, upper)
            f = score(X[i])
            if f < PF[i]:
                P[i], PF[i] = X[i], f
        for i in range(n):
            if PF[i] < GF:
                G, GF = P[i].copy(), PF[i]
        history.append(GF)
    return G, GF, history, score.count, {}


def reference_random_search(fn, lower, upper, budget, rng):
    score = Scored(fn)
    best_x, best_f = None, math.inf
    history = []
    for _ in range(budget):
        x = rng.uniform(lower, upper)
        f = score(x)
        if best_x is None or f < best_f:  # the first sample, then strictly better
            best_x, best_f = x, f
        history.append(best_f)
    return best_x, best_f, history, score.count, {}


REFERENCES = {"aha": reference_aha, "hraha": reference_hraha, "pso": reference_pso,
              "rfo": reference_rfo}
BUDGETS = (1, 2, 57, 600)


def assert_same_run(got, ref, seen, expected, rng, ref_rng):
    position, fitness, history, evaluations, counts = ref
    assert seen.points == expected.points
    # repr tells -0.0 from 0.0
    assert repr(got.history) == repr(history)
    assert all(type(h) is float for h in got.history)
    assert repr(got.best_fitness) == repr(fitness)
    assert got.best_position.tobytes() == position.tobytes()
    assert got.evaluations == evaluations == len(seen.points)
    assert got.strategy_counts == counts
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def assert_runs_equal(method, function, dims, pop_size, seed, bad=None):
    bench = OBJECTIVES[function]
    space = bench.space(dims)
    T = iterations_for(pop_size)
    seen, expected = BatchRecorder(bench, bad), BatchRecorder(bench, bad)
    rng = np.random.Generator(np.random.PCG64(seed))
    got = harness.run_method(method, seen, space, pop_size, T, rng)
    ref_rng = np.random.Generator(np.random.PCG64(seed))
    ref = REFERENCES[method](expected, space.lower, space.upper, pop_size, T, ref_rng)
    assert_same_run(got, ref, seen, expected, rng, ref_rng)


def assert_random_search_equal(seen, expected, space, budget, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    got = harness.run_random_search(seen, space, budget, rng)
    ref_rng = np.random.Generator(np.random.PCG64(seed))
    ref = reference_random_search(expected, space.lower, space.upper, budget, ref_rng)
    assert_same_run(got, ref, seen, expected, rng, ref_rng)


@pytest.mark.parametrize("pop_size", POP_SIZES)
@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize("function", sorted(BENCHMARKS))
@pytest.mark.parametrize("method", sorted(REFERENCES))
def test_run_equals_member_by_member_reference(method, function, dims, pop_size):
    for seed in SEEDS:
        assert_runs_equal(method, function, dims, pop_size, seed)


@pytest.mark.parametrize("pop_size", POP_SIZES)
@pytest.mark.parametrize("dims", (1, 3, 10))
@pytest.mark.parametrize("method", sorted(REFERENCES))
def test_run_equals_reference_under_non_finite_values(method, dims, pop_size):
    # NaN, +inf and -inf on a seeded choice of point numbers, from the
    # initial population on
    for seed in SEEDS:
        pick = np.random.Generator(np.random.PCG64(100 + seed))
        calls = pick.choice(np.arange(1, 40 * pop_size), size=6 * pop_size, replace=False)
        bad = {int(k): NON_FINITE[int(k) % 3] for k in calls}
        assert_runs_equal(method, "rastrigin", dims, pop_size, seed, bad)


@pytest.mark.parametrize("dims", (1, 2, 3))
@pytest.mark.parametrize("function", sorted(TIES))
@pytest.mark.parametrize("method", sorted(REFERENCES))
def test_run_equals_reference_on_signed_zero_ties(method, function, dims):
    for seed in range(30):
        assert_runs_equal(method, function, dims, 4, seed)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize("function", sorted(OBJECTIVES))
def test_random_search_equals_one_sample_at_a_time(function, dims, budget):
    bench = OBJECTIVES[function]
    for seed in SEEDS:
        assert_random_search_equal(BatchRecorder(bench), BatchRecorder(bench),
                                   bench.space(dims), budget, seed)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("dims", (1, 3, 10))
def test_random_search_equals_reference_under_non_finite_values(dims, budget):
    bench = BENCHMARKS["rastrigin"]
    for seed in SEEDS:
        pick = np.random.Generator(np.random.PCG64(200 + seed))
        calls = pick.choice(np.arange(1, budget + 1), size=(budget + 1) // 2, replace=False)
        bad = {int(k): NON_FINITE[int(k) % 3] for k in calls}
        assert_random_search_equal(BatchRecorder(bench, bad), BatchRecorder(bench, bad),
                                   bench.space(dims), budget, seed)


def test_random_search_equals_reference_on_a_tuning_objective(corpus_csv):
    # the package scores the samples through the tuning objective's batch;
    # the reference calls an objective of its own one sample at a time
    space = harness.default_tuning_space()
    corpus = harness.load_corpus(corpus_csv)
    whole, rows = (harness.classifier_objective(corpus, space) for _ in range(2))
    assert_random_search_equal(BatchRecorder(whole), Recorder(rows), space.to_box(), 57, 0)
