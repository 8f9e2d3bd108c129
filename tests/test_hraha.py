import copy
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from foxbird import hraha
from foxbird.core import (
    Individual,
    Population,
    SearchSpace,
    accept_if_better,
    clamp,
    make_rng,
)
from foxbird.hraha import (
    AXIAL,
    DIAGONAL,
    OMNIDIRECTIONAL,
    STRAT_MIGRATION,
    STRAT_MOVE_CLOSER,
    STRAT_NONE,
    STRAT_STAY,
    STRAT_TERRITORIAL,
    compute_alpha,
    crossover,
    flight_mask,
    global_search_step,
    habitat_center,
    habitat_size,
    migrate_worst,
    move_closer_reproduce,
    mutate,
    run,
    select_flight,
    stay_and_disguise,
    stay_step,
    step_toward,
    strategy_for_delta,
    territorial_foraging,
)


def sphere(x):
    return float(np.dot(x, x))


def evaluated(positions, obj=sphere):
    return Population([Individual(p, float(obj(p))) for p in positions])


def pop_with_fitnesses(fits):
    return Population([Individual(np.array([float(i)]), float(f))
                       for i, f in enumerate(fits)])


class TestComputeAlpha:
    def test_zero_spread(self):
        assert compute_alpha(pop_with_fitnesses([2, 2, 2]), 1.0, 0, 10) == 0.0

    def test_schedule_only(self):
        pop = pop_with_fitnesses([1, 2, 3])
        assert compute_alpha(pop, 0.0, 0, 10) == 1.0
        assert compute_alpha(pop, 0.0, 9, 10) == pytest.approx(0.1)

    def test_hand_value(self):
        pop = pop_with_fitnesses([0, 1, 2])
        assert compute_alpha(pop, 1.0, 0, 10) == pytest.approx(0.5, abs=1e-9)


class TestSelectFlight:
    THRESHOLDS = (1 / 3, 2 / 3)

    def test_low_alpha(self):
        assert select_flight(0.1, self.THRESHOLDS) == OMNIDIRECTIONAL

    def test_boundary_right_inclusive(self):
        assert select_flight(1 / 3, self.THRESHOLDS) == OMNIDIRECTIONAL
        assert select_flight(2 / 3, self.THRESHOLDS) == AXIAL

    def test_high_alpha(self):
        assert select_flight(0.9, self.THRESHOLDS) == DIAGONAL

    def test_overflow_clamps(self):
        assert select_flight(1.5, self.THRESHOLDS) == DIAGONAL


class TestFlightMask:
    def test_omnidirectional_all_active(self):
        assert np.array_equal(flight_mask(OMNIDIRECTIONAL, 5, make_rng(0)), np.ones(5))

    def test_axial_single_dim(self):
        for seed in range(20):
            mask = flight_mask(AXIAL, 6, make_rng(seed))
            assert mask.sum() == 1.0

    def test_diagonal_strict_subset(self):
        for seed in range(50):
            mask = flight_mask(DIAGONAL, 6, make_rng(seed))
            assert 2 <= mask.sum() <= 5

    def test_diagonal_small_dims_all_active(self):
        assert np.array_equal(flight_mask(DIAGONAL, 2, make_rng(0)), np.ones(2))


class TestGlobalSearchStep:
    def test_member_at_best_unchanged(self):
        space = SearchSpace([-5, -5], [5, 5])
        pop = evaluated([np.array([0.0, 0.0]), np.array([2.0, 0.0])])
        global_search_step(pop, pop.best, 0.7, OMNIDIRECTIONAL,
                           make_rng(1), space, sphere)
        assert np.array_equal(pop.members[0].position, [0.0, 0.0])
        assert pop.members[0].fitness == 0.0

    def test_alpha_zero_is_identity(self):
        space = SearchSpace([-5, -5], [5, 5])
        pop = evaluated([np.array([1.0, 2.0]), np.array([2.0, -1.0])])
        before = pop.positions()
        global_search_step(pop, pop.best, 0.0, OMNIDIRECTIONAL,
                           make_rng(1), space, sphere)
        assert np.array_equal(pop.positions(), before)

    def test_axial_hand_case(self):
        # each member moves alpha * g toward the best along one drawn axis
        # only; a flat objective makes the greedy rule accept every move
        space = SearchSpace([-50.0] * 3, [50.0] * 3)
        start = np.array([[2.0, -1.0, 3.0], [-2.0, 4.0, 1.0], [1.0, 1.0, -3.0]])
        best = Individual(np.array([0.5, 0.5, 0.5]), 0.0)
        pop = evaluated(list(start), lambda x: 0.0)
        rng = make_rng(5)
        twin = copy.deepcopy(rng)
        global_search_step(pop, best, 0.5, AXIAL, rng, space, lambda x: 0.0)
        g = twin.standard_normal(3)
        for i, x in enumerate(start):
            axis = int(twin.integers(0, 3))
            expected = x.copy()
            expected[axis] += 0.5 * g[i] * (best.position[axis] - x[axis])
            assert np.array_equal(pop.members[i].position, expected)

    def test_greedy_never_worsens(self):
        space = SearchSpace([-5] * 4, [5] * 4)
        rng = make_rng(11)
        pop = evaluated([rng.uniform(-5, 5, 4) for _ in range(8)])
        before = pop.fitnesses()
        global_search_step(pop, pop.best, 0.8, DIAGONAL, rng, space, sphere)
        assert np.all(pop.fitnesses() <= before)


# Member-by-member forms of the vectorised operators, kept as references: the
# operators must reproduce them bit for bit and draw the same random numbers.
REFERENCE_DIMS = (1, 2, 3, 5, 10, 31)


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def global_search_step_loop(pop, best, alpha, flight, rng, space, obj):
    g = rng.standard_normal(len(pop))
    for i, m in enumerate(pop.members):
        mask = flight_mask(flight, space.dims, rng)
        cand = clamp(m.position + alpha * g[i] * mask * (best.position - m.position), space)
        f = float(obj(cand))
        if f <= m.fitness:
            pop.members[i] = Individual(cand, f)


def rfo_guided_move_loop(pop, rng, space, obj):
    # RFO's guided move as run_rfo wrote it inline, kept as step_toward's reference
    kappa = rng.random(len(pop))
    P = pop.positions()
    cands = clamp(P + kappa[:, None] * (pop.best.position - P), space)
    for i, cand in enumerate(cands):
        accept_if_better(pop, i, cand, obj)


def stay_and_disguise_loop(position, nr, phis, space):
    d = space.dims
    out = position.copy()
    sines = np.sin(phis)
    out[0] = position[0] + nr * sines[0]
    if d >= 2:
        cum = np.cumsum(sines)
        for k in range(1, d - 1):
            out[k] = position[k] + nr * cum[k - 1] + nr * math.cos(phis[k])
        out[d - 1] = position[d - 1] + nr * cum[d - 2]
    return clamp(out, space)


def territorial_foraging_loop(position, lam, r, phi, phi0, theta, space):
    d = position.shape[0]
    n_pairs = (d + 1) // 2
    r, phi, phi0, theta = (np.broadcast_to(np.asarray(v, dtype=float), (n_pairs,))
                           for v in (r, phi, phi0, theta))
    out = position.copy()
    radial = r * np.cos(phi) + theta * np.cos(phi0)
    for p in range(n_pairs):
        i = 2 * p
        out[i] = position[i] + lam * math.cos(phi[p]) * radial[p]
        if i + 1 < d:
            out[i + 1] = position[i + 1] + lam * math.sin(phi[p]) * radial[p]
    return clamp(out, space)


class TestMatchesMemberByMemberReference:
    @pytest.mark.parametrize("dims", REFERENCE_DIMS)
    @pytest.mark.parametrize("flight", [OMNIDIRECTIONAL, AXIAL, DIAGONAL])
    def test_global_search_step(self, flight, dims):
        space = SearchSpace([-5.0] * dims, [5.0] * dims)
        for seed in range(20):
            setup = make_rng(seed)
            positions = setup.uniform(-5, 5, (9, dims))
            alpha = float(setup.random())
            pops = [evaluated(list(positions)) for _ in range(2)]
            rngs = [make_rng(1000 + seed), make_rng(1000 + seed)]
            best = pops[0].best
            global_search_step(pops[0], best, alpha, flight, rngs[0], space, sphere)
            global_search_step_loop(pops[1], best, alpha, flight, rngs[1], space, sphere)
            assert bits(pops[0].positions()) == bits(pops[1].positions())
            assert bits(pops[0].fitnesses()) == bits(pops[1].fitnesses())
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("dims", REFERENCE_DIMS)
    def test_rfo_guided_move(self, dims):
        # a (n, 1) step: one uniform draw per member scales its whole move
        space = SearchSpace([-5.0] * dims, [5.0] * dims)
        for seed in range(20):
            positions = make_rng(seed).uniform(-5, 5, (9, dims))
            pops = [evaluated(list(positions)) for _ in range(2)]
            rngs = [make_rng(1000 + seed), make_rng(1000 + seed)]
            step_toward(pops[0], pops[0].best.position, rngs[0].random(9)[:, None],
                        space, sphere)
            rfo_guided_move_loop(pops[1], rngs[1], space, sphere)
            assert bits(pops[0].positions()) == bits(pops[1].positions())
            assert bits(pops[0].fitnesses()) == bits(pops[1].fitnesses())
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("dims", REFERENCE_DIMS)
    def test_stay_and_disguise(self, dims):
        space = SearchSpace([-5.0] * dims, [5.0] * dims)
        rng = make_rng(dims)
        for _ in range(200):
            x = rng.uniform(-5, 5, dims)
            nr = float(rng.uniform(0, 3))  # large enough that the clamp bites
            phis = rng.uniform(0, 2 * math.pi, dims)
            assert (bits(stay_and_disguise(x, nr, phis, space))
                    == bits(stay_and_disguise_loop(x, nr, phis, space)))

    @pytest.mark.parametrize("dims", REFERENCE_DIMS)
    def test_stay_step(self, dims):
        # theta, then the angles, then one greedy accept: the stay move
        # as HRAHA and RFO each wrote it inline
        space = SearchSpace([-5.0] * dims, [5.0] * dims)
        for seed in range(20):
            positions = make_rng(seed).uniform(-5, 5, (5, dims))
            pops = [evaluated(list(positions)) for _ in range(2)]
            rngs = [make_rng(1000 + seed), make_rng(1000 + seed)]
            for i in range(5):
                stay_step(pops[0], i, rngs[0], space, sphere)
                theta = rngs[1].random()
                phis = rngs[1].uniform(0.0, 2 * math.pi, dims)
                cand = stay_and_disguise_loop(pops[1].members[i].position,
                                              hraha.SCALING_A * theta, phis, space)
                if sphere(cand) <= pops[1].members[i].fitness:
                    pops[1].members[i] = Individual(cand, sphere(cand))
            assert bits(pops[0].positions()) == bits(pops[1].positions())
            assert bits(pops[0].fitnesses()) == bits(pops[1].fitnesses())
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("dims", REFERENCE_DIMS)
    @pytest.mark.parametrize("per_pair", [False, True])
    def test_territorial_foraging(self, dims, per_pair):
        space = SearchSpace([-5.0] * dims, [5.0] * dims)
        rng = make_rng(dims)
        shape = ((dims + 1) // 2,) if per_pair else ()
        for _ in range(200):
            x = rng.uniform(-5, 5, dims)
            lam = float(rng.uniform(0, 3))
            args = (lam, rng.random(shape), rng.uniform(0, 2 * math.pi, shape),
                    rng.uniform(0, 2 * math.pi, shape), rng.random(shape))
            if not per_pair:
                args = tuple(float(a) for a in args)
            assert (bits(territorial_foraging(x, *args, space))
                    == bits(territorial_foraging_loop(x, *args, space)))


class TestDeltaRegimes:
    def test_partition(self):
        assert strategy_for_delta(0.3) == STRAT_NONE
        assert strategy_for_delta(0.5) == STRAT_NONE
        assert strategy_for_delta(0.6) == STRAT_STAY
        assert strategy_for_delta(0.75) == STRAT_STAY
        assert strategy_for_delta(0.8) == STRAT_TERRITORIAL
        assert strategy_for_delta(0.85) == STRAT_TERRITORIAL
        assert strategy_for_delta(0.9) == STRAT_MIGRATION
        assert strategy_for_delta(0.95) == STRAT_MIGRATION
        assert strategy_for_delta(0.97) == STRAT_MOVE_CLOSER
        assert strategy_for_delta(1.0) == STRAT_MOVE_CLOSER

    def test_exactly_one_strategy_per_draw(self):
        rng = make_rng(1)
        for _ in range(10_000):
            strat = strategy_for_delta(rng.random())
            assert strat in (STRAT_NONE, STRAT_STAY, STRAT_TERRITORIAL,
                             STRAT_MIGRATION, STRAT_MOVE_CLOSER)


class TestStayAndDisguise:
    SPACE = SearchSpace([-10, -10, -10], [10, 10, 10])

    def test_zero_radius_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        out = stay_and_disguise(x, 0.0, np.array([0.3, 0.8, 1.1]), self.SPACE)
        assert np.array_equal(out, x)

    def test_one_dim(self):
        space = SearchSpace([-10], [10])
        out = stay_and_disguise(np.array([2.0]), 1.0, np.array([math.pi / 2]), space)
        assert out[0] == pytest.approx(3.0)

    def test_hand_case(self):
        # nr=1, phis=(pi/2, 0, pi/2): offsets (1, 2, 1)
        x = np.array([0.5, -0.5, 1.0])
        phis = np.array([math.pi / 2, 0.0, math.pi / 2])
        out = stay_and_disguise(x, 1.0, phis, self.SPACE)
        np.testing.assert_allclose(out, x + np.array([1.0, 2.0, 1.0]), atol=1e-12)

    def test_clamped(self):
        out = stay_and_disguise(np.array([9.9, 9.9, 9.9]), 1.0,
                                np.full(3, math.pi / 2), self.SPACE)
        assert np.all(out <= 10.0)


class TestTerritorialForaging:
    SPACE = SearchSpace([-10, -10], [10, 10])

    def test_zero_lambda_identity(self):
        x = np.array([1.0, 2.0])
        out = territorial_foraging(x, 0.0, 1.0, 0.5, 0.5, 0.5, self.SPACE)
        assert np.array_equal(out, x)

    def test_phi_half_pi(self):
        # cos(phi)=0 kills the x-update and the r term in the radius
        x = np.array([1.0, 2.0])
        lam, theta, phi0 = 0.5, 0.8, 0.3
        out = territorial_foraging(x, lam, 1.7, math.pi / 2, phi0, theta, self.SPACE)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(2.0 + lam * theta * math.cos(phi0))

    def test_hand_case(self):
        out = territorial_foraging(np.zeros(2), 0.5, 1.0, 0.0, 0.0, 0.0, self.SPACE)
        np.testing.assert_allclose(out, [0.5, 0.0], atol=1e-12)

    def test_trailing_singleton(self):
        space = SearchSpace([-10] * 3, [10] * 3)
        x = np.zeros(3)
        out = territorial_foraging(x, 0.5, 1.0, 0.0, 0.0, 0.0, space)
        np.testing.assert_allclose(out, [0.5, 0.0, 0.5], atol=1e-12)


class TestMigrateWorst:
    def test_eq29_identity(self):
        space = SearchSpace([-2.0, 0.0], [4.0, 10.0])
        pop = Population([Individual(np.zeros(2), 0.0),
                          Individual(np.ones(2), 2.0),
                          Individual(np.full(2, 2.0), 8.0),
                          Individual(np.full(2, 3.0), 18.0)])
        migrated, r = migrate_worst(pop, space, make_rng(9), 0, 100, 10, sphere)
        assert migrated
        new_pos = pop.members[3].position
        np.testing.assert_allclose(
            (new_pos - space.lower) / (space.upper - space.lower), r, atol=1e-15)
        assert np.all(new_pos >= space.lower) and np.all(new_pos <= space.upper)
        assert pop.members[3].fitness == sphere(new_pos)

    def test_gate_closed(self):
        space = SearchSpace([0, 0], [1, 1])
        pop = Population([Individual(np.full(2, 0.5), 0.5) for _ in range(4)])
        before = pop.positions()
        migrated, r = migrate_worst(pop, space, make_rng(0), 5, 6, 10, sphere)
        assert not migrated and r is None
        assert np.array_equal(pop.positions(), before)


class TestHabitat:
    def test_center_midpoint(self):
        np.testing.assert_array_equal(
            habitat_center(np.array([0.0, 2.0]), np.array([2.0, 0.0])), [1.0, 1.0])

    def test_center_identity(self):
        p = np.array([3.0, -1.0])
        np.testing.assert_array_equal(habitat_center(p, p), p)

    def test_center_hand(self):
        np.testing.assert_array_equal(
            habitat_center(np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])),
            [2.0, 2.0, 2.0])

    def test_size_hand(self):
        p1, p2 = np.array([0.0, 2.0]), np.array([2.0, 0.0])
        assert habitat_size(p1, p2, habitat_center(p1, p2)) == 4.0

    def test_size_zero(self):
        p = np.array([1.0, 1.0])
        assert habitat_size(p, p, p) == 0.0

    def test_size_is_half_squared_distance(self):
        rng = make_rng(2)
        for _ in range(20):
            p1, p2 = rng.normal(size=4), rng.normal(size=4)
            d = habitat_size(p1, p2, habitat_center(p1, p2))
            assert d >= 0
            assert d == pytest.approx(np.sum((p1 - p2) ** 2) / 2, rel=1e-12)


class TestCrossoverMutate:
    def test_crossover_endpoints(self):
        p1, p2 = np.array([4.0, 0.0]), np.array([0.0, 4.0])
        np.testing.assert_array_equal(crossover(p1, p2, 0.0), p2)
        np.testing.assert_array_equal(crossover(p1, p2, 1.0), p1)

    def test_crossover_hand(self):
        np.testing.assert_array_equal(
            crossover(np.array([4.0, 0.0]), np.array([0.0, 4.0]), 0.25), [1.0, 3.0])

    @given(st.floats(0, 1))
    def test_crossover_between_parents(self, r1):
        p1, p2 = np.array([4.0, -1.0]), np.array([0.0, 4.0])
        child = crossover(p1, p2, r1)
        assert np.all(child >= np.minimum(p1, p2) - 1e-12)
        assert np.all(child <= np.maximum(p1, p2) + 1e-12)

    def test_mutate_endpoints(self):
        child, c = np.array([0.0, 0.0]), np.array([2.0, 4.0])
        np.testing.assert_array_equal(mutate(child, c, 1.0), c)
        np.testing.assert_array_equal(mutate(child, c, 0.0), child)

    def test_mutate_hand(self):
        np.testing.assert_array_equal(
            mutate(np.array([0.0, 0.0]), np.array([2.0, 4.0]), 0.5), [1.0, 2.0])

    @given(st.floats(0, 1))
    def test_mutate_between_child_and_center(self, r2):
        child, c = np.array([-3.0, 5.0]), np.array([2.0, 4.0])
        out = mutate(child, c, r2)
        assert np.all(out >= np.minimum(child, c) - 1e-12)
        assert np.all(out <= np.maximum(child, c) + 1e-12)


class TestMoveCloser:
    SPACE = SearchSpace([-5] * 3, [5] * 3)

    def _pop(self, n, seed=0):
        return evaluated([make_rng(seed + i).uniform(-5, 5, 3) for i in range(n)])

    def test_single_replacement(self):
        pop = self._pop(30)  # WORST_FRACTION 0.05 of 30 members: one
        worst = pop.worst_index
        before = pop.positions()
        move_closer_reproduce(pop, make_rng(3), self.SPACE, sphere)
        changed = [i for i in range(30)
                   if not np.array_equal(pop.members[i].position, before[i])]
        assert changed == [worst]

    def test_reproduction_branch_forced(self, monkeypatch):
        monkeypatch.setattr(hraha, "WORST_FRACTION", 0.25)
        monkeypatch.setattr(hraha, "NOMAD_PROBABILITY", 0.0)
        pop = self._pop(8)
        fits = pop.fitnesses()
        order = np.argsort(fits, kind="stable")
        c = habitat_center(pop.members[order[0]].position,
                           pop.members[order[1]].position)
        parent_box_lo = pop.positions().min(axis=0)
        parent_box_hi = pop.positions().max(axis=0)
        move_closer_reproduce(pop, make_rng(5), self.SPACE, sphere)
        for w in order[-2:]:
            p = pop.members[w].position
            # offspring is a blend of two parents pulled toward the center
            lo = np.minimum(parent_box_lo, c) - 1e-12
            hi = np.maximum(parent_box_hi, c) + 1e-12
            assert np.all(p >= lo) and np.all(p <= hi)

    def test_degenerate_habitat_spawns_at_center(self, monkeypatch):
        monkeypatch.setattr(hraha, "WORST_FRACTION", 0.25)
        monkeypatch.setattr(hraha, "NOMAD_PROBABILITY", 1.0)
        best = np.array([1.0, 1.0, 1.0])
        pop = Population([Individual(best.copy(), 3.0),
                          Individual(best.copy(), 3.0),
                          Individual(np.full(3, 2.0), 12.0),
                          Individual(np.full(3, 3.0), 27.0)])
        move_closer_reproduce(pop, make_rng(1), self.SPACE, sphere)
        np.testing.assert_allclose(pop.members[3].position, best, atol=1e-12)

    def test_too_small(self):
        pop = self._pop(3 + 1)
        pop.members.pop()
        with pytest.raises(ValueError):
            move_closer_reproduce(pop, make_rng(0), self.SPACE, sphere)


class TestRun:
    SPACE = SearchSpace([-5.12] * 10, [5.12] * 10)

    def test_converges_on_sphere(self):
        result = run(sphere, self.SPACE, 30, 500, 42)
        assert result.best_fitness <= 1e-2

    def test_history_has_one_entry_per_iteration(self):
        result = run(sphere, self.SPACE, 10, 50, 1)
        assert len(result.history) == 50

    def test_elitism_history_non_increasing(self):
        result = run(sphere, self.SPACE, 10, 100, 3)
        hist = np.array(result.history)
        assert np.all(np.diff(hist) <= 0)

    def test_determinism(self):
        r1 = run(sphere, self.SPACE, 12, 60, 99)
        r2 = run(sphere, self.SPACE, 12, 60, 99)
        assert np.array_equal(r1.best_position, r2.best_position)
        assert r1.best_fitness == r2.best_fitness
        assert r1.history == r2.history
        assert r1.evaluations == r2.evaluations
        assert r1.strategy_counts == r2.strategy_counts

    def test_best_within_box(self):
        result = run(sphere, self.SPACE, 10, 50, 7)
        assert np.all(result.best_position >= self.SPACE.lower)
        assert np.all(result.best_position <= self.SPACE.upper)

    def test_no_run_exceeds_initial_best(self):
        result = run(sphere, self.SPACE, 10, 100, 5)
        assert result.best_fitness <= result.history[0]

    def test_nan_evaluations_never_become_the_incumbent(self):
        # a NaN stored by migration or move-closer would win np.argmin and
        # elitism would adopt it as the best-so-far
        calls = 0

        def flaky_sphere(x):
            nonlocal calls
            calls += 1
            return math.nan if calls > 100 and calls % 37 == 0 else sphere(x)

        space = SearchSpace([-5.0] * 4, [5.0] * 4)
        result = run(flaky_sphere, space, 10, 300, 0)
        hist = np.array(result.history)
        assert np.all(np.isfinite(hist))
        assert np.all(np.diff(hist) <= 0)
        assert result.evaluations == calls

