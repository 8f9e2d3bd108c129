import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foxbird import hraha
from foxbird.core import (
    CountingObjective,
    Individual,
    Population,
    SearchSpace,
    accept_rows,
    clamp,
    init_population,
    make_rng,
)
from foxbird.hraha import (
    AXIAL,
    DIAGONAL,
    FLIGHT_KINDS,
    OMNIDIRECTIONAL,
    LocalMoves,
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
    step_toward,
    strategy_for_delta,
    territorial_foraging,
)

from test_reference_runners import move_closer, stay_move, territorial_move
from test_registry import NON_FINITE, Injecting


def sphere(x):
    return float(np.dot(x, x))


def evaluated(positions, obj=sphere):
    return Population([Individual(p, float(obj(p))) for p in positions])


def pop_with_fitnesses(fits):
    return Population([Individual(np.array([float(i)]), float(f))
                       for i, f in enumerate(fits)])


class TestComputeAlpha:
    def test_zero_spread(self, monkeypatch):
        monkeypatch.setattr(hraha, "OMEGA", 1.0)
        assert compute_alpha(pop_with_fitnesses([2, 2, 2]), 0, 10) == 0.0

    def test_schedule_only(self, monkeypatch):
        monkeypatch.setattr(hraha, "OMEGA", 0.0)
        pop = pop_with_fitnesses([1, 2, 3])
        assert compute_alpha(pop, 0, 10) == 1.0
        assert compute_alpha(pop, 9, 10) == pytest.approx(0.1)

    def test_hand_value(self, monkeypatch):
        monkeypatch.setattr(hraha, "OMEGA", 1.0)
        pop = pop_with_fitnesses([0, 1, 2])
        assert compute_alpha(pop, 0, 10) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("fits", [
        [1.5e308, 1.5e308, -1.0e308],
        [-1.0e308, 1.0e308, 0.5e308],
        [1.0e308, 1.5e308, 1.7e308],
    ], ids=["signed-sum-overflows", "signed-sum-finite", "positive-sum-overflows"])
    def test_values_near_the_largest_float(self, fits):
        # the mean or the range of these finite values overflows; alpha must
        # be that of the same values scaled down by a power of two, which
        # scales the mean and the range exactly, and no warning may occur
        small = [math.ldexp(f, -1000) for f in fits]
        want = compute_alpha(pop_with_fitnesses(small), 0, 10)
        assert 0.5 < want < 1.0
        assert compute_alpha(pop_with_fitnesses(fits), 0, 10) == pytest.approx(want, rel=1e-9)

    def test_values_near_the_largest_float_keep_a_finite_formula(self):
        # large enough that their sum might overflow, but neither it nor the
        # range does: the formula's own bits, not the scaled values' ones
        fits = np.array([1.0e308, 0.0, 0.6e308])
        spread = (fits.mean() - fits.min()) / (fits.max() - fits.min() + 1e-12)
        want = hraha.OMEGA * spread + (1 - hraha.OMEGA) * (1 - 3 / 10)
        assert compute_alpha(pop_with_fitnesses(fits), 3, 10) == want

    @pytest.mark.parametrize("fits", [
        [3.0, math.inf, 1.0, 2.5],
        [math.nan, 0.5, 2.0, 7.0],
        [1.0, -math.inf, 4.0, 0.25],
        [math.inf, math.nan, -math.inf, 1.0, 2.0, 8.0],
        [math.inf, math.nan, -math.inf],
        [math.inf, math.inf],
        [1.5e308, math.nan, 1.5e308, -1.0e308, -math.inf],
        [1.0e308, 1.5e308, math.inf, 1.7e308],
    ], ids=["inf", "nan", "minus-inf", "mixed", "all-non-finite", "all-inf",
            "near-max-with-nan", "near-max-with-inf"])
    @pytest.mark.parametrize("t", [0, 4, 9])
    def test_matches_the_frozen_formula_with_non_finite_members(self, fits, t):
        # only finite members take part: a NaN or -inf member must be left
        # out as +inf is, and at t = 0 the schedule alone gives alpha >= 0.5
        pop = pop_with_fitnesses(fits)
        assert bits(compute_alpha(pop, t, 10)) == bits(frozen_compute_alpha(pop, t, 10))

    def test_matches_the_frozen_formula_on_random_fitnesses(self):
        rng = make_rng(17)
        special = [math.inf, math.nan, -math.inf, 0.0, -0.0, 1.7e308, -1.7e308]
        for _ in range(500):
            n = int(rng.integers(1, 12))
            fits = list(rng.standard_normal(n) * 10.0 ** rng.integers(-300, 308, n))
            for i in np.flatnonzero(rng.random(n) < 0.2):
                fits[i] = special[rng.integers(len(special))]
            pop = pop_with_fitnesses(fits)
            t = int(rng.integers(0, 10))
            assert bits(compute_alpha(pop, t, 10)) == bits(frozen_compute_alpha(pop, t, 10))


def frozen_compute_alpha(pop, t, T):
    """``compute_alpha`` as it was when it filtered ``pop.fitnesses`` with
    ``np.isfinite`` and took the mean with ``ndarray.mean``: a frozen copy."""
    def gaps(fits, f_best, f_worst):
        return fits.mean() - f_best, f_worst - f_best

    fits = pop.fitnesses.copy()
    fits = fits[np.isfinite(fits)]
    spread = 0.0
    if fits.size:
        f_best, f_worst = fits.min(), fits.max()
        big = max(-float(f_best), float(f_worst))
        if math.isfinite(2 * big * fits.size):
            mean_gap, worst_gap = gaps(fits, f_best, f_worst)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                mean_gap, worst_gap = gaps(fits, f_best, f_worst)
            if not (math.isfinite(mean_gap) and math.isfinite(worst_gap)):
                fits = np.ldexp(fits, -math.frexp(big)[1])
                mean_gap, worst_gap = gaps(fits, fits.min(), fits.max())
        spread = mean_gap / (worst_gap + 1e-12)
    alpha = hraha.OMEGA * spread + (1 - hraha.OMEGA) * (1 - t / T)
    return float(min(1.0, max(0.0, alpha)))


class TestSelectFlight:
    def test_low_alpha(self):
        assert select_flight(0.1) == OMNIDIRECTIONAL

    def test_boundary_right_inclusive(self):
        assert select_flight(1 / 3) == OMNIDIRECTIONAL
        assert select_flight(2 / 3) == AXIAL

    def test_high_alpha(self):
        assert select_flight(0.9) == DIAGONAL

    def test_overflow_clamps(self):
        assert select_flight(1.5) == DIAGONAL


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

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown flight kind"):
            flight_mask("spiral", 3, make_rng(0))


def frozen_flight_mask(kind, dims, rng):
    # flight_mask as it was written before its row writer, kept as the
    # reference of both: each kind builds its own array
    if kind == OMNIDIRECTIONAL:
        return np.ones(dims)
    if kind == AXIAL:
        mask = np.zeros(dims)
        mask[rng.integers(0, dims)] = 1.0
        return mask
    if kind == DIAGONAL:
        if dims <= 2:
            return np.ones(dims)
        k = int(rng.integers(2, dims))
        mask = np.zeros(dims)
        mask[rng.permutation(dims)[:k]] = 1.0
        return mask
    raise ValueError(f"unknown flight kind {kind!r}")


MASK_CASES = dict(kind=st.sampled_from(FLIGHT_KINDS), dims=st.integers(1, 12),
                  seed=st.integers(0, 2**64 - 1))


class TestMaskWriter:
    """``flight_mask`` and its row writer ``_set_mask`` give the frozen
    rule's bytes and leave the generator in its state."""

    @settings(max_examples=300, deadline=None)
    @given(**MASK_CASES)
    def test_flight_mask_is_the_frozen_rule(self, kind, dims, seed):
        rng, twin = make_rng(seed), make_rng(seed)
        got, want = flight_mask(kind, dims, rng), frozen_flight_mask(kind, dims, twin)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(**MASK_CASES, n=st.integers(1, 6), data=st.data())
    def test_writer_fills_its_row_alone(self, kind, dims, seed, n, data):
        i = data.draw(st.integers(0, n - 1), label="row")
        rng, twin = make_rng(seed), make_rng(seed)
        masks = np.zeros((n, dims))
        hraha._set_mask(masks[i], kind, rng)
        assert masks[i].tobytes() == frozen_flight_mask(kind, dims, twin).tobytes()
        assert not np.delete(masks, i, axis=0).any()
        assert rng.bit_generator.state == twin.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(kind=st.text().filter(lambda k: k not in FLIGHT_KINDS), dims=st.integers(1, 12),
           seed=st.integers(0, 2**64 - 1))
    def test_unknown_kind_raises_before_any_draw(self, kind, dims, seed):
        rng = make_rng(seed)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="unknown flight kind"):
            flight_mask(kind, dims, rng)
        row = np.zeros(dims)
        with pytest.raises(ValueError, match="unknown flight kind"):
            hraha._set_mask(row, kind, rng)
        assert rng.bit_generator.state == before
        assert not row.any()


class TestGlobalSearchStep:
    def test_member_at_best_unchanged(self):
        space = SearchSpace([-5, -5], [5, 5])
        pop = evaluated([np.array([0.0, 0.0]), np.array([2.0, 0.0])])
        global_search_step(pop, 0.7, OMNIDIRECTIONAL, make_rng(1), space, sphere)
        assert np.array_equal(pop.members[0].position, [0.0, 0.0])
        assert pop.members[0].fitness == 0.0

    def test_alpha_zero_is_identity(self):
        space = SearchSpace([-5, -5], [5, 5])
        pop = evaluated([np.array([1.0, 2.0]), np.array([2.0, -1.0])])
        before = pop.positions.copy()
        global_search_step(pop, 0.0, OMNIDIRECTIONAL, make_rng(1), space, sphere)
        assert np.array_equal(pop.positions, before)

    def test_axial_hand_case(self):
        # each member moves alpha * g toward the best along one drawn axis
        # only; a flat objective makes the greedy rule accept every move and
        # makes slot 0, the lowest of the tied slots, the best
        space = SearchSpace([-50.0] * 3, [50.0] * 3)
        start = np.array([[0.5, 0.5, 0.5], [2.0, -1.0, 3.0], [-2.0, 4.0, 1.0],
                          [1.0, 1.0, -3.0]])
        best = start[0]
        pop = evaluated(list(start), lambda x: 0.0)
        rng = make_rng(5)
        twin = copy.deepcopy(rng)
        global_search_step(pop, 0.5, AXIAL, rng, space, lambda x: 0.0)
        g = twin.standard_normal(4)
        for i, x in enumerate(start):
            axis = int(twin.integers(0, 3))
            expected = x.copy()
            expected[axis] += 0.5 * g[i] * (best[axis] - x[axis])
            assert np.array_equal(pop.members[i].position, expected)

    def test_greedy_never_worsens(self):
        space = SearchSpace([-5] * 4, [5] * 4)
        rng = make_rng(11)
        pop = evaluated([rng.uniform(-5, 5, 4) for _ in range(8)])
        before = pop.fitnesses.copy()
        global_search_step(pop, 0.8, DIAGONAL, rng, space, sphere)
        assert np.all(pop.fitnesses <= before)


# Member-by-member forms of the vectorised operators, kept as references: the
# operators must reproduce them bit for bit and draw the same random numbers.
# The stay and territorial moves are the whole-run references' own
# (``stay_move``, ``territorial_move``).
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
            pop.store(i, cand, f)


def rfo_guided_move_loop(pop, rng, space, obj):
    # RFO's guided move as run_rfo wrote it inline, kept as step_toward's reference
    kappa = rng.random(len(pop))
    P = pop.positions.copy()
    cands = clamp(P + kappa[:, None] * (pop.best.position - P), space)
    for i, cand in enumerate(cands):
        f = float(obj(cand))
        if f <= pop.members[i].fitness:
            pop.store(i, cand, f)


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
            global_search_step(pops[0], alpha, flight, rngs[0], space, sphere)
            global_search_step_loop(pops[1], best, alpha, flight, rngs[1], space, sphere)
            assert bits(pops[0].positions) == bits(pops[1].positions)
            assert bits(pops[0].fitnesses) == bits(pops[1].fitnesses)
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("dims", REFERENCE_DIMS)
    def test_rfo_guided_move(self, dims):
        # a (n, 1) step: one uniform draw per member scales its whole move
        space = SearchSpace([-5.0] * dims, [5.0] * dims)
        for seed in range(20):
            positions = make_rng(seed).uniform(-5, 5, (9, dims))
            pops = [evaluated(list(positions)) for _ in range(2)]
            rngs = [make_rng(1000 + seed), make_rng(1000 + seed)]
            step_toward(pops[0], rngs[0].random(9)[:, None], space, sphere)
            rfo_guided_move_loop(pops[1], rngs[1], space, sphere)
            assert bits(pops[0].positions) == bits(pops[1].positions)
            assert bits(pops[0].fitnesses) == bits(pops[1].fitnesses)
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
                    == bits(stay_move(x, nr, phis, space.lower, space.upper)))

    @pytest.mark.parametrize("dims", REFERENCE_DIMS)
    def test_stay_step(self, dims):
        # queued stays, flushed as one batch, against theta, then the angles,
        # then one greedy accept per member: the stay move as HRAHA and RFO
        # each wrote it inline
        space = SearchSpace([-5.0] * dims, [5.0] * dims)
        for seed in range(20):
            positions = make_rng(seed).uniform(-5, 5, (5, dims))
            pops = [evaluated(list(positions)) for _ in range(2)]
            rngs = [make_rng(1000 + seed), make_rng(1000 + seed)]
            local = LocalMoves(space)
            for i in range(5):
                local.stay(i, rngs[0])
            local.flush(pops[0], sphere)
            for i in range(5):
                theta = rngs[1].random()
                phis = rngs[1].uniform(0.0, 2 * math.pi, dims)
                cand = stay_move(pops[1].members[i].position, hraha.SCALING_A * theta,
                                 phis, space.lower, space.upper)
                if sphere(cand) <= pops[1].members[i].fitness:
                    pops[1].store(i, cand, sphere(cand))
            assert bits(pops[0].positions) == bits(pops[1].positions)
            assert bits(pops[0].fitnesses) == bits(pops[1].fitnesses)
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("dims", REFERENCE_DIMS)
    def test_mixed_queue_flushed_around_a_barrier(self, dims):
        # stay and territorial moves queued in member order, flushed before a
        # migration (a step that reads another slot) and at the end, against
        # one move at a time: the objective sees the same rows in the same
        # order, and the population and the RNG end the same
        space = SearchSpace([-5.0] * dims, [5.0] * dims)
        lower, upper = space.lower, space.upper
        pairs = (dims + 1) // 2
        box_scale = 0.3 * float(np.mean(upper - lower))
        n = 9
        for seed in range(20):
            setup = make_rng(seed)
            positions = setup.uniform(-5, 5, (n, dims))
            kinds = setup.choice(["none", "stay", "territorial"], size=n)
            barrier = int(setup.integers(0, n + 1))
            bad = {int(k): math.nan for k in setup.integers(1, n + 3, size=2)}
            pops = [evaluated(list(positions)) for _ in range(2)]
            rngs = [make_rng(1000 + seed), make_rng(1000 + seed)]
            objs = [CountingObjective(Recording(bad)), CountingObjective(Recording(bad))]

            local = LocalMoves(space)
            for i, kind in enumerate(kinds):
                if i == barrier:
                    local.flush(pops[0], objs[0])
                    migrate_worst(pops[0], space, rngs[0], 0, 2 * n, 2 * n, objs[0])
                if kind == "stay":
                    local.stay(i, rngs[0])
                elif kind == "territorial":
                    local.territorial(i, rngs[0])
            local.flush(pops[0], objs[0])

            pop, rng = pops[1], rngs[1]
            for i, kind in enumerate(kinds):
                if i == barrier:
                    migrate_worst(pop, space, rng, 0, 2 * n, 2 * n, objs[1])
                x = pop.members[i].position
                if kind == "stay":
                    theta = rng.random()
                    cand = stay_move(x, hraha.SCALING_A * theta,
                                     rng.uniform(0.0, 2 * math.pi, dims), lower, upper)
                elif kind == "territorial":
                    lam = box_scale * rng.random()
                    r = rng.random(pairs)
                    phi = rng.uniform(0.0, 2 * math.pi, pairs)
                    phi0 = rng.uniform(0.0, 2 * math.pi, pairs)
                    theta = rng.random(pairs)
                    cand = territorial_move(x, lam, r, phi, phi0, theta, lower, upper)
                else:
                    continue
                f = objs[1](cand)
                if f <= pop.members[i].fitness:
                    pop.store(i, cand, f)

            rows = [[x.tobytes() for x in obj.obj.rows] for obj in objs]
            assert rows[0] == rows[1] and objs[0].count == objs[1].count
            assert bits(pops[0].positions) == bits(pops[1].positions)
            assert bits(pops[0].fitnesses) == bits(pops[1].fitnesses)
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
            pairs = (np.broadcast_to(a, (dims + 1) // 2) for a in args[1:])
            assert (bits(territorial_foraging(x, *args, space))
                    == bits(territorial_move(x, lam, *pairs, space.lower, space.upper)))


class TestRowForms:
    """``(m, d)`` rows with one set of parameters per row: each output row
    equals the 1-d form on that row alone, bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_stay_and_disguise(self, m):
        for dims in range(1, 31):
            space = SearchSpace([-5.0] * dims, [5.0] * dims)
            rng = make_rng(dims)
            for _ in range(5):
                P = rng.uniform(-5, 5, (m, dims))
                nr = rng.uniform(0, 3, m)  # large enough that the clamp bites
                phis = rng.uniform(0, 2 * math.pi, (m, dims))
                rows = stay_and_disguise(P, nr, phis, space)
                assert rows.shape == (m, dims)
                for k in range(m):
                    one = stay_and_disguise(P[k], float(nr[k]), phis[k], space)
                    assert bits(rows[k]) == bits(one)

    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_territorial_foraging(self, m):
        for dims in range(1, 31):
            space = SearchSpace([-5.0] * dims, [5.0] * dims)
            rng = make_rng(dims)
            h = (dims + 1) // 2
            for _ in range(5):
                P = rng.uniform(-5, 5, (m, dims))
                lam = rng.uniform(0, 3, m)
                r, phi, phi0, theta = (rng.random((m, h)), rng.uniform(0, 2 * math.pi, (m, h)),
                                       rng.uniform(0, 2 * math.pi, (m, h)), rng.random((m, h)))
                rows = territorial_foraging(P, lam, r, phi, phi0, theta, space)
                assert rows.shape == (m, dims)
                for k in range(m):
                    one = territorial_foraging(P[k], float(lam[k]), r[k], phi[k], phi0[k],
                                               theta[k], space)
                    assert bits(rows[k]) == bits(one)


class TestLocalMoveDraws:
    """A stay or territorial move draws its uniforms in one ``random`` call.
    That is the stream of the draws one at a time (a scalar, then vectors,
    the angles from ``uniform(0, 2 pi, k)``) only while a scalar and a vector
    draw consume the generator alike and ``uniform(0, 2 pi, k)`` is
    ``2 pi * random(k)`` to the bit."""

    CHANGED = ("numpy's draw stream changed: {layout} uniforms drawn in one call "
               "no longer equal the draws one at a time at dims={dims}, so every "
               "fixed-seed HRAHA and RFO result would change")

    @staticmethod
    def one_at_a_time(rng, layout, dims):
        if layout == "stay":  # theta, then the angles
            return rng.random(), [rng.uniform(0.0, 2 * math.pi, dims)]
        h = (dims + 1) // 2  # lambda's factor, then r, phi, phi0, theta per pair
        return rng.random(), [rng.random(h), rng.uniform(0.0, 2 * math.pi, h),
                              rng.uniform(0.0, 2 * math.pi, h), rng.random(h)]

    @staticmethod
    def in_one_call(rng, layout, dims):
        if layout == "stay":
            u = rng.random(dims + 1)
            return u[0], [2 * math.pi * u[1:]]
        h = (dims + 1) // 2
        u = rng.random(1 + 4 * h)
        r, phi, phi0, theta = u[1:].reshape(4, h)
        return u[0], [r, 2 * math.pi * phi, 2 * math.pi * phi0, theta]

    @pytest.mark.parametrize("layout", ["stay", "territorial"])
    def test_one_call_equals_the_draws_one_at_a_time(self, layout):
        for dims in range(1, 31):
            for seed in range(10):
                a, b = make_rng(seed), make_rng(seed)
                s_a, v_a = self.one_at_a_time(a, layout, dims)
                s_b, v_b = self.in_one_call(b, layout, dims)
                message = self.CHANGED.format(layout=layout, dims=dims)
                assert type(s_a) is float and float(s_b) == s_a, message
                assert [bits(v) for v in v_a] == [bits(v) for v in v_b], message
                assert a.bit_generator.state == b.bit_generator.state, message


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
        before = pop.positions.copy()
        migrated, r = migrate_worst(pop, space, make_rng(0), 5, 6, 10, sphere)
        assert not migrated and r is None
        assert np.array_equal(pop.positions, before)


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

    @pytest.mark.parametrize("op, args", [
        (habitat_center, (np.zeros(2), np.zeros(3))),
        (habitat_size, (np.zeros(2), np.zeros(2), np.zeros(3))),
        (crossover, (np.zeros(3), np.zeros(2), 0.5)),
        (mutate, (np.zeros(2), np.zeros(3), 0.5)),
    ], ids=["habitat_center", "habitat_size", "crossover", "mutate"])
    def test_length_mismatch_rejected(self, op, args):
        with pytest.raises(ValueError, match="length mismatch"):
            op(*args)

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
        before = pop.positions.copy()
        move_closer_reproduce(pop, make_rng(3), self.SPACE, sphere)
        changed = [i for i in range(30)
                   if not np.array_equal(pop.members[i].position, before[i])]
        assert changed == [worst]

    def test_reproduction_branch_forced(self, monkeypatch):
        monkeypatch.setattr(hraha, "WORST_FRACTION", 0.25)
        monkeypatch.setattr(hraha, "NOMAD_PROBABILITY", 0.0)
        pop = self._pop(8)
        fits = pop.fitnesses.copy()
        order = np.argsort(fits, kind="stable")
        c = habitat_center(pop.members[order[0]].position,
                           pop.members[order[1]].position)
        parent_box_lo = pop.positions.min(axis=0)
        parent_box_hi = pop.positions.max(axis=0)
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
        pop = self._pop(3)
        with pytest.raises(ValueError):
            move_closer_reproduce(pop, make_rng(0), self.SPACE, sphere)

    def test_matches_the_frozen_operator_on_random_boxes(self):
        # the nomad draw against the frozen ``rng.uniform`` on a guarded
        # range: the same bytes, and the generator left in the same state
        rng = make_rng(2024)
        kinds = set()
        for _ in range(1500):
            space, X, F, couple = move_closer_case(rng)
            seed = int(rng.integers(2**32))
            kinds.update((couple, kind) for kind in drawn_kinds(make_rng(seed), len(X), space.dims))
            pop = Population([Individual(x, f) for x, f in zip(X, F)])
            mine, frozen = make_rng(seed), make_rng(seed)
            move_closer_reproduce(pop, mine, space, sphere)
            move_closer(X, F, frozen, sphere, space.lower, space.upper)
            assert [bits(m.position) for m in pop.members] == [bits(x) for x in X]
            assert bits([m.fitness for m in pop.members]) == bits(F)
            assert mine.random() == frozen.random()
        assert kinds == {(c, k) for c in COUPLES for k in ("nomad", "child")}

    def test_coincident_couple_at_negative_zero_spawns_at_negative_zero(self, monkeypatch):
        # the cut box is [-0.0, +0.0] on every coordinate: lo + 0 * u would be +0.0
        monkeypatch.setattr(hraha, "NOMAD_PROBABILITY", 1.0)
        pop = evaluated([np.full(3, -0.0), np.full(3, -0.0), np.full(3, 2.0), np.full(3, 3.0)])
        move_closer_reproduce(pop, make_rng(1), self.SPACE, sphere)
        assert bits(pop.members[3].position) == bits(np.full(3, -0.0))

    def test_a_coordinate_narrower_than_1e_300_is_drawn_across_it(self):
        # the couple cuts [-5, 5] x [0, 5e-301] to [-sqrt 2, sqrt 2] x [0, 5e-301];
        # the frozen copy widened the second range to [0, 1e-300) and clamped about
        # half its draws onto 5e-301, a declared change
        space = SearchSpace([-5.0, 0.0], [5.0, 5e-301])
        positions = [np.array([x, 0.0]) for x in (-1.0, 1.0, 2.0, 3.0)]
        piled = nomads = 0
        for seed in range(60):
            if drawn_kinds(make_rng(seed), 4, 2) != ["nomad"]:
                continue
            nomads += 1
            stream = make_rng(seed)
            stream.random()
            u = stream.random(2)
            pop = evaluated(positions)
            move_closer_reproduce(pop, make_rng(seed), space, sphere)
            drawn = pop.members[3].position[1]
            assert drawn == 5e-301 * u[1] and 0.0 <= drawn <= 5e-301
            X, F = [p.copy() for p in positions], [sphere(p) for p in positions]
            move_closer(X, F, make_rng(seed), sphere, space.lower, space.upper)
            piled += X[3][1] == 5e-301
        assert nomads >= 20 and 0 < piled < nomads

    def test_two_replacements_draw_a_nomad_and_a_child(self):
        seed = next(s for s in range(100)
                    if sorted(drawn_kinds(make_rng(s), 40, 3)) == ["child", "nomad"])
        pop = self._pop(40)  # WORST_FRACTION 0.05 of 40 members: two
        X, F = [m.position for m in pop.members], [m.fitness for m in pop.members]
        mine, frozen = make_rng(seed), make_rng(seed)
        move_closer_reproduce(pop, mine, self.SPACE, sphere)
        move_closer(X, F, frozen, sphere, self.SPACE.lower, self.SPACE.upper)
        assert [bits(m.position) for m in pop.members] == [bits(x) for x in X]
        assert bits([m.fitness for m in pop.members]) == bits(F)
        assert mine.random() == frozen.random()


def drawn_kinds(rng, n, d):
    """The kinds, "nomad" or "child", that ``move_closer_reproduce`` draws
    from ``rng`` for ``n`` members in ``d`` dimensions, in replacement order."""
    kinds = []
    for _ in range(max(1, int(math.floor(hraha.WORST_FRACTION * n)))):
        if rng.random() < hraha.NOMAD_PROBABILITY:
            kinds.append("nomad")
            rng.random(d)
        else:
            kinds.append("child")
            rng.choice(n - 2, size=2, replace=False)
            rng.random()
            rng.random()
    return kinds


COUPLES = ("apart", "ulp-apart", "coincident", "on-bounds", "at-minus-zero")


def move_closer_case(rng):
    """A box with bounds at +-0.0 on some coordinates, and members whose
    alpha couple (slots 0 and 1) is one of ``COUPLES``. A couple an ulp apart
    cuts zero-width coordinates wherever its center is far from zero, and
    non-zero ones where it is near; a coincident couple cuts a point."""
    d = int(rng.integers(1, 6))
    n = int(rng.choice([4, 5, 40]))
    lower, upper = -rng.uniform(0.5, 10, d), rng.uniform(0.5, 10, d)
    zeros = rng.integers(0, 5, d)
    lower[zeros == 0], lower[zeros == 1] = -0.0, 0.0
    upper[zeros == 2], upper[zeros == 3] = -0.0, 0.0
    X = list(rng.uniform(lower, upper, size=(n, d)))
    couple = COUPLES[rng.integers(len(COUPLES))]
    if couple == "ulp-apart":
        near = rng.random(d) < 0.4
        X[0][near] = np.clip(1e-20 * rng.standard_normal(d), lower, upper)[near]
        X[1] = X[0].copy()
        j = rng.integers(d)
        X[1][j] = np.nextafter(X[0][j], upper[j])
    elif couple == "coincident":
        X[1] = X[0].copy()
    elif couple == "on-bounds":
        X[0] = np.where(rng.random(d) < 0.5, lower, upper)
        X[1] = X[0].copy()
    elif couple == "at-minus-zero":
        X[0], X[1] = np.full(d, -0.0), np.full(d, -0.0)
    F = [0.0, float(rng.choice([0.0, 0.5]))] + list(rng.uniform(1, 2, n - 2))
    return SearchSpace(lower, upper), X, F, couple


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
        # become the best-so-far
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


INVARIANT_OBJECTIVES = {
    "sphere": lambda bad: sphere,
    "plateau": lambda bad: lambda x: math.floor(sphere(x) / 10),
    "constant": lambda bad: lambda x: 1.0,
    "injecting": Injecting,
}


@settings(max_examples=150, deadline=None)
@given(dims=st.integers(1, 5), n=st.integers(4, 41),
       objective=st.sampled_from(sorted(INVARIANT_OBJECTIVES)),
       bad=st.dictionaries(st.integers(1, 700), st.sampled_from(NON_FINITE), max_size=100),
       worst_fraction=st.sampled_from([0.05, 0.25, 0.9]), seed=st.integers(0, 2**32 - 1))
def test_no_step_raises_the_population_best(dims, n, objective, bad, worst_fraction, seed):
    # run's best-so-far is the population best because, while
    # WORST_FRACTION < 1, no step raises min(fitnesses): greedy accepts never
    # worsen a slot, migration rewrites the worst slot and move-closer never
    # rewrites the first-ranked member
    space = SearchSpace([-5.0] * dims, [5.0] * dims)
    obj = CountingObjective(INVARIANT_OBJECTIVES[objective](bad))
    rng = make_rng(seed)
    pop = init_population(space, n, rng, obj)
    local = LocalMoves(space)
    rounds = 6

    def step(move):
        before = pop.fitnesses.min()
        move()
        assert pop.fitnesses.min() <= before

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hraha, "WORST_FRACTION", worst_fraction)
        for t in range(rounds):
            alpha = compute_alpha(pop, t, rounds)
            flight = FLIGHT_KINDS[int(rng.integers(3))]
            step(lambda: global_search_step(pop, alpha, flight, rng, space, obj))
            for i, u in enumerate(rng.random(n)):
                if u < 1 / 3:
                    local.stay(i, rng)
                elif u < 2 / 3:
                    local.territorial(i, rng)
            step(lambda: local.flush(pop, obj))
            step(lambda: migrate_worst(pop, space, rng, 0, 2 * n, 2 * n, obj))
            first = int(np.argsort(pop.fitnesses, kind="stable")[0])
            kept = pop.members[first]
            step(lambda: move_closer_reproduce(pop, rng, space, obj))
            assert pop.members[first] is kept


class Recording(Injecting):
    """``Injecting`` that also keeps every row it is called with."""

    def __init__(self, bad: dict):
        super().__init__(bad)
        self.rows = []

    def __call__(self, x) -> float:
        self.rows.append(np.array(x))
        return super().__call__(x)


def queued_flush(pop, rng, space, obj):
    local = LocalMoves(space)
    for i in range(len(pop)):
        (local.stay if i % 2 else local.territorial)(i, rng)
    local.flush(pop, obj)


# each public operator that writes a population, as (pop, rng, space, obj)
WRITERS = {
    "accept_rows": lambda pop, rng, space, obj: accept_rows(
        pop, clamp(pop.positions * rng.random((len(pop), 1)), space), obj),
    "step_toward": lambda pop, rng, space, obj: step_toward(
        pop, rng.random(len(pop))[:, None], space, obj),
    "global_search_step": lambda pop, rng, space, obj: global_search_step(
        pop, 0.7, OMNIDIRECTIONAL, rng, space, obj),
    "LocalMoves.flush": queued_flush,
    "migrate_worst": lambda pop, rng, space, obj: migrate_worst(
        pop, space, rng, 0, 40, 40, obj),
    "move_closer_reproduce": lambda pop, rng, space, obj: move_closer_reproduce(
        pop, rng, space, obj),
}


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_every_writer_stores_a_non_finite_value_as_inf(writer, value, monkeypatch):
    # a plain objective handed to a public operator is scored as the runners'
    # CountingObjective scores it: the same rows in the same order, a
    # non-finite value stored as +inf, and never a NaN best
    monkeypatch.setattr(hraha, "WORST_FRACTION", 0.1)  # move-closer rewrites 4 slots
    space = SearchSpace([-5.0] * 3, [5.0] * 3)
    start = evaluated([make_rng(i).uniform(-5, 5, 3) for i in range(40)])
    bad = {k: value for k in range(1, 41, 2)}
    plain, counted = Recording(bad), CountingObjective(Recording(bad))
    pops = [copy.deepcopy(start), copy.deepcopy(start)]
    for pop, obj in zip(pops, (plain, counted)):
        WRITERS[writer](pop, make_rng(7), space, obj)

    for m in pops[0].members:
        assert type(m.fitness) is float
        assert math.isfinite(m.fitness) or m.fitness == math.inf
    assert not math.isnan(pops[0].best.fitness)
    assert plain.rows and len(plain.rows) == len(counted.obj.rows) == counted.count
    assert all(a.tobytes() == b.tobytes() for a, b in zip(plain.rows, counted.obj.rows))
    assert [m.fitness for m in pops[0].members] == [m.fitness for m in pops[1].members]
    assert np.array_equal(pops[0].positions, pops[1].positions)
