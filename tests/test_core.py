import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from foxbird.core import (
    CountingObjective,
    Individual,
    Population,
    SearchSpace,
    accept_if_better,
    clamp,
    init_population,
    make_rng,
)


def sphere(x):
    return float(np.dot(x, x))


class TestSearchSpace:
    def test_unit_cube(self):
        space = SearchSpace([0, 0, 0], [1, 1, 1])
        assert space.dims == 3

    def test_rastrigin_box(self):
        space = SearchSpace([-5.12] * 10, [5.12] * 10)
        assert space.dims == 10

    def test_inverted_bound(self):
        with pytest.raises(ValueError, match="inverted bound at j=1"):
            SearchSpace([0, 1], [1, 0])

    @pytest.mark.parametrize("bad", [-math.inf, math.inf, math.nan])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_non_finite_bound(self, bad, side):
        bounds = {"lower": [0.0, 0.0, 0.0], "upper": [1.0, 1.0, 1.0]}
        bounds[side][2] = bad
        with pytest.raises(ValueError, match="non-finite bound at j=2"):
            SearchSpace(bounds["lower"], bounds["upper"])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            SearchSpace([0, 0], [1, 1, 1])

    def test_no_coordinates(self):
        with pytest.raises(ValueError, match="bounds must have at least one coordinate"):
            SearchSpace([], [])


class TestInitPopulation:
    def test_bounds_and_size(self):
        space = SearchSpace([0, 0, 0], [1, 1, 1])
        pop = init_population(space, 30, make_rng(7), sphere)
        assert len(pop) == 30
        for m in pop.members:
            assert np.all(m.position >= 0) and np.all(m.position <= 1)
            assert m.fitness == sphere(m.position)

    def test_positions_are_one_uniform_block(self):
        lower, upper = [-1.0, 0.0, 2.0], [1.0, 5.0, 3.0]
        pop = init_population(SearchSpace(lower, upper), 9, make_rng(7), sphere)
        expected = make_rng(7).uniform(lower, upper, size=(9, 3))
        assert pop.positions().tobytes() == expected.tobytes()

    def test_one_call_per_row_in_order(self):
        seen = []

        def record(x):
            seen.append(x)
            return 0.0

        counted = CountingObjective(record)
        pop = init_population(SearchSpace([0, 0], [1, 1]), 6, make_rng(3), counted)
        assert counted.count == 6
        assert all(x is m.position for x, m in zip(seen, pop.members, strict=True))

    def test_determinism(self):
        space = SearchSpace([0, 0, 0], [1, 1, 1])
        p1 = init_population(space, 30, make_rng(7), sphere)
        p2 = init_population(space, 30, make_rng(7), sphere)
        assert np.array_equal(p1.positions(), p2.positions())

    def test_too_small(self):
        space = SearchSpace([0], [1])
        with pytest.raises(ValueError):
            init_population(space, 3, make_rng(0), sphere)


class TestEvaluate:
    """A member is evaluated when it is made: by ``init_population`` or, for a
    hand-built population, by the caller at construction."""

    @staticmethod
    def evaluated(*positions):
        return Population([Individual(p, sphere(p)) for p in positions])

    def test_origin_is_best(self):
        pop = self.evaluated(np.array([1.0, 1.0]), np.zeros(2))
        assert pop.members[1].fitness == 0.0
        assert pop.best is pop.members[1]

    def test_hand_values(self):
        pop = self.evaluated(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        assert pop.members[0].fitness == 2.0
        assert pop.members[1].fitness == 8.0
        assert pop.best is pop.members[0]

    def test_best_tie_breaks_toward_lowest_index(self):
        pop = self.evaluated(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert pop.best is pop.members[0]

    def test_non_finite_stored_as_plus_inf(self):
        values = iter([float("nan"), 1.5, float("inf"), float("-inf")])
        pop = init_population(SearchSpace([0, 0], [1, 1]), 4, make_rng(0),
                              lambda x: next(values))
        assert [m.fitness for m in pop.members] == [math.inf, 1.5, math.inf, math.inf]
        assert pop.best is pop.members[1]

    def test_individual_needs_a_fitness(self):
        with pytest.raises(TypeError):
            Individual(np.zeros(2))


class TestCountingObjective:
    def test_counts_every_call(self):
        counted = CountingObjective(sphere)
        assert counted(np.array([1.0, 2.0])) == 5.0
        counted(np.zeros(2))
        assert counted.count == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_is_plus_inf(self, bad):
        counted = CountingObjective(lambda x: bad)
        assert counted(np.zeros(1)) == float("inf")
        assert counted.count == 1


class TestAcceptIfBetter:
    @staticmethod
    def one_member(pos, fitness=1.0):
        return Population([Individual(pos, fitness)])

    def test_takes_the_candidate_array_itself(self):
        # one evaluation; a member a caller kept is a value and stays as it was
        calls = []
        pop = self.one_member(np.zeros(2))
        kept = pop.members[0]
        cand = np.ones(2)
        accept_if_better(pop, 0, cand, lambda x: calls.append(x) or np.float64(0.5))
        assert len(calls) == 1 and calls[0] is cand
        assert pop.members[0].position is cand and pop.members[0].fitness == 0.5
        assert type(pop.members[0].fitness) is float
        assert kept.fitness == 1.0 and np.array_equal(kept.position, np.zeros(2))

    def test_tie_accepts(self):
        pop = self.one_member(np.zeros(2))
        cand = np.ones(2)
        accept_if_better(pop, 0, cand, lambda x: 1.0)
        assert pop.members[0].position is cand

    def test_worse_rejected(self):
        pop = self.one_member(np.zeros(2))
        before = pop.members[0]
        accept_if_better(pop, 0, np.ones(2), lambda x: 1.5)
        assert pop.members[0] is before

    def test_member_cannot_change_in_place(self):
        m = Individual(np.zeros(2), 1.0)
        with pytest.raises(AttributeError):
            m.position = np.ones(2)
        with pytest.raises(AttributeError):
            m.fitness = 0.0
        assert not hasattr(m, "copy")


class TestClamp:
    def test_above(self):
        space = SearchSpace([0], [1])
        assert clamp(np.array([1.5]), space)[0] == 1.0

    def test_identity(self):
        space = SearchSpace([0, 0], [1, 1])
        x = np.array([0.3, 0.7])
        assert np.array_equal(clamp(x, space), x)

    def test_below(self):
        space = SearchSpace([-5.12], [5.12])
        assert clamp(np.array([-7.0]), space)[0] == -5.12

    def test_length_mismatch(self):
        space = SearchSpace([0], [1])
        with pytest.raises(ValueError, match="length mismatch"):
            clamp(np.array([0.5, 0.5]), space)

    def test_bytes_equal_np_clip_on_special_values(self):
        # NaN stays NaN, and a signed zero or an infinity comes out with the
        # same bits as np.clip gives, for vectors and for row matrices
        special = [np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 7.5, -7.5]
        rng = make_rng(0)
        for lo, hi in [(-0.0, 1.0), (0.0, 1.0), (-1.0, -0.0), (-1.0, 0.0), (-1.0, 1.0)]:
            space = SearchSpace([lo] * 10, [hi] * 10)
            for shape in ((10,), (3, 10)):
                x = rng.choice(special, size=shape)
                want = np.clip(x, space.lower, space.upper)
                assert clamp(x, space).tobytes() == want.tobytes(), (lo, hi, x)

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=3))
    def test_always_in_box(self, vals):
        space = SearchSpace([-1, 0, 2], [1, 5, 3])
        out = clamp(np.array(vals), space)
        assert np.all(out >= space.lower) and np.all(out <= space.upper)
