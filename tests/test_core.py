import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from foxbird.core import (
    CountingObjective,
    Individual,
    Population,
    accept_if_better,
    clamp,
    evaluate,
    init_population,
    make_rng,
    make_search_space,
)


def sphere(x):
    return float(np.dot(x, x))


class TestSearchSpace:
    def test_unit_cube(self):
        space = make_search_space([0, 0, 0], [1, 1, 1])
        assert space.dims == 3

    def test_rastrigin_box(self):
        space = make_search_space([-5.12] * 10, [5.12] * 10)
        assert space.dims == 10

    def test_inverted_bound(self):
        with pytest.raises(ValueError, match="inverted bound at j=1"):
            make_search_space([0, 1], [1, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            make_search_space([0, 0], [1, 1, 1])


class TestInitPopulation:
    def test_bounds_and_size(self):
        space = make_search_space([0, 0, 0], [1, 1, 1])
        pop = init_population(space, 30, make_rng(7))
        assert len(pop) == 30
        for m in pop:
            assert np.all(m.position >= 0) and np.all(m.position <= 1)
            assert m.fitness is None

    def test_determinism(self):
        space = make_search_space([0, 0, 0], [1, 1, 1])
        p1 = init_population(space, 30, make_rng(7))
        p2 = init_population(space, 30, make_rng(7))
        assert np.array_equal(p1.positions(), p2.positions())

    def test_too_small(self):
        space = make_search_space([0], [1])
        with pytest.raises(ValueError):
            init_population(space, 3, make_rng(0))


class TestEvaluate:
    def test_origin_is_best(self):
        pop = Population([Individual(np.array([1.0, 1.0])),
                          Individual(np.zeros(2))])
        evaluate(pop, sphere)
        assert pop.members[1].fitness == 0.0
        assert pop.best_index == 1

    def test_hand_values(self):
        pop = Population([Individual(np.array([1.0, 1.0])),
                          Individual(np.array([2.0, 2.0]))])
        evaluate(pop, sphere)
        assert pop.members[0].fitness == 2.0
        assert pop.members[1].fitness == 8.0
        assert pop.best_index == 0

    def test_non_finite_stored_as_plus_inf(self):
        values = iter([float("nan"), 1.5, float("inf"), float("-inf")])
        pop = Population([Individual(np.zeros(2)) for _ in range(4)])
        evaluate(pop, lambda x: next(values))
        assert [m.fitness for m in pop.members] == [math.inf, 1.5, math.inf, math.inf]
        assert pop.best_index == 1


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
    def test_takes_the_candidate_array_itself(self):
        m = Individual(np.zeros(2), 1.0)
        cand = np.ones(2)
        accept_if_better(m, cand, 0.5)
        assert m.position is cand and m.fitness == 0.5

    def test_tie_accepts(self):
        m = Individual(np.zeros(2), 1.0)
        cand = np.ones(2)
        accept_if_better(m, cand, 1.0)
        assert m.position is cand

    def test_worse_rejected(self):
        pos = np.zeros(2)
        m = Individual(pos, 1.0)
        accept_if_better(m, np.ones(2), 1.5)
        assert m.position is pos and m.fitness == 1.0


class TestClamp:
    def test_above(self):
        space = make_search_space([0], [1])
        assert clamp(np.array([1.5]), space)[0] == 1.0

    def test_identity(self):
        space = make_search_space([0, 0], [1, 1])
        x = np.array([0.3, 0.7])
        assert np.array_equal(clamp(x, space), x)

    def test_below(self):
        space = make_search_space([-5.12], [5.12])
        assert clamp(np.array([-7.0]), space)[0] == -5.12

    def test_length_mismatch(self):
        space = make_search_space([0], [1])
        with pytest.raises(ValueError, match="length mismatch"):
            clamp(np.array([0.5, 0.5]), space)

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=3))
    def test_always_in_box(self, vals):
        space = make_search_space([-1, 0, 2], [1, 5, 3])
        out = clamp(np.array(vals), space)
        assert np.all(out >= space.lower) and np.all(out <= space.upper)
