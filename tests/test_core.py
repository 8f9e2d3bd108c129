import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

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

    @pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-1e308, 8e307)])
    def test_width_that_is_not_finite(self, lo, hi):
        with pytest.raises(ValueError, match=r"width hi - lo is not finite at j=1"):
            SearchSpace([0.0, lo], [1.0, hi])

    def test_wide_finite_box_accepted(self):
        space = SearchSpace([-8e307], [8e307])
        assert space.upper[0] - space.lower[0] == 1.6e308

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            SearchSpace([0, 0], [1, 1, 1])

    def test_no_coordinates(self):
        with pytest.raises(ValueError, match="bounds must have at least one coordinate"):
            SearchSpace([], [])

    def test_two_dimensional_bounds(self):
        with pytest.raises(ValueError, match="bounds must be 1-D vectors"):
            SearchSpace([[0, 0], [0, 0]], [[1, 1], [1, 1]])


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

    def test_squared_widths_that_overflow_name_the_coordinate(self):
        # every width is finite, and so are 1 + 1e308, but not 1 + 2e308
        space = SearchSpace([0.0, 0.0, 0.0, 0.0], [1.0, 1e154, 1e154, 1.0])
        with pytest.raises(ValueError, match=r"\(hi - lo\)\*\*2 sum past the largest float at j=2"):
            init_population(space, 4, make_rng(0), sphere)


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

    @pytest.mark.parametrize("value, want", [(1.5, 1.5), (np.nan, math.inf), (np.inf, math.inf),
                                             (-np.inf, math.inf), (-0.0, -0.0)])
    @pytest.mark.parametrize("kind", ["function", "batched"])
    def test_one_point_is_a_one_row_batch(self, kind, value, want):
        # one counting rule: a point goes through batch as the one row [x]
        x = np.array([0.25, -1.0])
        seen = []
        obj = (Batched(np.array([value])) if kind == "batched"
               else lambda x: seen.append(x) or np.float64(value))
        counted = CountingObjective(obj)
        out = counted(x)
        if kind == "batched":
            assert obj.scalar_calls == 0
            assert obj.batches == [[x]] and obj.batches[0][0] is x
        else:
            assert len(seen) == 1 and seen[0] is x
        assert counted.count == 1
        assert type(out) is float
        assert out == want and math.copysign(1.0, out) == math.copysign(1.0, want)

    @pytest.mark.parametrize("values", [np.zeros(0), np.zeros(2), np.zeros((1, 1)),
                                        np.float64(0.0)])
    def test_one_point_malformed_batch_names_the_shapes(self, values):
        counted = CountingObjective(Batched(values))
        message = f"batch returned shape {np.shape(values)} for 1 rows; expected (1,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            counted(np.zeros(2))

    @staticmethod
    def assert_first_strictly_lower(batches):
        """Score each batch of values through one counter, one call per row,
        and check its best against a strict ``<`` loop over the rows in
        order, the first row always taken."""
        values = iter([v for batch in batches for v in batch])
        counted = CountingObjective(lambda x: next(values))
        want_x = want_f = None
        k = 0
        for batch in batches:
            X = [np.full(2, float(k + j)) for j in range(len(batch))]
            k += len(batch)
            for x, f in zip(X, counted.batch(X), strict=True):
                if want_x is None or f < want_f:
                    want_x, want_f = x, f
        assert counted.best_x is want_x
        assert repr(counted.best_f) == repr(want_f)  # the sign of a zero too

    @pytest.mark.parametrize("batches", [
        [[math.inf, math.inf, math.inf]],
        [[math.nan, -math.inf, math.inf]],
        [[0.0, -0.0]],
        [[-0.0, 0.0]],
        [[0.0], [-0.0]],
        [[-0.0], [0.0]],
        [[2.0, 1.0, 1.0], [3.0, 0.5, 0.5]],
        [[1.0], [], [math.inf, 1.0, 0.0]],
        [[]],
    ], ids=["all-inf-keeps-row-0", "non-finite-keeps-row-0", "zero-then-minus-zero",
            "minus-zero-then-zero", "zero-then-minus-zero-across-batches",
            "minus-zero-then-zero-across-batches", "strict-improvement-across-batches",
            "empty-batch-between", "empty-batch-leaves-it-unset"])
    def test_best_is_the_first_strictly_lower_row(self, batches):
        self.assert_first_strictly_lower(batches)

    @given(st.lists(st.lists(st.sampled_from([-0.0, 0.0, 1.0, -1.0, math.inf, math.nan]),
                             max_size=5), min_size=1, max_size=5))
    def test_best_equals_a_strict_per_row_loop(self, batches):
        self.assert_first_strictly_lower(batches)


class Batched:
    """An objective that offers ``batch`` and records what each method got."""

    def __init__(self, values):
        self.values = values
        self.scalar_calls = 0
        self.batches = []

    def __call__(self, x):
        self.scalar_calls += 1
        return self.values[0]

    def batch(self, X):
        self.batches.append(X)
        return self.values


class TestCountingObjectiveBatch:
    def test_uses_batch_counts_rows_and_maps_non_finite(self):
        obj = Batched(np.array([1.5, np.nan, np.inf, -np.inf, -0.0]))
        counted = CountingObjective(obj)
        rows = list(np.zeros((5, 2)))
        out = counted.batch(rows)
        assert obj.batches == [rows] and obj.scalar_calls == 0
        assert counted.count == 5
        assert out == [1.5, math.inf, math.inf, math.inf, 0.0]
        assert math.copysign(1.0, out[4]) == -1.0
        assert all(type(f) is float for f in out)

    def test_fallback_calls_each_row_object_in_order(self):
        seen = []
        values = iter([3, np.float64(2.0), float("nan")])
        counted = CountingObjective(lambda x: seen.append(x) or next(values))
        rows = list(np.arange(6.0).reshape(3, 2))
        out = counted.batch(rows)
        assert all(x is r for x, r in zip(seen, rows, strict=True))
        assert out == [3.0, 2.0, math.inf]
        assert all(type(f) is float for f in out)
        assert counted.count == 3

    @pytest.mark.parametrize("values", [np.zeros(2), np.zeros(4), np.zeros((3, 1)),
                                        np.float64(0.0)])
    def test_malformed_batch_names_the_shapes(self, values):
        # zip would silently drop the rows a short batch left out
        counted = CountingObjective(Batched(values))
        message = f"batch returned shape {np.shape(values)} for 3 rows; expected (3,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            counted.batch(np.zeros((3, 2)))


class TestAcceptRows:
    @staticmethod
    def population(*fitnesses):
        return Population([Individual(np.full(2, float(i)), f)
                           for i, f in enumerate(fitnesses)])

    def test_evaluates_every_row_then_accepts_under_the_tie_rule(self):
        pop = self.population(1.0, 1.0, 1.0)
        rejected = pop.members[2]
        cands = np.array([[5.0, 5.0], [6.0, 6.0], [7.0, 7.0]])
        obj = Batched(np.array([0.5, 1.0, 1.5]))
        accept_rows(pop, cands, obj)
        assert len(obj.batches) == 1 and obj.scalar_calls == 0
        rows = obj.batches[0]
        assert pop.members[0].position is rows[0] and pop.members[0].fitness == 0.5
        assert pop.members[1].position is rows[1] and pop.members[1].fitness == 1.0
        assert pop.members[2] is rejected
        assert all(type(m.fitness) is float for m in pop.members)

    def test_without_batch_one_call_per_row_before_any_accept(self):
        pop = self.population(1.0, 1.0)
        seen = []

        def obj(x):
            # no member has changed while the sweep is scored
            assert [m.fitness for m in pop.members] == [1.0, 1.0]
            seen.append(x)
            return 0.0

        accept_rows(pop, np.ones((2, 2)), obj)
        assert all(m.position is x for m, x in zip(pop.members, seen, strict=True))


class TestAcceptIfBetter:
    """The greedy rule, one candidate into a chosen slot, through
    ``accept_rows(pop, cands, obj, slots)``: a candidate is kept unless it
    worsens its slot's fitness."""

    @staticmethod
    def two_members(fitness=1.0):
        return Population([Individual(np.full(2, 7.0), 0.0), Individual(np.zeros(2), fitness)])

    def test_takes_the_candidate_array_itself(self):
        # one evaluation; a member a caller kept is a value and stays as it was
        calls = []
        pop = self.two_members()
        kept = pop.members[1]
        cand = np.ones(2)
        accept_rows(pop, [cand], lambda x: calls.append(x) or np.float64(0.5), [1])
        assert len(calls) == 1 and calls[0] is cand
        assert pop.members[1].position is cand and pop.members[1].fitness == 0.5
        assert type(pop.members[1].fitness) is float
        assert kept.fitness == 1.0 and np.array_equal(kept.position, np.zeros(2))
        assert pop.members[0].fitness == 0.0

    def test_tie_accepts(self):
        pop = self.two_members()
        cand = np.ones(2)
        accept_rows(pop, [cand], lambda x: 1.0, [1])
        assert pop.members[1].position is cand

    def test_worse_rejected(self):
        pop = self.two_members()
        before = pop.members[1]
        accept_rows(pop, [np.ones(2)], lambda x: 1.5, [1])
        assert pop.members[1] is before

    def test_non_finite_is_stored_as_inf(self):
        # through the counted objective every runner uses: NaN counts as +inf,
        # which ties a slot at +inf and is stored as +inf
        pop = self.two_members(math.inf)
        cand = np.ones(2)
        accept_rows(pop, [cand], CountingObjective(lambda x: float("nan")), [1])
        assert pop.members[1].position is cand and pop.members[1].fitness == math.inf

    def test_slots_are_scored_in_the_given_order(self):
        # rows are scored in row order and row k goes to slots[k]
        pop = Population([Individual(np.zeros(2), 9.0) for _ in range(4)])
        cands = [np.full(2, float(k)) for k in range(3)]
        seen = []
        accept_rows(pop, cands, lambda x: seen.append(x) or float(x[0]), [3, 0, 2])
        assert len(seen) == 3 and all(x is c for x, c in zip(seen, cands))
        assert [m.fitness for m in pop.members] == [1.0, 9.0, 2.0, 0.0]
        assert pop.members[3].position is cands[0] and pop.members[0].position is cands[1]

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
