import itertools
import math

import numpy as np
import pytest

from mosr.nsga2 import (
    Draws,
    EngineConfig,
    Individual,
    crowded_compare,
    crowding_distance,
    dominates,
    fast_nondominated_sort,
    pareto_front,
    run,
    tournament_select,
)
from mosr.trees import constant, random_tree


def ind(*objectives) -> Individual:
    return Individual(tree=constant(0.0), objectives=tuple(float(v) for v in objectives))


def brute_force_fronts(population):
    """O(n^2) oracle: peel maximal nondominated sets by pairwise checks."""
    remaining = list(population)
    fronts = []
    while remaining:
        front = [
            p
            for p in remaining
            if not any(dominates(q.objectives, p.objectives) for q in remaining)
        ]
        fronts.append(front)
        remaining = [p for p in remaining if p not in front]
    return fronts


def seeded_pools():
    """Seeded two-objective pools of 1-1200 individuals: coarse grids full
    of twins, blocks of accuracy 1.0, +inf in either objective and mixed
    -0.0/0.0."""
    rng = np.random.default_rng(31415)
    for _ in range(24):
        n = int(rng.integers(1, 1201))
        grid = int(rng.integers(2, 30))
        objs = rng.integers(0, grid, size=(n, 2)) / grid
        objs[rng.random(n) < 0.1, 0] = 1.0
        for m in range(2):
            objs[rng.random(n) < 0.05, m] = math.inf
            zeros = rng.random(n) < 0.1
            objs[zeros, m] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
        yield [ind(*row) for row in objs]


class TestDominates:
    def test_strictly_better(self):
        assert dominates((1, 1), (2, 2))

    def test_incomparable(self):
        assert not dominates((1, 2), (2, 1))
        assert not dominates((2, 1), (1, 2))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((1, 1), (1, 1))

    def test_weak_improvement_suffices(self):
        assert dominates((1, 2), (1, 3))

    def test_infinite_values_compare(self):
        assert dominates((1.0, 5.0), (1.0, math.inf))
        assert not dominates((1.0, math.inf), (1.0, math.inf))


class TestFastNondominatedSort:
    def test_worked_example(self):
        a, b, c, d, e = ind(1, 4), ind(2, 2), ind(4, 1), ind(3, 3), ind(4, 4)
        fronts = fast_nondominated_sort([a, b, c, d, e])
        assert [set(map(id, f)) for f in fronts] == [
            {id(a), id(b), id(c)},
            {id(d)},
            {id(e)},
        ]
        assert (a.rank, b.rank, c.rank, d.rank, e.rank) == (0, 0, 0, 1, 2)

    def test_all_identical_single_front(self):
        pop = [ind(1, 1) for _ in range(6)]
        fronts = fast_nondominated_sort(pop)
        assert len(fronts) == 1
        assert len(fronts[0]) == 6

    def test_sorted_chain_gives_singletons(self):
        pop = [ind(1, 1), ind(2, 2), ind(3, 3)]
        fronts = fast_nondominated_sort(pop)
        assert [len(f) for f in fronts] == [1, 1, 1]

    def test_every_individual_in_exactly_one_front(self):
        rng = np.random.default_rng(0)
        pop = [ind(*rng.integers(0, 5, size=2)) for _ in range(40)]
        fronts = fast_nondominated_sort(pop)
        flat = [id(x) for f in fronts for x in f]
        assert sorted(flat) == sorted(id(x) for x in pop)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2718)
        for _ in range(60):
            n = int(rng.integers(1, 48))
            m = int(rng.integers(2, 4))
            # coarse grid values produce plenty of duplicates and ties
            pop = [ind(*rng.integers(0, 6, size=m)) for _ in range(n)]
            got = fast_nondominated_sort(pop)
            expected = brute_force_fronts(pop)
            assert [set(map(id, f)) for f in got] == [set(map(id, f)) for f in expected]


class TestSelectionSort:
    """The engine's duplicate-demoting ranking (selection only)."""

    @staticmethod
    def _oracle(population):
        # peel the relation "strictly dominates, or is an earlier twin of"
        # directly from its full matrix
        from mosr.nsga2 import _peel_fronts

        objs = np.array([p.objectives for p in population])
        le = (objs[:, None, :] <= objs[None, :, :]).all(axis=2)
        lt = (objs[:, None, :] < objs[None, :, :]).any(axis=2)
        equal = le & ~lt
        earlier = np.triu(np.ones(len(population), dtype=bool), k=1)
        return _peel_fronts(population, (le & lt) | (equal & earlier))

    def test_matches_matrix_peeling_oracle(self):
        from mosr.nsga2 import _selection_sort

        for pop in seeded_pools():
            got = [[id(x) for x in f] for f in _selection_sort(pop)]
            got_ranks = [p.rank for p in pop]
            expected = [[id(x) for x in f] for f in self._oracle(pop)]
            expected_ranks = [p.rank for p in pop]
            assert got == expected
            assert got_ranks == expected_ranks

    def test_rejects_other_than_two_objectives(self):
        from mosr.nsga2 import _selection_sort

        pop = [ind(1, 2, 3), ind(3, 2, 1)]
        with pytest.raises(ValueError, match="exactly two objectives"):
            _selection_sort(pop)
        with pytest.raises(ValueError, match="exactly two objectives"):
            pareto_front(pop)

    def test_twins_chain_one_per_front(self):
        from mosr.nsga2 import _selection_sort

        pop = [ind(1, 1), ind(1, 1), ind(1, 1), ind(2, 2)]
        fronts = _selection_sort(pop)
        assert [len(f) for f in fronts] == [1, 1, 1, 1]
        assert [p.rank for p in pop] == [0, 1, 2, 3]

    def test_distinct_vectors_keep_strict_ranks(self):
        from mosr.nsga2 import _selection_sort

        pop = [ind(1, 4), ind(2, 2), ind(4, 1), ind(3, 3), ind(4, 4)]
        _selection_sort(pop)
        assert [p.rank for p in pop] == [0, 0, 0, 1, 2]


class TestCrowdingDistance:
    def test_worked_example(self):
        front = [ind(1, 4), ind(2, 2), ind(4, 1)]
        d = crowding_distance(front)
        assert d[0] == math.inf
        assert d[2] == math.inf
        assert d[1] == pytest.approx(2.0)  # (4-1)/(4-1) + (4-1)/(4-1)

    def test_small_fronts_all_infinite(self):
        assert crowding_distance([ind(1, 2)]) == [math.inf]
        assert crowding_distance([ind(1, 2), ind(2, 1)]) == [math.inf, math.inf]

    def test_duplicates_get_zero_interior_contribution(self):
        front = [ind(1, 3), ind(2, 2), ind(2, 2), ind(2, 2), ind(3, 1)]
        d = crowding_distance(front)
        assert d[2] == 0.0  # fully interior duplicate

    def test_zero_range_contributes_zero(self):
        front = [ind(1, 7), ind(2, 7), ind(3, 7)]
        d = crowding_distance(front)
        # second objective has zero range; interior point gets only the
        # first objective's contribution
        assert d[1] == pytest.approx((3 - 1) / (3 - 1))

    def test_written_back_to_individuals(self):
        front = [ind(1, 4), ind(2, 2), ind(4, 1)]
        crowding_distance(front)
        assert front[1].crowding == pytest.approx(2.0)

    def test_infinite_objective_values_stay_ordered(self):
        front = [ind(0.5, 1.0), ind(0.4, 2.0), ind(0.3, math.inf)]
        d = crowding_distance(front)
        assert all(not math.isnan(x) for x in d)
        assert d[0] == math.inf and d[2] == math.inf


class TestCrowdedCompare:
    def test_lower_rank_wins(self):
        a, b = ind(1, 1), ind(2, 2)
        a.rank, b.rank = 0, 1
        assert crowded_compare(a, b) == -1
        assert crowded_compare(b, a) == 1

    def test_equal_rank_larger_crowding_wins(self):
        a, b = ind(1, 2), ind(2, 1)
        a.rank = b.rank = 0
        a.crowding, b.crowding = math.inf, 1.0
        assert crowded_compare(a, b) == -1

    def test_full_tie_is_zero(self):
        a, b = ind(1, 2), ind(2, 1)
        a.rank = b.rank = 0
        a.crowding = b.crowding = 1.5
        assert crowded_compare(a, b) == 0

    def test_tournament_tie_is_seed_deterministic(self):
        pop = [ind(1, 2), ind(2, 1)]
        for p in pop:
            p.rank, p.crowding = 0, 1.0
        picks_a = [tournament_select(pop, np.random.default_rng(5)) for _ in range(3)]
        picks_b = [tournament_select(pop, np.random.default_rng(5)) for _ in range(3)]
        assert [id(x) for x in picks_a] == [id(x) for x in picks_b]


# every path of Draws.integers: no draw (1), powers of two, odd and even
# spans, spans whose rejection threshold is large, and the largest span the
# Lemire path takes
SPANS = [1, 2, 3, 4, 5, 7, 8, 11, 64, 100, 1000, 65_537, 2**31 - 1, 2**31, 2**31 + 1,
         3 * 2**30, 2**32 - 2, 2**32 - 1]


def _twins(seed):
    """A Generator and Draws over a second Generator with the same seed."""
    return np.random.default_rng(seed), Draws(np.random.default_rng(seed))


def _same_state(generator, draws):
    return generator.bit_generator.state == draws._generator.bit_generator.state


class TestDraws:
    @pytest.mark.parametrize("seed", range(40))
    def test_integers_match_the_generator(self, seed):
        generator, draws = _twins(seed)
        for span in SPANS:
            for _ in range(25):
                expected = generator.integers(span)
                got = draws.integers(span)
                assert type(got) is int and got == expected, (seed, span)
        assert _same_state(generator, draws)

    @pytest.mark.parametrize("seed", range(20))
    def test_low_high_form_and_the_other_draws_interleave(self, seed):
        # low + integers(span) is the Generator's integers(low, low + span):
        # numpy bounds both by span - 1
        generator, draws = _twins(seed)
        for step in range(400):
            span = SPANS[step % len(SPANS)]
            low = (-3, 0, 1, 7)[step % 4]
            assert low + draws.integers(span) == generator.integers(low, low + span)
            assert draws.random() == generator.random()
            if step % 3 == 0:
                assert draws.normal(0.0, 1.0) == generator.normal(0.0, 1.0)
            assert draws.uniform(-20.0, 20.0) == generator.uniform(-20.0, 20.0)
            assert draws.integers(span) == generator.integers(span)
        assert _same_state(generator, draws)

    def test_other_spans_are_the_generators_own(self):
        generator, draws = _twins(3)
        for low, high in [(0, 2**32), (5, 5 + 2**40), (-(2**62), 2**62)]:
            for _ in range(20):
                assert low + draws.integers(high - low) == generator.integers(low, high)
        assert _same_state(generator, draws)
        for bad in [0, -1]:
            with pytest.raises(ValueError):
                generator.integers(bad)
            with pytest.raises(ValueError):
                draws.integers(bad)
        assert _same_state(generator, draws)

    def test_random_trees_match_those_grown_from_the_generator(self):
        for seed in range(30):
            generator, draws = _twins(seed)
            for n_variables, max_length, max_depth in [(0, 10, 4), (3, 100, 17), (1, 1, 17)]:
                expected = random_tree(generator, n_variables, max_length, max_depth)
                got = random_tree(draws, n_variables, max_length, max_depth)
                assert got == expected
            assert _same_state(generator, draws)


def _count_objective(counter):
    def objective(tree):
        counter["n"] += 1
        return (float(tree.size), float(abs(hash(id(tree))) % 7))

    return objective


class TestRun:
    def test_budget_exhausted_at_init_returns_unevolved(self):
        counter = {"n": 0}
        config = EngineConfig(population_size=20, max_evaluations=20, seed=1)
        pop, evals = run(config, _count_objective(counter), n_variables=2)
        assert evals == 20
        assert counter["n"] == 20
        assert len(pop) == 20

    def test_exact_budget_with_aligned_generations(self):
        counter = {"n": 0}
        config = EngineConfig(population_size=10, max_evaluations=50, seed=2)
        pop, evals = run(config, _count_objective(counter), n_variables=2)
        assert evals == 50  # 10 + 4 * 10
        assert counter["n"] == 50

    def test_budget_overshoot_bounded_by_population(self):
        counter = {"n": 0}
        config = EngineConfig(population_size=10, max_evaluations=55, seed=3)
        pop, evals = run(config, _count_objective(counter), n_variables=2)
        assert 55 <= evals < 55 + 10
        assert evals == 60  # whole generations only
        assert counter["n"] == evals

    def test_every_individual_evaluated_exactly_once(self):
        seen = []

        def objective(tree):
            seen.append(id(tree))
            return (float(tree.size), 1.0)

        config = EngineConfig(population_size=8, max_evaluations=40, seed=4)
        _, evals = run(config, objective, n_variables=2)
        assert len(seen) == evals

    def test_each_batch_is_prepared_before_its_trees_are_evaluated(self):
        batches, calls = [], []

        def objective(tree):
            calls.append(tree)
            return (float(tree.size), float(tree.height))

        def prepare(trees):
            start, batch = len(calls), []
            batches.append((start, batch))
            for tree in trees:  # recorded as they pass through
                assert len(calls) == start  # none evaluated while the batch is drawn
                batch.append(tree)

        config = EngineConfig(population_size=9, max_evaluations=40, seed=8)
        unprepared, _ = run(config, objective, n_variables=2)
        drawn, calls[:] = list(calls), []
        objective.prepare = prepare
        population, evals = run(config, objective, n_variables=2)
        assert evals == 45 and len(calls) == 45  # one call per evaluation
        assert [start for start, _ in batches] == [0, 9, 18, 27, 36]
        for start, trees in batches:
            assert all(a is b for a, b in zip(trees, calls[start:start + 9]))
            assert len(trees) == 9
        assert calls == drawn  # the same trees in the same order as without prepare
        assert [i.tree for i in population] == [i.tree for i in unprepared]

    def test_trees_prepare_leaves_untaken_are_drawn_after_it(self):
        calls, taken = [], []

        def objective(tree):
            calls.append(tree)
            return (float(tree.size), float(tree.height))

        config = EngineConfig(population_size=9, max_evaluations=40, seed=8)
        run(config, objective, n_variables=2)
        drawn, calls[:] = list(calls), []
        def prepare(trees):
            assert len(taken) < 5, "a batch was never drawn"
            taken.append(next(trees))

        objective.prepare = prepare
        _, evals = run(config, objective, n_variables=2)
        assert evals == 45 and calls == drawn
        assert taken == drawn[::9]

    def test_deterministic_per_seed(self):
        def objective(tree):
            return (float(tree.size % 5), float(tree.height))

        config = EngineConfig(population_size=12, max_evaluations=60, seed=11)
        pop_a, _ = run(config, objective, n_variables=3)
        pop_b, _ = run(config, objective, n_variables=3)
        assert [i.objectives for i in pop_a] == [i.objectives for i in pop_b]
        assert all(x.tree == y.tree for x, y in zip(pop_a, pop_b))

    def test_length_cap_holds_every_generation(self):
        def objective(tree):
            return (1.0 / (1.0 + tree.size), float(tree.size))

        lengths = []
        heights = []

        def watch(gen, pop, evals):
            lengths.extend(i.tree.size for i in pop)
            heights.extend(i.tree.height for i in pop)

        config = EngineConfig(
            population_size=16, max_evaluations=160, max_length=25, max_depth=6, seed=5
        )
        pop, _ = run(config, objective, n_variables=2, on_generation=watch)
        assert lengths
        assert max(lengths) <= 25
        assert max(heights) <= 6

    def test_elitism_front_never_dominated_by_previous(self):
        rng_obj = np.random.default_rng(0)

        def objective(tree):
            # noisy objectives exercise real front churn
            return (
                float(tree.size + rng_obj.integers(0, 3)),
                float(tree.height + rng_obj.integers(0, 3)),
            )

        front_history = []

        def watch(gen, pop, evals):
            vectors = {i.objectives for i in pop if i.rank == 0}
            front_history.append(vectors)

        config = EngineConfig(population_size=20, max_evaluations=300, seed=6)
        run(config, objective, n_variables=2, on_generation=watch)
        assert len(front_history) > 5
        for old, new in zip(front_history, front_history[1:]):
            for vec in new:
                assert not any(dominates(o, vec) for o in old)

    def test_nan_objective_raises(self):
        def objective(tree):
            return (math.nan, 1.0)

        config = EngineConfig(population_size=4, max_evaluations=4, seed=0)
        with pytest.raises(ValueError, match="NaN"):
            run(config, objective, n_variables=1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(population_size=1)
        with pytest.raises(ValueError):
            EngineConfig(population_size=10, max_evaluations=5)
        with pytest.raises(ValueError):
            EngineConfig(mutation_rate=1.5)


class TestParetoFront:
    def test_front_zero_of_worked_example(self):
        pop = [ind(1, 4), ind(2, 2), ind(4, 1), ind(3, 3), ind(4, 4)]
        front = pareto_front(pop)
        assert [i.objectives for i in front] == [(4.0, 1.0), (2.0, 2.0), (1.0, 4.0)]

    def test_singleton(self):
        pop = [ind(1, 1)]
        assert pareto_front(pop) == pop

    def test_duplicates_collapse(self):
        pop = [ind(1, 2), ind(1, 2), ind(2, 1), ind(2, 1)]
        front = pareto_front(pop)
        assert [i.objectives for i in front] == [(2.0, 1.0), (1.0, 2.0)]

    def test_sorted_by_complexity_accuracy_strictly_decreasing(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            pop = [ind(*rng.integers(0, 10, size=2)) for _ in range(30)]
            front = pareto_front(pop)
            obj2 = [i.objectives[1] for i in front]
            acc = [i.objectives[0] for i in front]
            assert obj2 == sorted(obj2)
            assert all(a > b for a, b in zip(acc, acc[1:]))

    def test_matches_strict_sort_first_copies(self):
        for pop in seeded_pools():
            first_copies = {}
            for p in fast_nondominated_sort(pop)[0]:
                first_copies.setdefault(p.objectives, p)
            expected = sorted(first_copies.values(), key=lambda p: p.objectives[1])
            assert [id(p) for p in pareto_front(pop)] == [id(p) for p in expected]

    def test_leaves_ranks_unwritten(self):
        pop = [ind(1, 4), ind(2, 2), ind(3, 3)]
        pareto_front(pop)
        assert [p.rank for p in pop] == [-1, -1, -1]
