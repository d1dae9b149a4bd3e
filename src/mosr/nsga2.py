"""NSGA-II core: dominance, fast nondominated sorting, crowding distance,
crowded tournaments and the elitist generational loop.

All objectives are minimized.  The loop is generational: each step builds
``population_size`` offspring through binary crowded tournaments, subtree
crossover (always) and mutation (with ``mutation_rate``), evaluates each
offspring once, merges parents and offspring and keeps the best
``population_size`` by nondomination rank, then crowding.  Selection and
:func:`pareto_front` rank exactly two objectives (accuracy, then
complexity) by one sorted sweep; :func:`dominates` and
:func:`fast_nondominated_sort` take any number.  Every individual
ever created is evaluated exactly once; the run stops at the end of the
generation in which the evaluation budget is reached, so the final count is
in [max_evaluations, max_evaluations + population_size).

Everything is deterministic for a fixed seed; the engine owns a single
numpy Generator and never touches global randomness.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .trees import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_LENGTH,
    Node,
    crossover,
    mutate,
    random_tree,
)

_INF = float("inf")

Objectives = tuple[float, ...]


@dataclass
class Individual:
    tree: Node
    objectives: Objectives
    rank: int = -1
    crowding: float = 0.0


@dataclass
class EngineConfig:
    population_size: int = 500
    max_evaluations: int = 200_000
    max_length: int = DEFAULT_MAX_LENGTH
    mutation_rate: float = 0.25
    tournament_size: int = 2
    seed: int = 0
    max_depth: int = DEFAULT_MAX_DEPTH

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.max_evaluations < self.population_size:
            raise ValueError("max_evaluations must be >= population_size")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff a is no worse than b everywhere and better somewhere."""
    better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            better = True
    return better


def _objective_matrix(population: Sequence[Individual]) -> np.ndarray:
    return np.array([ind.objectives for ind in population], dtype=float)


def _peel_fronts(
    population: Sequence[Individual], dom: np.ndarray
) -> list[list[Individual]]:
    n_dominators = dom.sum(axis=0)
    unassigned = np.ones(len(population), dtype=bool)
    fronts: list[list[Individual]] = []
    while unassigned.any():
        current = unassigned & (n_dominators == 0)
        idxs = np.flatnonzero(current)
        rank = len(fronts)
        for i in idxs:
            population[i].rank = rank
        fronts.append([population[i] for i in idxs])
        unassigned[idxs] = False
        n_dominators = n_dominators - dom[idxs].sum(axis=0)
    return fronts


def fast_nondominated_sort(population: Sequence[Individual]) -> list[list[Individual]]:
    """Partition into fronts; writes ``rank`` back onto each individual.

    Vectorized domination counting under strict Pareto dominance; front k
    contains exactly the individuals dominated by nobody once fronts < k
    are removed.  Individuals with identical objective vectors share a
    front.
    """
    if not population:
        return []
    objs = _objective_matrix(population)
    le = (objs[:, None, :] <= objs[None, :, :]).all(axis=2)
    lt = (objs[:, None, :] < objs[None, :, :]).any(axis=2)
    return _peel_fronts(population, le & lt)


def _ranks(population: Sequence[Individual]) -> list[int]:
    """Rank of each individual under strict dominance plus duplicate
    demotion, for exactly two objectives.

    Each exact twin counts as dominated by its earlier twins, so clones
    form a chain of one per front.  Without this, individuals with the
    minimal complexity (e.g. bare constants, never strictly dominated)
    clone themselves until they flood the population.

    One sweep in lexicographic order (Jensen, IEEE TEC 7(5), 2003), stable,
    so twins come in population order.  A visited individual whose second
    objective is no larger strictly dominates the current one or is its
    earlier twin; the rest are incomparable with it.  ``least[r]`` is the
    smallest second objective on front ``r`` so far.  Each member of front
    ``r + 1`` has a no larger one on front ``r``, so ``least`` never
    decreases and one bisect finds the rank.
    """
    if not population:
        return []
    objs = _objective_matrix(population)
    if objs.shape[1] != 2:
        raise ValueError(f"selection ranks exactly two objectives, got {objs.shape[1]}")
    first, second = objs.T
    second_values = second.tolist()
    least: list[float] = []
    ranks = [0] * len(population)
    for i in np.lexsort((second, first)).tolist():
        value = second_values[i]
        rank = ranks[i] = bisect_right(least, value)
        if rank == len(least):
            least.append(value)
        else:
            least[rank] = value
    return ranks


def _selection_sort(population: Sequence[Individual]) -> list[list[Individual]]:
    """Fronts of :func:`_ranks`, members in population order; writes
    ``rank`` back onto each individual."""
    ranks = _ranks(population)
    fronts: list[list[Individual]] = [[] for _ in range(max(ranks, default=-1) + 1)]
    for ind, rank in zip(population, ranks):
        ind.rank = rank
        fronts[rank].append(ind)
    return fronts


def crowding_distance(front: Sequence[Individual]) -> list[float]:
    """Crowding distances; also written back onto each individual.

    Boundary individuals per objective get +inf.  Interior individuals
    accumulate (gap between neighbours) / (objective range); a zero range
    contributes 0.  Non-finite objective values are handled by normalizing
    over the finite span and treating a gap that touches infinity as
    infinite isolation.
    """
    n = len(front)
    dist = np.zeros(n)
    if n <= 2:
        dist[:] = _INF
    else:
        objs = _objective_matrix(front)
        for m in range(objs.shape[1]):
            vals = objs[:, m]
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            dist[order[0]] = _INF
            dist[order[-1]] = _INF
            finite = sv[np.isfinite(sv)]
            span = float(finite[-1] - finite[0]) if finite.size >= 2 else 0.0
            lo = sv[:-2]
            hi = sv[2:]
            interior = order[1:-1]
            equal = hi == lo
            infinite_gap = ~equal & (np.isinf(hi) | np.isinf(lo))
            if span > 0.0:
                with np.errstate(invalid="ignore"):
                    contrib = np.where(equal | infinite_gap, 0.0, (hi - lo) / span)
                dist[interior] += contrib
            dist[interior[infinite_gap]] = _INF
    for ind, d in zip(front, dist):
        ind.crowding = float(d)
    return [float(d) for d in dist]


def crowded_compare(a: Individual, b: Individual) -> int:
    """-1 if a is preferred, 1 if b is, 0 on a full tie.

    Lower rank wins; on equal rank the larger crowding distance wins.
    Ties are left to the caller (tournaments break them with their rng).
    """
    if a.rank != b.rank:
        return -1 if a.rank < b.rank else 1
    if a.crowding != b.crowding:
        return -1 if a.crowding > b.crowding else 1
    return 0


def tournament_select(
    population: Sequence[Individual], rng: np.random.Generator, k: int = 2
) -> Individual:
    """Size-k crowded tournament; full ties are coin flips from ``rng``."""
    winner = population[int(rng.integers(len(population)))]
    for _ in range(k - 1):
        challenger = population[int(rng.integers(len(population)))]
        outcome = crowded_compare(winner, challenger)
        if outcome > 0 or (outcome == 0 and rng.random() < 0.5):
            winner = challenger
    return winner


def _evaluate(tree: Node, objective_fn: Callable[[Node], Objectives]) -> Individual:
    objectives = tuple(float(v) for v in objective_fn(tree))
    for v in objectives:
        if v != v:  # NaN poisons dominance; surface it as a config error
            raise ValueError(f"objective function returned NaN: {objectives}")
    return Individual(tree=tree, objectives=objectives)


def _environmental_selection(merged: list[Individual], size: int) -> list[Individual]:
    survivors: list[Individual] = []
    for front in _selection_sort(merged):
        crowding_distance(front)
        if len(survivors) + len(front) <= size:
            survivors.extend(front)
        else:
            by_spread = sorted(front, key=lambda ind: -ind.crowding)
            survivors.extend(by_spread[: size - len(survivors)])
            break
    return survivors


def run(
    config: EngineConfig,
    objective_fn: Callable[[Node], Objectives],
    n_variables: int,
    on_generation: Callable[[int, list[Individual], int], None] | None = None,
) -> tuple[list[Individual], int]:
    """Evolve under the evaluation budget; returns (population, evaluations).

    ``objective_fn`` maps a tree to its minimized objective vector (here
    typically ``(1 - R^2 on training rows, complexity measure)``).  Each
    initial individual and each offspring counts as one evaluation.
    ``on_generation(generation, population, evaluations)`` is called after
    every environmental selection.
    """
    rng = np.random.default_rng(config.seed)
    population = [
        _evaluate(
            random_tree(rng, n_variables, config.max_length, config.max_depth),
            objective_fn,
        )
        for _ in range(config.population_size)
    ]
    evaluations = config.population_size
    for front in _selection_sort(population):
        crowding_distance(front)

    generation = 0
    while evaluations < config.max_evaluations:
        offspring: list[Individual] = []
        for _ in range(config.population_size):
            p1 = tournament_select(population, rng, config.tournament_size)
            p2 = tournament_select(population, rng, config.tournament_size)
            child = crossover(p1.tree, p2.tree, rng, config.max_length, config.max_depth)
            if rng.random() < config.mutation_rate:
                child = mutate(child, rng, n_variables, config.max_length, config.max_depth)
            offspring.append(_evaluate(child, objective_fn))
            evaluations += 1
        population = _environmental_selection(population + offspring, config.population_size)
        generation += 1
        if on_generation is not None:
            on_generation(generation, population, evaluations)
    return population, evaluations


def pareto_front(population: Sequence[Individual]) -> list[Individual]:
    """Rank 0 of :func:`_ranks`, i.e. the first copy of each nondominated
    vector, sorted by the complexity objective (second component)
    ascending.  Unlike :func:`_selection_sort`, writes no ``rank``."""
    front = [ind for ind, rank in zip(population, _ranks(population)) if rank == 0]
    return sorted(front, key=lambda ind: ind.objectives[1])
