"""NSGA-II core: dominance, fast nondominated sorting, crowding distance,
crowded tournaments and the elitist generational loop.

All objectives are minimized.  The loop is generational: each step builds
``population_size`` offspring through binary crowded tournaments, subtree
crossover (always) and mutation (with ``mutation_rate``), evaluates each
offspring once, merges parents and offspring and keeps the best
``population_size`` by nondomination rank, then crowding.  Every individual
ever created is evaluated exactly once; the run stops at the end of the
generation in which the evaluation budget is reached, so the final count is
in [max_evaluations, max_evaluations + population_size).

Everything is deterministic for a fixed seed; the engine owns a single
numpy Generator and never touches global randomness.
"""

from __future__ import annotations

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


def _selection_sort(population: Sequence[Individual]) -> list[list[Individual]]:
    """Engine-internal ranking: strict dominance plus duplicate demotion.

    Among individuals with exactly equal objective vectors, each one is
    treated as dominated by its earlier twins, so exact clones form a chain
    of one per front.  Without this, individuals carrying the minimal
    complexity objective (e.g. bare constants, which are never strictly
    dominated) clone themselves until they flood the population and
    selection degenerates into coin flips.  Only selection uses this
    ranking; reported fronts come from the strict sort above.

    Ranks equal peeling the domination relation "strictly dominates, or is
    an earlier twin of": the k-th copy of vector v lands k fronts behind
    the first copy, whose front is max over dominating vectors w of
    (front of first copy of w + copies of w).  Computing that closed form
    on the deduplicated vectors avoids peeling one front per clone.
    """
    n = len(population)
    if n == 0:
        return []
    objs = _objective_matrix(population)
    unique, inverse, counts = np.unique(
        objs, axis=0, return_inverse=True, return_counts=True
    )
    inverse = inverse.ravel()
    # position of each individual among its twins, in population order
    order = np.argsort(inverse, kind="stable")
    starts = np.concatenate([[0], np.cumsum(counts[:-1])])
    twin_pos = np.empty(n, dtype=int)
    twin_pos[order] = np.arange(n) - np.repeat(starts, counts)

    u = unique.shape[0]
    le = (unique[:, None, :] <= unique[None, :, :]).all(axis=2)
    lt = (unique[:, None, :] < unique[None, :, :]).any(axis=2)
    dom = le & lt  # dom[w, v]: vector w strictly dominates vector v
    base = np.zeros(u, dtype=int)
    last_plus = np.zeros(u, dtype=int)
    # lexicographic order (np.unique row order) is a linear extension of
    # dominance, so every dominator of v is processed before v
    for v in range(u):
        dominators = dom[:, v]
        if dominators.any():
            base[v] = int(last_plus[dominators].max())
        last_plus[v] = base[v] + int(counts[v])

    ranks = base[inverse] + twin_pos
    fronts: list[list[Individual]] = [[] for _ in range(int(ranks.max()) + 1)]
    for i, rank in enumerate(ranks):
        population[i].rank = int(rank)
        fronts[rank].append(population[i])
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
    """Front 0, deduplicated on identical objective vectors and sorted by
    the complexity objective (second component) ascending."""
    if not population:
        return []
    first_front = fast_nondominated_sort(list(population))[0]
    seen: set[Objectives] = set()
    unique: list[Individual] = []
    for ind in first_front:
        if ind.objectives not in seen:
            seen.add(ind.objectives)
            unique.append(ind)
    unique.sort(key=lambda ind: ind.objectives[1])
    return unique
