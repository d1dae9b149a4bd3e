"""Acceptance suite: one test per criterion, one PASS line printed each.

Criteria 5 and 6 run real evolution at desk scale and dominate the suite's
runtime (several minutes); everything else is fast.  They and criterion 7,
which checks criterion 5's fronts, carry the ``slow`` marker.  Criterion 6
is informative only: it reports the directional comparison without gating.
"""

import math
import os
import time

import numpy as np
import pytest

from mosr.benchmarks import generate
from mosr.complexity import (
    default_rule_table,
    figure_consistent_rule_table,
    make_measure,
)
from mosr.harness import ExperimentConfig, execute_experiment
from mosr.metrics import fit_linear_scaling, nmse, pearson_r2, scaled_nmse
from mosr.nsga2 import (
    EngineConfig,
    Individual,
    dominates,
    fast_nondominated_sort,
    run,
)
from mosr.sexpr import parse_sexpr
from mosr.trees import crossover, make_matrix_evaluator, mutate, random_tree

F1 = "(exp (sin (sqrt x0)))"
F2 = "(+ (* 7 (square x0)) (* 3 x0) 5)"

JOBS = min(os.cpu_count() or 1, 4)


def _report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n}: {text}: PASS")


def test_criterion_1_complexity_fixtures():
    f1 = parse_sexpr(F1)
    f2 = parse_sexpr(F2)
    tree_length = make_measure("tree_length")
    assert tree_length(f1) == 4
    assert tree_length(f2) == 9
    figure = make_measure("complexity", figure_consistent_rule_table())
    assert figure(f1) == 65536.0
    assert figure(f2) == 17.0
    literal = make_measure("complexity", default_rule_table())
    assert literal(f1) == 2.0**256
    assert literal(f2) == 9.0
    _report(1, "complexity fixtures (lengths 4/9; 65536/17; 2^256/9)")


def test_criterion_2_sorting_oracle():
    def brute_force_fronts(population):
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

    rng = np.random.default_rng(1234)
    started = time.time()
    for case in range(200):
        n = int(rng.integers(1, 65))
        m = int(rng.integers(2, 4))
        if case % 2:
            # coarse integer grid: guaranteed duplicates
            vectors = rng.integers(0, 5, size=(n, m)).astype(float)
        else:
            vectors = np.round(rng.random(size=(n, m)), 2)
        pop = [Individual(tree=None, objectives=tuple(v)) for v in vectors]
        got = fast_nondominated_sort(pop)
        expected = brute_force_fronts(pop)
        assert [set(map(id, f)) for f in got] == [set(map(id, f)) for f in expected]
    elapsed = time.time() - started
    assert elapsed < 5.0
    _report(2, f"200 random populations match the brute-force oracle ({elapsed:.1f}s)")


def test_criterion_3_metric_identities():
    rng = np.random.default_rng(77)
    # mean predictor normalizes to exactly 1
    for _ in range(20):
        actual = rng.normal(size=int(rng.integers(3, 100)))
        pred = np.full(actual.size, actual.mean())
        assert abs(nmse(pred, actual) - 1.0) <= 1e-12
    # scaled training NMSE = 1 - R^2 on 100 random vector pairs
    for _ in range(100):
        n = int(rng.integers(4, 250))
        pred = rng.normal(scale=rng.uniform(0.1, 20), size=n)
        actual = rng.normal(scale=rng.uniform(0.1, 20), size=n) + rng.uniform(-1, 1) * pred
        slope, intercept = fit_linear_scaling(pred, actual)
        assert abs(
            scaled_nmse(pred, actual, slope, intercept) - (1.0 - pearson_r2(pred, actual))
        ) <= 1e-9
    # affine invariance of the accuracy objective
    for _ in range(100):
        pred = rng.normal(size=50)
        actual = rng.normal(size=50)
        a = rng.uniform(0.5, 3.0) * (1.0 if rng.random() < 0.5 else -1.0)
        b = rng.uniform(-5.0, 5.0)
        assert abs(pearson_r2(a * pred + b, actual) - pearson_r2(pred, actual)) <= 1e-12
    _report(3, "NMSE/R^2 identities at stated tolerances")


def test_criterion_4_cap_and_budget():
    # 10,000 random crossover/mutation applications never break the cap
    rng = np.random.default_rng(4321)
    pool = [random_tree(rng, n_variables=3, max_length=100) for _ in range(60)]
    for step in range(10_000):
        i, j = rng.integers(len(pool), size=2)
        child = crossover(pool[i], pool[j], rng, max_length=100)
        if rng.random() < 0.5:
            child = mutate(child, rng, n_variables=3, max_length=100, max_depth=17)
        assert child.size <= 100
        pool[int(rng.integers(len(pool)))] = child

    # reduced-budget exactness: pop 500 / budget 10,000 -> exactly 10,000
    data = generate("keijzer5", seed=0)
    evaluate_fit = make_matrix_evaluator(data.X_train[:50])
    y = data.y_train[:50]
    calls = {"n": 0}

    def objective(tree):
        calls["n"] += 1
        return 1.0 - pearson_r2(evaluate_fit(tree), y), float(tree.size)

    generations = []
    config = EngineConfig(population_size=500, max_evaluations=10_000, seed=0)
    _, evaluations = run(
        config,
        objective,
        n_variables=data.n_variables,
        on_generation=lambda gen, pop, evals: generations.append(gen),
    )
    assert evaluations == 10_000
    assert calls["n"] == 10_000
    # 500 initial + 19 * 500 offspring; scales to 500 + 399 * 500 = 200,000
    assert generations[-1] == 19
    _report(4, "length cap over 10,000 variation ops; exact 10,000-evaluation budget")


@pytest.fixture(scope="module")
def smoke_experiments(tmp_path_factory):
    """Criterion 5 runs, shared with criterion 7's front checks."""
    root = tmp_path_factory.mktemp("smoke")
    outcomes = {}
    for objective2 in ("variables", "complexity"):
        config = ExperimentConfig(
            problem="keijzer5",
            objective2=objective2,
            population_size=500,
            max_evaluations=50_000,
            repetitions=10,
            base_seed=0,
            jobs=JOBS,
        )
        out_dir = str(root / objective2)
        stats, results = execute_experiment(config, out_dir)
        outcomes[objective2] = (stats, results, out_dir)
    return outcomes


@pytest.mark.slow
def test_criterion_5_smoke_experiment(smoke_experiments):
    for objective2, (stats, results, _) in smoke_experiments.items():
        values = sorted(r.best.train_nmse for r in results)
        median = float(np.median(values))
        print(
            f"\n  keijzer5/{objective2}: median train NMSE {median:.5f} "
            f"(mean {stats.train_nmse_mean:.5f} +/- {stats.train_nmse_std:.5f}, "
            f"10 seeds, 50k evaluations)"
        )
        assert median <= 0.05, f"{objective2}: median {median} above 0.05"
    _report(5, "keijzer5 smoke: median best train NMSE <= 0.05 for both objectives")


@pytest.mark.slow
def test_criterion_7_pareto_export_property(smoke_experiments):
    checked = 0
    for objective2, (_, results, out_dir) in smoke_experiments.items():
        for result in results:
            path = os.path.join(out_dir, f"front_{result.seed}.csv")
            rows = open(path).read().splitlines()[1:]
            obj2 = [float(r.split(",")[1]) for r in rows]
            train = [float(r.split(",")[2]) for r in rows]
            assert obj2 == sorted(obj2), path
            for (c_a, a_a), (c_b, a_b) in zip(zip(obj2, train), zip(obj2[1:], train[1:])):
                assert c_b > c_a, f"{path}: duplicate complexity on exported front"
                assert a_b < a_a, f"{path}: accuracy not strictly decreasing"
            checked += 1
    assert checked == 20
    _report(7, f"accuracy strictly decreasing along all {checked} exported fronts")


def test_criterion_8_reproducibility(tmp_path):
    config_text = (
        "problem = keijzer5\n"
        "objective2 = complexity\n"
        "rules = figure\n"
        "population_size = 40\n"
        "max_evaluations = 400\n"
        "max_length = 40\n"
        "repetitions = 3\n"
        "base_seed = 11\n"
        f"jobs = {JOBS}\n"
    )
    from mosr.harness import parse_config

    runs = []
    for tag in ("first", "second"):
        config = parse_config(config_text)
        out = str(tmp_path / tag)
        execute_experiment(config, out)
        runs.append(out)
    first, second = runs
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    for name in names:
        a = open(os.path.join(first, name), "rb").read()
        b = open(os.path.join(second, name), "rb").read()
        assert a == b, f"{name} differs between identical executions"
    _report(8, f"byte-identical artifacts across re-executions ({len(names)} files)")


@pytest.mark.slow
def test_criterion_6_directional_check_informative(tmp_path):
    """Non-gating: report poly10 full-budget means for two measures."""
    reference = {"complexity": "0.202 +/- 0.079", "tree_length": "0.356 +/- 0.165"}
    means = {}
    print("\n  poly10, 200k evaluations, 10 seeds (reference: 50-rep full-scale runs)")
    for objective2 in ("complexity", "tree_length"):
        config = ExperimentConfig(
            problem="poly10",
            objective2=objective2,
            population_size=500,
            max_evaluations=200_000,
            repetitions=10,
            base_seed=0,
            jobs=JOBS,
        )
        stats, _ = execute_experiment(config, output_dir=str(tmp_path / objective2))
        means[objective2] = stats.train_nmse_mean
        print(
            f"  {objective2:12s}: mean train NMSE {stats.train_nmse_mean:.3f} "
            f"+/- {stats.train_nmse_std:.3f}   (reference {reference[objective2]})"
        )
    direction = means["complexity"] < means["tree_length"]
    print(f"  direction (complexity < tree_length): {direction}")
    _report(6, f"directional check reported (non-gating; direction holds: {direction})")
