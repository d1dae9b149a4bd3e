"""The module attributes the benchmark (perfbench) wraps or calls.

``perfbench/tracer.py`` replaces these attributes at the names their callers
use, and ``perfbench/worker.py`` calls them, so a cleanup that removes or
renames one breaks ``perfbench --trace 1`` or its ``check`` job.
"""

import functools
import importlib
import inspect

import pytest

from mosr import harness
from mosr.harness import ExperimentConfig
from mosr.sexpr import parse_sexpr
from mosr.trees import structure_key

USED_BY_BENCHMARK = {
    "harness": (
        "run", "make_matrix_evaluator", "evaluate_matrix", "pearson_r2", "make_measure",
        "pareto_front", "to_sexpr", "write_front_csv", "write_runs_csv", "write_aggregate_csv",
        "execute_run", "load_config",
    ),
    "nsga2": ("crossover", "mutate", "tournament_select", "random_tree"),
    "trees": ("random_tree", "evaluate_matrix", "make_matrix_evaluator"),
    "benchmarks": ("load_csv",),
    "metrics": ("pearson_r2", "fit_linear_scaling", "scaled_nmse"),
    "complexity": ("make_measure",),
    "sexpr": ("parse_sexpr",),
}


@pytest.mark.parametrize("module", sorted(USED_BY_BENCHMARK))
def test_attributes_the_benchmark_uses_resolve(module):
    mod = importlib.import_module(f"mosr.{module}")
    names = USED_BY_BENCHMARK[module]
    missing = [name for name in names if not callable(getattr(mod, name, None))]
    assert missing == []


def test_config_parts_the_benchmark_uses_resolve():
    from mosr.harness import execute_run

    assert list(inspect.signature(execute_run).parameters) == ["config", "seed"]
    config = ExperimentConfig(problem="poly10")
    assert callable(config.rule_table)
    for name in ("data_path", "target", "train_fraction", "objective2"):
        assert hasattr(config, name), name


def test_the_traced_evaluator_keeps_prepare(monkeypatch):
    # the engine receives the evaluator as the tracer wraps it, so the
    # wrapper must carry prepare, or every tree would be a batch of one
    make = harness.make_matrix_evaluator
    events = []

    def traced_make(X, *args, **kwargs):
        evaluator = make(X, *args, **kwargs)
        prepare = evaluator.prepare

        def counted_prepare(trees):
            batch = []
            events.append(("prepare", batch))

            def recorded():  # the trees as they pass through, still drawn lazily
                for tree in trees:
                    batch.append(tree)
                    yield tree

            prepare(recorded())

        evaluator.prepare = counted_prepare

        @functools.wraps(evaluator)
        def traced(tree):
            events.append(("call", tree))
            return evaluator(tree)

        return traced

    monkeypatch.setattr(harness, "make_matrix_evaluator", traced_make)
    config = ExperimentConfig(
        problem="keijzer5", objective2="complexity", population_size=20, max_evaluations=100
    )
    result = harness.execute_run(config, 3)
    batches = [trees for kind, trees in events if kind == "prepare"]
    calls = [tree for kind, tree in events if kind == "call"]
    assert len(batches) == result.eval_count // 20 == 5
    assert len(calls) == result.eval_count  # one call per evaluation
    at = 0
    for batch in batches:  # each batch is prepared, then its trees are called in order
        assert events[at][0] == "prepare"
        assert all(tree is want for (_, tree), want in zip(events[at + 1:], batch))
        at += 1 + len(batch)
    assert at == len(events)


def test_the_traced_measure_keeps_fold(monkeypatch):
    # the tracer wraps make_measure's result with functools.wraps, and the
    # harness hands the evaluator that wrapper's fold, so the wrapper must
    # carry a fold that takes what the evaluator passes it: a structure key
    make = harness.make_measure
    wrapped, keys = [], []

    def traced_make(*args, **kwargs):
        measure = make(*args, **kwargs)

        @functools.wraps(measure)
        def traced(tree):
            return measure(tree)

        wrapped.append(traced)
        return traced

    make_evaluator = harness.make_matrix_evaluator

    def recording_make(X, *args, measure, **kwargs):
        def fold(key):
            keys.append(key)
            return measure(key)

        assert measure is wrapped[-1].fold
        return make_evaluator(X, *args, measure=fold, **kwargs)

    monkeypatch.setattr(harness, "make_measure", traced_make)
    monkeypatch.setattr(harness, "make_matrix_evaluator", recording_make)
    config = ExperimentConfig(
        problem="keijzer5", objective2="complexity", population_size=20, max_evaluations=100
    )
    result = harness.execute_run(config, 3)
    (traced,) = wrapped
    assert callable(traced.fold) and keys
    assert all(isinstance(key, tuple) for key in keys)
    for model in result.front:
        tree = parse_sexpr(model.sexpr)
        assert traced.fold(structure_key(tree)) == traced(tree) == model.objective2
