"""The module attributes the benchmark (perfbench) wraps or calls.

``perfbench/tracer.py`` replaces these attributes at the names their callers
use, and ``perfbench/worker.py`` calls them, so a cleanup that removes or
renames one breaks ``perfbench --trace 1`` or its ``check`` job.
"""

import importlib
import inspect

import pytest

from mosr.harness import ExperimentConfig

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
