import math
import os

import numpy as np
import pytest

from mosr.harness import (
    AggregateStats,
    ConfigError,
    ExperimentConfig,
    FrontModel,
    RunResult,
    _mean_std,
    aggregate_results,
    execute_experiment,
    execute_run,
    export_pareto_csv,
    load_config,
    parse_config,
    select_best,
    write_aggregate_csv,
    write_front_csv,
)
from mosr.nsga2 import EngineConfig, Individual
from mosr.trees import constant, random_tree


def _ind(acc, comp, size=1):
    tree = constant(0.0)
    if size > 1:
        tree = random_tree(np.random.default_rng(size), n_variables=1, max_length=size)
    ind = Individual(tree=tree, objectives=(float(acc), float(comp)))
    return ind


SMALL = dict(
    problem="keijzer5",
    objective2="tree_length",
    population_size=16,
    max_evaluations=160,
    max_length=30,
    repetitions=2,
    base_seed=0,
)


class TestSelectBest:
    def test_argmin_accuracy(self):
        front = [_ind(0.1, 3), _ind(0.05, 9), _ind(0.2, 1)]
        assert select_best(front) is front[1]

    def test_singleton(self):
        front = [_ind(0.5, 1)]
        assert select_best(front) is front[0]

    def test_tie_breaks_on_complexity(self):
        front = [_ind(0.1, 9), _ind(0.1, 3)]
        assert select_best(front) is front[1]

    def test_empty_front_rejected(self):
        with pytest.raises(ValueError):
            select_best([])


class TestConfigParsing:
    def test_minimal_config(self):
        config = parse_config("problem = keijzer5\nobjective2 = variables\n")
        assert config.problem == "keijzer5"
        assert config.objective2 == "variables"
        assert config.rules == "eq1"

    def test_comments_and_blank_lines(self):
        text = """
        # a comment
        problem = poly10   # trailing comment

        objective2 = complexity
        rules = figure
        repetitions = 3
        """
        config = parse_config(text)
        assert config.problem == "poly10"
        assert config.rules == "figure"
        assert config.repetitions == 3

    def test_rule_overrides(self):
        text = (
            "problem = keijzer5\nobjective2 = complexity\n"
            "rule.sqrt = power:2\nrule.constant = 1.5\n"
        )
        config = parse_config(text)
        table = config.rule_table()
        assert table.rule_for("sqrt").parameter == 2.0
        assert table.constant_value == 1.5

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("problem = keijzer5\nwibble = 3\nobjective2 = variables")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("problem = keijzer5\nrepetitions = few\n")

    def test_unknown_objective2(self):
        with pytest.raises(ConfigError, match="objective2"):
            parse_config("problem = keijzer5\nobjective2 = entropy\n")

    def test_unknown_rules(self):
        with pytest.raises(ConfigError, match="rule table"):
            parse_config("problem = keijzer5\nrules = mystery\n")

    def test_problem_xor_data(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config("objective2 = variables\n")
        with pytest.raises(ConfigError, match="target"):
            parse_config("data = some.csv\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("problem keijzer5\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("population_size = 1", "population_size must be >= 2"),
            ("mutation_rate = 1.5", r"mutation_rate must be in \[0, 1\]"),
            ("max_evaluations = 499", "max_evaluations must be >= population_size"),
            ("max_depth = 0", "max_depth must be >= 1"),
            ("train_fraction = 1.5", r"train_fraction must be in \[0, 1\]"),
            ("rule.add = power:2", "rule.* override: rule 'power' takes one child"),
            ("rule.foo = sum", "unknown function symbol 'foo'"),
            ("rule.constant = 0.5", "leaf complexity values must be >= 1"),
            ("rule.constant = nan", "leaf complexity values must be >= 1 and finite, got nan"),
            ("rule.variable = inf", "leaf complexity values must be >= 1 and finite, got inf"),
            ("rule.sqrt = power:-1", "rule 'power' needs a finite exponent >= 0, got -1.0"),
            ("rule.sqrt = power:inf", "rule 'power' needs a finite exponent >= 0, got inf"),
            ("rule.sin = exponential:0.5", "rule 'exponential' needs a finite base >= 1"),
            ("rule.sin = exponential:-2", "rule 'exponential' needs a finite base >= 1"),
            ("rule.exp = exponential:nan", "rule 'exponential' needs a finite base >= 1, got nan"),
        ],
    )
    def test_bad_engine_and_rule_settings_fail_at_parse(self, line, message):
        with pytest.raises(ConfigError, match=message) as err:
            parse_config(f"problem = keijzer5\nobjective2 = complexity\n{line}\n")
        assert "run failed" not in str(err.value)
        assert len(str(err.value).splitlines()) == 1

    def test_engine_defaults_come_from_engine_config(self):
        engine = EngineConfig()
        config = ExperimentConfig()
        for name in (
            "population_size", "max_evaluations", "max_length", "max_depth",
            "mutation_rate", "tournament_size",
        ):
            assert getattr(config, name) == getattr(engine, name), name
        assert config.engine_config(7) == EngineConfig(seed=7)


class TestExecuteRun:
    def test_deterministic(self):
        config = ExperimentConfig(**SMALL)
        a = execute_run(config, 0)
        b = execute_run(config, 0)
        assert a == b

    def test_budget_contract(self):
        config = ExperimentConfig(**SMALL)
        result = execute_run(config, 1)
        assert result.eval_count == 160

    def test_best_belongs_to_front(self):
        config = ExperimentConfig(**SMALL)
        result = execute_run(config, 2)
        assert result.best in result.front

    def test_front_sorted_by_objective2(self):
        config = ExperimentConfig(**SMALL)
        result = execute_run(config, 3)
        obj2 = [m.objective2 for m in result.front]
        assert obj2 == sorted(obj2)

    def test_train_nmse_strictly_decreasing_along_front(self):
        config = ExperimentConfig(**SMALL)
        for seed in range(4):
            result = execute_run(config, seed)
            acc = [m.train_nmse for m in result.front]
            assert all(a > b for a, b in zip(acc, acc[1:]))

    def test_error_carries_run_context(self):
        config = ExperimentConfig(**{**SMALL, "problem": "", "data_path": "/nope.csv", "target": "y"})
        with pytest.raises(RuntimeError, match="seed 5"):
            execute_run(config, 5)

    def test_validation_split_changes_selection_only(self):
        base = ExperimentConfig(**SMALL)
        held = ExperimentConfig(**{**SMALL, "validation_fraction": 0.25})
        r_base = execute_run(base, 0)
        r_held = execute_run(held, 0)
        assert r_base.eval_count == r_held.eval_count
        assert r_held.best in r_held.front


class TestAggregation:
    def test_mean_std_closed_form(self):
        mean, std = _mean_std([0.1, 0.3])
        assert mean == pytest.approx(0.2)
        assert std == pytest.approx(0.14142135623730953)  # sample std, n-1

    def test_single_repetition_std_is_zero(self):
        mean, std = _mean_std([0.4])
        assert (mean, std) == (0.4, 0.0)

    def test_infinite_value_gives_infinite_std_without_warning(self, recwarn):
        assert _mean_std([math.inf, 1.0]) == (math.inf, math.inf)
        mean, std = _mean_std([math.inf, -math.inf, 2.0])
        assert math.isnan(mean) and std == math.inf
        mean, std = _mean_std([math.nan, math.inf])
        assert math.isnan(mean) and math.isnan(std)
        assert _mean_std([math.inf]) == (math.inf, 0.0)
        assert not recwarn.list

    def test_rules_column_records_overrides(self, tmp_path):
        config = parse_config(
            "problem = keijzer5\n"
            "rules = eq1\n"
            "rule.sqrt = power:2.0\n"
            "rule.variable = 3\n"
            "rule.mul = product_of_incremented\n"
            "rule.exp = exponential : 1.25\n"
        )
        label = "eq1;exp=exponential:1.25;mul=product_of_incremented;sqrt=power:2;variable=3"
        assert config.rules_label() == label
        model = FrontModel(3, 3.0, 0.1, 0.2, "x0")
        stats = aggregate_results(config, [RunResult(0, (model,), model, 160)])
        assert stats.rules == label
        path = tmp_path / "aggregate.csv"
        write_aggregate_csv(stats, str(path))
        assert path.read_text().splitlines()[1].split(",")[-1] == label
        assert ExperimentConfig(**SMALL, rules="figure").rules_label() == "figure"

    def test_aggregate_over_results(self):
        config = ExperimentConfig(**SMALL)
        model_a = FrontModel(3, 3.0, 0.1, 0.2, "x0")
        model_b = FrontModel(5, 5.0, 0.3, 0.4, "x1")
        results = [
            RunResult(seed=0, front=(model_a,), best=model_a, eval_count=160),
            RunResult(seed=1, front=(model_b,), best=model_b, eval_count=160),
        ]
        stats = aggregate_results(config, results)
        assert stats.rules == "eq1"
        assert aggregate_results(ExperimentConfig(**SMALL, rules="figure"), results).rules == "figure"
        assert stats.repetitions == 2
        assert stats.train_nmse_mean == pytest.approx(0.2)
        assert stats.train_nmse_std == pytest.approx(math.sqrt(0.02))
        assert stats.length_mean == pytest.approx(4.0)


class TestExecuteExperiment:
    def test_artifacts_written(self, tmp_path):
        config = ExperimentConfig(**SMALL)
        stats, results = execute_experiment(config, str(tmp_path))
        assert len(results) == 2
        for seed in (0, 1):
            assert (tmp_path / f"front_{seed}.csv").exists()
            assert (tmp_path / f"best_{seed}.sexpr").exists()
        assert (tmp_path / "runs.csv").exists()
        agg = (tmp_path / "aggregate.csv").read_text().splitlines()
        assert len(agg) == 2  # header + exactly one configuration row
        assert agg[1].startswith("keijzer5,tree_length,2,")
        assert agg[0].split(",") == [
            "problem", "objective2", "repetitions", "train_nmse_mean", "train_nmse_std",
            "test_nmse_mean", "test_nmse_std", "length_mean", "length_std", "rules",
        ]
        assert agg[1].split(",")[-1] == "eq1"

    def test_reproducible_byte_identical(self, tmp_path):
        config = ExperimentConfig(**SMALL)
        execute_experiment(config, str(tmp_path / "a"))
        execute_experiment(config, str(tmp_path / "b"))
        for name in ("aggregate.csv", "runs.csv", "front_0.csv", "best_1.sexpr"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_parallel_matches_sequential(self, tmp_path):
        sequential = ExperimentConfig(**SMALL)
        parallel = ExperimentConfig(**{**SMALL, "jobs": 2})
        execute_experiment(sequential, str(tmp_path / "seq"))
        execute_experiment(parallel, str(tmp_path / "par"))
        assert (tmp_path / "seq" / "aggregate.csv").read_bytes() == (
            tmp_path / "par" / "aggregate.csv"
        ).read_bytes()

    def test_aggregate_matches_recomputation_from_runs_csv(self, tmp_path):
        config = ExperimentConfig(**{**SMALL, "repetitions": 3})
        stats, _ = execute_experiment(config, str(tmp_path))
        lines = (tmp_path / "runs.csv").read_text().splitlines()[1:]
        train = [float(line.split(",")[1]) for line in lines]
        mean = float(np.mean(train))
        std = float(np.std(train, ddof=1))
        assert stats.train_nmse_mean == pytest.approx(mean, abs=1e-15)
        assert stats.train_nmse_std == pytest.approx(std, abs=1e-15)

    def test_csv_dataset_end_to_end(self, tmp_path):
        from mosr.benchmarks import generate, save_csv

        data_path = str(tmp_path / "k5.csv")
        save_csv(generate("keijzer5", seed=0), data_path)
        config = ExperimentConfig(
            data_path=data_path,
            target="y",
            train_fraction=0.1,
            objective2="variables",
            population_size=12,
            max_evaluations=60,
            repetitions=1,
        )
        stats, results = execute_experiment(config, str(tmp_path / "out"))
        assert stats.label == "k5"
        assert results[0].eval_count == 60


class TestFrontExport:
    def test_export_writes_sorted_rows(self, tmp_path):
        from mosr.benchmarks import generate
        from mosr.metrics import pearson_r2
        from mosr.trees import evaluate_matrix
        from mosr.sexpr import parse_sexpr

        ds = generate("keijzer5", seed=0)
        trees = [parse_sexpr(s) for s in ("x0", "(* x0 x2)", "(div (* x0 x2) (square x1))")]
        front = []
        for t in trees:
            acc = 1.0 - pearson_r2(evaluate_matrix(t, ds.X_train), ds.y_train)
            front.append(Individual(tree=t, objectives=(acc, float(t.size))))
        path = str(tmp_path / "front.csv")
        models = export_pareto_csv(front, ds, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "length,objective2,train_nmse,test_nmse,model"
        assert len(lines) == 4
        obj2 = [float(line.split(",")[1]) for line in lines[1:]]
        assert obj2 == sorted(obj2)
        assert {m.sexpr for m in models} == {"x0", "(* x0 x2)", "(div (* x0 x2) (square x1))"}

    def test_singleton_front(self, tmp_path):
        models = [FrontModel(1, 1.0, 0.9, 0.95, "3")]
        path = str(tmp_path / "one.csv")
        write_front_csv(models, path)
        lines = open(path).read().splitlines()
        assert len(lines) == 2
