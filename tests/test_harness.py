import csv
import functools
import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mosr.harness import (
    AggregateStats,
    ConfigError,
    ExperimentConfig,
    FrontModel,
    RunResult,
    _front_models,
    _mean_std,
    aggregate_results,
    execute_experiment,
    execute_run,
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


def _training(front):
    return [ind.objectives[0] for ind in front]


class TestSelectBest:
    def test_argmin_accuracy(self):
        front = [_ind(0.1, 3), _ind(0.05, 9), _ind(0.2, 1)]
        assert select_best(front, _training(front)) == 1

    def test_singleton(self):
        front = [_ind(0.5, 1)]
        assert select_best(front, _training(front)) == 0

    def test_tie_breaks_on_complexity(self):
        front = [_ind(0.1, 9), _ind(0.1, 3)]
        assert select_best(front, _training(front)) == 1

    def test_validation_scores_change_the_pick(self):
        front = [_ind(0.1, 3), _ind(0.05, 9), _ind(0.2, 1)]
        assert select_best(front, [0.3, 0.4, 0.2]) == 2
        assert select_best(front, [0.3, 0.2, 0.2]) == 2  # a tie falls to complexity

    def test_empty_front_rejected(self):
        with pytest.raises(ValueError):
            select_best([], [])


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

    def test_a_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes("problem = poly10\nbase_seed = 4\n".encode("utf-8-sig"))
        config = load_config(str(path))
        assert config.problem == "poly10" and config.base_seed == 4

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
            ("base_seed = -3", "base_seed must be >= 0, got -3"),
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
        names = [f.name for f in fields(EngineConfig) if f.name != "seed"]
        assert {"population_size", "max_evaluations", "max_depth", "mutation_rate"} <= set(names)
        for name in names:
            assert getattr(config, name) == getattr(engine, name), name
            assert type(getattr(config, name)) is type(getattr(engine, name)), name
        assert config.engine_config(7) == EngineConfig(seed=7)

    def test_engine_config_copies_every_engine_setting(self):
        config = parse_config(
            "problem = poly10\npopulation_size = 40\nmax_evaluations = 400\nmax_length = 30\n"
            "max_depth = 9\nmutation_rate = 0.5\ntournament_size = 3\n"
        )
        assert config.engine_config(11) == EngineConfig(
            population_size=40, max_evaluations=400, max_length=30, max_depth=9,
            mutation_rate=0.5, tournament_size=3, seed=11,
        )

    def test_every_field_parses_from_its_key(self):
        values = {
            "problem": "friedman1", "variant": "literature", "train_fraction": "0.5",
            "objective2": "complexity", "rules": "figure", "population_size": "40",
            "max_evaluations": "400", "max_length": "30", "max_depth": "9",
            "mutation_rate": "0.5", "tournament_size": "3", "repetitions": "2",
            "base_seed": "5", "jobs": "2", "validation_fraction": "0.25",
            "output_dir": "elsewhere",
        }
        config = parse_config("".join(f"{key} = {value}\n" for key, value in values.items()))
        defaults = ExperimentConfig()
        for key, value in values.items():
            parsed = getattr(config, key)
            assert parsed == type(getattr(defaults, key))(value) != getattr(defaults, key), key
        from_data = parse_config("data = some/file.csv\ntarget = y\n")
        assert (from_data.data_path, from_data.target) == ("some/file.csv", "y")
        keyed = set(values) | {"data_path", "target", "rule_overrides"}
        assert keyed == {f.name for f in fields(ExperimentConfig)}
        for name in ("data_path", "rule_overrides"):
            with pytest.raises(ConfigError, match=f"line 2: unknown key '{name}'"):
                parse_config(f"problem = poly10\n{name} = x\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("repetitions = few", "line 2: bad int value 'few' for 'repetitions'"),
            ("population_size = 1.5", "line 2: bad int value '1.5' for 'population_size'"),
            ("mutation_rate = high", "line 2: bad float value 'high' for 'mutation_rate'"),
        ],
    )
    def test_bad_value_names_its_type(self, line, message):
        with pytest.raises(ConfigError) as err:
            parse_config(f"problem = keijzer5\n{line}\n")
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "problem = poly10\npopulation_size = 50\n\npopulation_size = 80\n",
                "line 4: 'population_size' is already set on line 2",
            ),
            (
                "data = a.csv\ntarget = y\ndata = b.csv  # again\n",
                "line 3: 'data' is already set on line 1",
            ),
            (
                "problem = poly10\nrule.sqrt = power:2\nrule.sin = sum\nrule.sqrt = power:3\n",
                "line 4: 'rule.sqrt' is already set on line 2",
            ),
        ],
    )
    def test_key_set_twice_is_rejected(self, text, message):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == message


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

    def test_a_data_file_name_with_a_comma_reads_back(self, tmp_path):
        from mosr.benchmarks import generate, save_csv

        data_path = str(tmp_path / "a,b.csv")
        save_csv(generate("keijzer5", seed=0), data_path)
        config = ExperimentConfig(
            data_path=data_path,
            target="y",
            train_fraction=0.1,
            population_size=12,
            max_evaluations=60,
            repetitions=1,
        )
        execute_experiment(config, str(tmp_path / "out"))
        with open(tmp_path / "out" / "aggregate.csv", newline="") as handle:
            header, row = csv.reader(handle)
        assert len(row) == len(header) == 10
        assert row[:3] == ["a,b", "tree_length", "1"] and row[-1] == "eq1"


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size and runs every
    task in this process, as a forked worker would see it."""

    sizes: list = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.sizes.append(max_workers)
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestPoolAndCsv:
    def test_pool_is_sized_to_the_runs(self, tmp_path, monkeypatch):
        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(_InlinePool, "sizes", [])
        for jobs, repetitions in [(64, 2), (2, 3), (64, 1), (1, 3)]:
            config = ExperimentConfig(**{**SMALL, "jobs": jobs, "repetitions": repetitions})
            _, results = execute_experiment(config, str(tmp_path / f"{jobs}-{repetitions}"))
            assert len(results) == repetitions
        assert _InlinePool.sizes == [2, 2]  # one run, or one job, needs no pool

    def test_csv_is_read_once_per_experiment(self, tmp_path, monkeypatch):
        import concurrent.futures

        from mosr import benchmarks, harness

        data_path = str(tmp_path / "k5.csv")
        benchmarks.save_csv(benchmarks.generate("keijzer5", seed=0), data_path)
        reads = []
        load_csv = benchmarks.load_csv

        def counted_load_csv(*args):
            reads.append(args)
            return load_csv(*args)

        monkeypatch.setattr(benchmarks, "load_csv", counted_load_csv)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(harness, "_shared_csv", None)
        config = ExperimentConfig(
            data_path=data_path,
            target="y",
            train_fraction=0.1,
            objective2="variables",
            population_size=12,
            max_evaluations=60,
            repetitions=3,
        )
        sequential = execute_experiment(config, str(tmp_path / "seq"))[1]
        assert len(reads) == 1
        config.jobs = 2  # the pool's initializer finds the file read already
        pooled = execute_experiment(config, str(tmp_path / "pool"))[1]
        assert len(reads) == 2  # a later experiment reads the file again
        assert pooled == sequential
        assert harness._shared_csv is None
        # a run on its own reads the file itself, and a spawned worker's
        # initializer reads it once for all the runs it is given
        assert execute_run(config, 0) == sequential[0]
        assert len(reads) == 3
        harness._share_csv(config)
        dataset = harness._shared_csv[1]
        assert not dataset.columns.flags.writeable and not dataset.target.flags.writeable
        assert [execute_run(config, seed) for seed in (0, 1, 2)] == sequential
        assert len(reads) == 4


SPLIT_POPULATION = 100


def _split_csv(tmp_path):
    """keijzer5's formula on 2000 rows."""
    rows = 2000
    rng = np.random.default_rng(17)
    X = rng.uniform(-1.0, 1.0, size=(rows, 3))
    X[:, 1] += 2.0
    y = 30.0 * X[:, 0] * X[:, 2] / ((X[:, 0] - 10.0) * X[:, 1] ** 2)
    path = tmp_path / "k5.csv"
    np.savetxt(path, np.column_stack([X, y]), delimiter=",", header="a,b,c,y", comments="")
    return str(path)


def _split_config(data, **settings):
    return ExperimentConfig(
        **{"data_path": data, "target": "y", "objective2": "complexity",
           "population_size": SPLIT_POPULATION, "max_evaluations": 300, **settings}
    )


def _cores(monkeypatch, n):
    """Pretend this process may run on ``n`` cores (never more than 4)."""
    assert n <= 4
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _counting_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitRuns:
    def test_every_objective_is_the_same_with_the_split_on_and_off(self, tmp_path, monkeypatch):
        from mosr import harness

        config = _split_config(_split_csv(tmp_path))
        run = harness.run
        objectives: list = []
        evaluators = []  # kept alive, so only close() can end their workers

        def recording_run(config, objective_fn, n_variables, on_generation=None):
            evaluators.append(objective_fn)
            # wrapped as the benchmark's tracer wraps it: prepare is copied
            @functools.wraps(objective_fn)
            def recorded(tree):
                values = objective_fn(tree)
                objectives[-1].append(tuple(v.hex() for v in values))
                return values

            return run(config, recorded, n_variables, on_generation)

        monkeypatch.setattr(harness, "run", recording_run)
        forks = _counting_forks(monkeypatch)
        results = []
        for cores in (1, 4):
            _cores(monkeypatch, cores)
            objectives.append([])
            results.append(execute_run(config, 3))
            assert len(objectives[-1]) == results[-1].eval_count == 300  # one call each
            assert (len(forks) > 0) == (cores > 1)
        assert objectives[0] == objectives[1]
        assert results[0] == results[1]
        _no_child_left()

    def test_artifacts_are_the_same_with_the_split_on_and_off(self, tmp_path, monkeypatch):
        data = _split_csv(tmp_path)
        forks = _counting_forks(monkeypatch)
        outputs = []
        for cores, jobs in [(1, 1), (3, 1), (4, 2)]:
            _cores(monkeypatch, cores)
            config = _split_config(data, objective2="variables", repetitions=2, jobs=jobs)
            out = tmp_path / f"{cores}-{jobs}"
            execute_experiment(config, str(out))
            outputs.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out))})
        assert len(outputs[0]) == 6
        assert outputs[0] == outputs[1] == outputs[2]
        assert forks  # counted in this process only: the pool's workers fork their own
        _no_child_left()

    def test_no_child_is_left_by_a_run_that_raises(self, tmp_path, monkeypatch):
        from mosr import harness

        config = _split_config(_split_csv(tmp_path))
        run = harness.run

        def failing_run(config, objective_fn, n_variables, on_generation=None):
            calls = []

            @functools.wraps(objective_fn)
            def failing(tree):
                calls.append(tree)
                if len(calls) == SPLIT_POPULATION + 30:  # in the first generation
                    raise ValueError("objective failed")
                return objective_fn(tree)

            return run(config, failing, n_variables, on_generation)

        monkeypatch.setattr(harness, "run", failing_run)
        forks = _counting_forks(monkeypatch)
        _cores(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="objective failed"):
            execute_run(config, 0)
        assert forks  # the initial population was split
        _no_child_left()


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
        models = _front_models(front, ds.X_train, ds.y_train, ds.X_test, ds.y_test)
        write_front_csv(models, path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "length,objective2,train_nmse,test_nmse,model"
        assert len(lines) == 4
        obj2 = [float(line.split(",")[1]) for line in lines[1:]]
        assert obj2 == sorted(obj2)
        assert {m.sexpr for m in models} == {"x0", "(* x0 x2)", "(div (* x0 x2) (square x1))"}

    def test_singleton_front(self, tmp_path):
        models = [FrontModel(1, 1.0, 0.9, 0.95, "3")]
        path = str(tmp_path / "one.csv")
        write_front_csv(models, path)
        lines = Path(path).read_text().splitlines()
        assert len(lines) == 2
