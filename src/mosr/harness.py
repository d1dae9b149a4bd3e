"""Experiment driver: configured, seeded, repeatable regression runs.

One experiment is one configuration (problem, second objective, engine
settings) executed over ``repetitions`` consecutive seeds.  Each run builds
its dataset from the run seed (a CSV is read once for all the runs of an
experiment), evolves a population, extracts the Pareto front, picks the
best model by training accuracy and scores it; artifacts (front CSV,
best-model s-expression, per-run table, aggregate row) land in the output
directory.  Every float written to disk uses ``repr``, so two
executions of the same config are byte-identical.

Config files are line-oriented ``key = value`` with ``#`` comments, e.g.::

    problem = keijzer5
    objective2 = complexity
    rules = figure          # or eq1 (default), plus per-symbol rule.* keys
    population_size = 500
    max_evaluations = 50000
    repetitions = 10
    base_seed = 0
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Sequence

import numpy as np

from . import benchmarks
from .complexity import (
    MEASURES,
    RULE_TABLES,
    ComplexityRuleTable,
    Rule,
    make_measure,
    rule_from_string,
)
from .data import Dataset
from .metrics import fit_linear_scaling, make_pearson_r2, pearson_r2, scaled_nmse
from .nsga2 import EngineConfig, Individual, pareto_front, run
from .sexpr import format_constant, to_sexpr
from .trees import evaluate_matrix, make_matrix_evaluator


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, bad value, missing data)."""


_ENGINE = EngineConfig()  # the engine settings' defaults


@dataclass
class ExperimentConfig:
    problem: str = ""
    variant: str = ""
    data_path: str = ""
    target: str = ""
    train_fraction: float = 0.75
    objective2: str = "tree_length"
    rules: str = "eq1"
    rule_overrides: dict[str, str] = field(default_factory=dict)
    population_size: int = _ENGINE.population_size
    max_evaluations: int = _ENGINE.max_evaluations
    max_length: int = _ENGINE.max_length
    max_depth: int = _ENGINE.max_depth
    mutation_rate: float = _ENGINE.mutation_rate
    tournament_size: int = _ENGINE.tournament_size
    repetitions: int = 1
    base_seed: int = 0
    jobs: int = 1
    validation_fraction: float = 0.0
    output_dir: str = "results"

    def validate(self) -> None:
        if bool(self.problem) == bool(self.data_path):
            raise ConfigError("configure exactly one of 'problem' or 'data'")
        if self.data_path and not self.target:
            raise ConfigError("'data' requires a 'target' column name")
        if self.objective2 not in MEASURES:
            raise ConfigError(
                f"unknown objective2 '{self.objective2}' (choose from {', '.join(MEASURES)})"
            )
        if self.rules not in RULE_TABLES:
            raise ConfigError(
                f"unknown rule table '{self.rules}' (choose from {', '.join(RULE_TABLES)})"
            )
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if not 0.0 <= self.train_fraction <= 1.0:
            raise ConfigError("train_fraction must be in [0, 1]")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must be in [0, 1)")
        if self.problem:
            benchmarks.get_problem(self.problem, self.variant)
        self.engine_config(self.base_seed)
        self.rule_table()

    def engine_config(self, seed: int) -> EngineConfig:
        """The engine settings of the run with ``seed``."""
        names = [f.name for f in fields(EngineConfig) if f.name != "seed"]
        try:
            return EngineConfig(seed=seed, **{name: getattr(self, name) for name in names})
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def rule_table(self) -> ComplexityRuleTable:
        table = RULE_TABLES[self.rules]()
        if not self.rule_overrides:
            return table
        rules: dict[str, Rule] = {}
        constant_value = variable_value = None
        for symbol, text in self.rule_overrides.items():
            try:
                if symbol == "constant":
                    constant_value = float(text)
                elif symbol == "variable":
                    variable_value = float(text)
                else:
                    rules[symbol] = rule_from_string(text)
            except ValueError as exc:
                raise ConfigError(f"bad rule.{symbol} = {text}: {exc}") from None
        try:
            return table.with_overrides(rules, constant_value, variable_value)
        except ValueError as exc:
            raise ConfigError(f"bad rule.* override: {exc}") from None

    def rules_label(self) -> str:
        """The rule table's name, then each ``rule.*`` override sorted by
        symbol, e.g. ``eq1;sqrt=power:2``; assumes a validated config."""
        parts = [self.rules]
        for symbol in sorted(self.rule_overrides):
            text = self.rule_overrides[symbol]
            if symbol in ("constant", "variable"):
                parts.append(f"{symbol}={format_constant(float(text))}")
            else:
                parts.append(f"{symbol}={rule_from_string(text).spec()}")
        return ";".join(parts)

    def label(self) -> str:
        if self.problem:
            return self.problem
        return os.path.splitext(os.path.basename(self.data_path))[0]


# config-file key -> (field, converter): each field but rule_overrides
# (the rule.* keys), under its own name except data_path, read as the type
# of its default
_CONFIG_KEYS = {
    "data" if f.name == "data_path" else f.name: (f.name, type(f.default))
    for f in fields(ExperimentConfig)
    if f.name != "rule_overrides"
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the ``key = value`` config format (see module docstring)."""
    config = ExperimentConfig()
    overrides: dict[str, str] = {}
    key_lines: dict[str, int] = {}  # the line that set each key
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
        if key in key_lines:
            raise ConfigError(f"line {line_no}: '{key}' is already set on line {key_lines[key]}")
        key_lines[key] = line_no
        if key.startswith("rule."):
            overrides[key[len("rule."):]] = value
            continue
        entry = _CONFIG_KEYS.get(key)
        if entry is None:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        attr, converter = entry
        try:
            setattr(config, attr, converter(value))
        except ValueError:
            raise ConfigError(
                f"line {line_no}: bad {converter.__name__} value {value!r} for '{key}'"
            ) from None
    config.rule_overrides = overrides
    config.validate()
    return config


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8-sig") as handle:  # a leading byte order mark is dropped
        return parse_config(handle.read())


@dataclass(frozen=True)
class FrontModel:
    length: int
    objective2: float
    train_nmse: float
    test_nmse: float
    sexpr: str


@dataclass(frozen=True)
class RunResult:
    seed: int
    front: tuple[FrontModel, ...]
    best: FrontModel
    eval_count: int


@dataclass(frozen=True)
class AggregateStats:
    label: str
    objective2: str
    repetitions: int
    train_nmse_mean: float
    train_nmse_std: float
    test_nmse_mean: float
    test_nmse_std: float
    length_mean: float
    length_std: float
    rules: str


def select_best(front: Sequence[Individual], scores: Sequence[float]) -> int:
    """Index of the best model of ``front``: the lowest of ``scores`` (each
    member's 1 - R^2 on the rows models are chosen on); ties fall to the
    smaller complexity objective, then to the smaller tree."""
    if not front:
        raise ValueError("empty front")
    return min(
        range(len(front)), key=lambda i: (scores[i], front[i].objectives[1], front[i].tree.size)
    )


# The CSV dataset of the experiment being executed, with the settings it
# was read with: execute_experiment reads the file once for all its runs,
# in this process and in pool workers that inherit it through fork.
_shared_csv: tuple[tuple[str, str, float], Dataset] | None = None


def _csv_settings(config: ExperimentConfig) -> tuple[str, str, float]:
    return config.data_path, config.target, config.train_fraction


def _share_csv(config: ExperimentConfig) -> None:
    """Read ``config``'s CSV for the runs of this process, unless it holds
    it already (a forked pool worker inherits its parent's)."""
    global _shared_csv
    if _shared_csv is not None and _shared_csv[0] == _csv_settings(config):
        return
    dataset = benchmarks.load_csv(*_csv_settings(config))
    for array in (dataset.columns, dataset.target, dataset.train_rows, dataset.test_rows):
        array.flags.writeable = False  # one copy serves every run
    _shared_csv = (_csv_settings(config), dataset)


def _build_dataset(config: ExperimentConfig, seed: int) -> Dataset:
    if config.problem:
        spec = benchmarks.get_problem(config.problem, config.variant)
        return benchmarks.generate(spec, seed)
    if _shared_csv is not None and _shared_csv[0] == _csv_settings(config):
        return _shared_csv[1]
    return benchmarks.load_csv(*_csv_settings(config))


def _front_models(
    front: Sequence[Individual],
    X_fit: np.ndarray,
    y_fit: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
) -> list[FrontModel]:
    """Score each front member on the fit and test partitions.

    Train NMSE is the training-fit scaled NMSE, computed as 1 - R^2 (the
    OLS identity), which keeps the exported column exactly equal to the
    accuracy objective the front was sorted under.  Test NMSE applies the
    training-fit slope/intercept to the test rows; it is NaN when there are
    no test rows, or their target's variance is zero or overflows.
    """
    with np.errstate(over="ignore"):
        test_scorable = bool(y_test.size) and 0.0 < float(np.var(y_test)) < math.inf
    models = []
    for ind in front:
        pred_fit = evaluate_matrix(ind.tree, X_fit)
        train_nmse = 1.0 - pearson_r2(pred_fit, y_fit)
        slope, intercept = fit_linear_scaling(pred_fit, y_fit)
        if test_scorable:
            pred_test = evaluate_matrix(ind.tree, X_test)
            test_nmse = scaled_nmse(pred_test, y_test, slope, intercept)
        else:
            test_nmse = float("nan")
        models.append(
            FrontModel(
                length=ind.tree.size,
                objective2=ind.objectives[1],
                train_nmse=train_nmse,
                test_nmse=test_nmse,
                sexpr=to_sexpr(ind.tree),
            )
        )
    return models


def write_front_csv(models: Sequence[FrontModel], path: str) -> None:
    rows = [
        [m.length, m.objective2, m.train_nmse, m.test_nmse, m.sexpr]
        for m in sorted(models, key=lambda m: m.objective2)
    ]
    _write_csv(path, "length,objective2,train_nmse,test_nmse,model".split(","), rows)


def _split_validation(
    train_rows: np.ndarray, validation_fraction: float
) -> tuple[np.ndarray, np.ndarray]:
    if validation_fraction <= 0.0:
        return train_rows, np.array([], dtype=int)
    n_val = int(validation_fraction * train_rows.size + 0.5)
    n_val = min(max(n_val, 1), train_rows.size - 1)
    return train_rows[: train_rows.size - n_val], train_rows[train_rows.size - n_val:]


def _scoring_shares(config: ExperimentConfig) -> int:
    """Processes a run may score a batch of trees on: the cores this
    process may run on, over the runs ``config`` executes at once."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, len(os.sched_getaffinity(0)) // min(config.jobs, config.repetitions))


def execute_run(config: ExperimentConfig, seed: int) -> RunResult:
    """One seeded run: dataset, evolution, front extraction, best-model
    scoring.  Errors are re-raised with the run context attached."""
    try:
        config.validate()
        dataset = _build_dataset(config, seed)
        table = config.rule_table()
        measure = make_measure(config.objective2, table)
        fit_rows, val_rows = _split_validation(dataset.train_rows, config.validation_fraction)
        y_fit = dataset.target[fit_rows]
        if y_fit.size < 2:  # np.var of fewer rows warns or reads 0 for any target
            raise ConfigError(f"a run needs at least 2 training rows to fit on, got {y_fit.size}")
        with np.errstate(over="ignore"):  # a variance that overflows is inf, not 0
            fit_variance = float(np.var(y_fit))
        if fit_variance == 0.0:
            raise ConfigError("training target has zero variance")
        # the evaluator keeps its own copy of each column, so the fit rows
        # are gathered again for the front rather than held through the run
        r2 = make_pearson_r2(y_fit)
        objective = make_matrix_evaluator(
            dataset.columns[fit_rows],
            score=lambda values: 1.0 - r2(values),
            measure=measure.fold,
            shares=_scoring_shares(config),
        )
        try:
            population, eval_count = run(
                config.engine_config(seed), objective, dataset.n_variables
            )
        finally:
            objective.close()  # end its scoring workers
        front = pareto_front(population)
        models = _front_models(
            front, dataset.columns[fit_rows], y_fit, dataset.X_test, dataset.y_test
        )
        if val_rows.size:
            X_val = dataset.columns[val_rows]
            y_val = dataset.target[val_rows]
            scores = [
                1.0 - pearson_r2(evaluate_matrix(ind.tree, X_val), y_val) for ind in front
            ]
        else:
            scores = [ind.objectives[0] for ind in front]
        return RunResult(
            seed=seed,
            front=tuple(models),
            best=models[select_best(front, scores)],
            eval_count=eval_count,
        )
    except Exception as exc:
        raise RuntimeError(f"run failed ({config.label()}, seed {seed}): {exc}") from exc


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample std.  One value has std 0; an infinite value makes
    the std inf, unless a NaN makes it NaN."""
    arr = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore"):  # inf + -inf is a NaN mean, not an error
        mean = float(arr.mean())
    if arr.size < 2:
        std = 0.0
    elif np.isfinite(arr).all():
        std = float(arr.std(ddof=1))
    else:  # numpy would subtract inf from inf and warn
        std = math.nan if np.isnan(arr).any() else math.inf
    return mean, std


def aggregate_results(config: ExperimentConfig, results: Sequence[RunResult]) -> AggregateStats:
    train_mean, train_std = _mean_std([r.best.train_nmse for r in results])
    test_mean, test_std = _mean_std([r.best.test_nmse for r in results])
    length_mean, length_std = _mean_std([float(r.best.length) for r in results])
    return AggregateStats(
        label=config.label(),
        objective2=config.objective2,
        repetitions=len(results),
        train_nmse_mean=train_mean,
        train_nmse_std=train_std,
        test_nmse_mean=test_mean,
        test_nmse_std=test_std,
        length_mean=length_mean,
        length_std=length_std,
        rules=config.rules_label(),
    )


def _write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """``header`` and ``rows`` as CSV, a field quoted where it holds a comma
    (a float is written as its ``repr``), through :func:`_write_text`'s
    atomic replace."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(path, text.getvalue())


def write_runs_csv(results: Sequence[RunResult], path: str) -> None:
    rows = [
        [r.seed, r.best.train_nmse, r.best.test_nmse, r.best.length, r.eval_count, r.best.sexpr]
        for r in results
    ]
    _write_csv(path, "seed,train_nmse,test_nmse,length,evaluations,model".split(","), rows)


def write_aggregate_csv(stats: AggregateStats, path: str) -> None:
    # a column per field, in field order; the label is the problem's name
    names = [f.name for f in fields(AggregateStats)]
    header = ["problem" if name == "label" else name for name in names]
    _write_csv(path, header, [[getattr(stats, name) for name in names]])


def execute_experiment(
    config: ExperimentConfig, output_dir: str | None = None
) -> tuple[AggregateStats, list[RunResult]]:
    """Run all repetitions (in up to ``jobs`` processes), write artifacts.

    Files written under the output directory: ``front_<seed>.csv`` and
    ``best_<seed>.sexpr`` per run, ``runs.csv`` with one row per run and
    ``aggregate.csv`` with the single configuration row.
    """
    global _shared_csv
    config.validate()
    try:
        if config.data_path:
            _share_csv(config)  # a bad file fails before the output directory exists
        out = output_dir if output_dir is not None else config.output_dir
        os.makedirs(out, exist_ok=True)
        seeds = range(config.base_seed, config.base_seed + config.repetitions)
        jobs = min(config.jobs, config.repetitions)
        if jobs > 1:
            # imported here: loading it costs every process start, pool or not
            from concurrent.futures import ProcessPoolExecutor

            # a fork-started pool starts all its workers at the first submit,
            # so it is sized to the runs; a spawned worker reads the CSV once
            share = _share_csv if config.data_path else None
            with ProcessPoolExecutor(
                max_workers=jobs, initializer=share, initargs=(config,)
            ) as pool:
                results = list(pool.map(partial(execute_run, config), seeds))
        else:
            results = [execute_run(config, seed) for seed in seeds]
    finally:
        _shared_csv = None  # a later experiment reads the file again
    for result in results:
        write_front_csv(result.front, os.path.join(out, f"front_{result.seed}.csv"))
        _write_text(os.path.join(out, f"best_{result.seed}.sexpr"), result.best.sexpr + "\n")
    write_runs_csv(results, os.path.join(out, "runs.csv"))
    stats = aggregate_results(config, results)
    write_aggregate_csv(stats, os.path.join(out, "aggregate.csv"))
    return stats, results
