"""Multi-objective symbolic regression: NSGA-II over expression trees with
pluggable complexity objectives, benchmark generators and an experiment
harness."""

from .complexity import (
    ComplexityRuleTable,
    Rule,
    default_rule_table,
    figure_consistent_rule_table,
    make_measure,
    recursive_complexity,
)
from .data import Dataset
from .harness import (
    AggregateStats,
    ConfigError,
    ExperimentConfig,
    FrontModel,
    RunResult,
    execute_experiment,
    execute_run,
    export_pareto_csv,
    load_config,
    parse_config,
    select_best,
)
from .metrics import (
    AccuracyReport,
    accuracy_report,
    fit_linear_scaling,
    nmse,
    pearson_r2,
    scaled_nmse,
)
from .nsga2 import (
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
from .sexpr import ParseError, parse_sexpr, to_sexpr
from .trees import (
    Node,
    StructuralError,
    constant,
    crossover,
    evaluate_matrix,
    function,
    make_matrix_evaluator,
    mutate,
    random_tree,
    variable,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "AggregateStats",
    "ComplexityRuleTable",
    "ConfigError",
    "Dataset",
    "EngineConfig",
    "ExperimentConfig",
    "FrontModel",
    "Individual",
    "Node",
    "ParseError",
    "Rule",
    "RunResult",
    "StructuralError",
    "accuracy_report",
    "constant",
    "crossover",
    "crowded_compare",
    "crowding_distance",
    "default_rule_table",
    "dominates",
    "evaluate_matrix",
    "execute_experiment",
    "execute_run",
    "export_pareto_csv",
    "fast_nondominated_sort",
    "figure_consistent_rule_table",
    "fit_linear_scaling",
    "function",
    "load_config",
    "make_matrix_evaluator",
    "make_measure",
    "mutate",
    "nmse",
    "pareto_front",
    "parse_config",
    "parse_sexpr",
    "pearson_r2",
    "random_tree",
    "recursive_complexity",
    "run",
    "scaled_nmse",
    "select_best",
    "to_sexpr",
    "tournament_select",
    "variable",
]
