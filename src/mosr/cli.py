"""Command-line entry points.

Subcommands::

    mosr problems                      list the built-in benchmark problems
    mosr generate   --problem NAME --seed N --out FILE
    mosr run        --problem NAME | --data FILE --target COL  [engine flags]
    mosr experiment --config FILE [--out-dir DIR] [--jobs N]
    mosr eval       --model FILE --data FILE --target COL

All subcommands exit 0 on success and nonzero with a one-line diagnostic on
any error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from . import benchmarks
from .complexity import MEASURES, RULE_TABLES
from .harness import ExperimentConfig, execute_experiment, load_config
from .metrics import fit_linear_scaling, nmse, pearson_r2, scaled_nmse
from .sexpr import parse_sexpr
from .trees import evaluate_matrix


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mosr",
        description="Multi-objective symbolic regression (NSGA-II) experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("problems", help="list built-in benchmark problems")

    gen = sub.add_parser("generate", help="emit a benchmark dataset as CSV")
    gen.add_argument("--problem", required=True, choices=benchmarks.PROBLEM_NAMES)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--variant", default="", help="'literature' for friedman1")

    run_p = sub.add_parser("run", help="one evolution run")
    _add_run_flags(run_p)

    exp = sub.add_parser("experiment", help="seeded repetitions from a config file")
    exp.add_argument("--config", required=True, help="key = value config file")
    exp.add_argument("--out-dir", default=None, help="override the config output_dir")
    exp.add_argument("--jobs", type=int, default=None, help="override parallel run count")

    ev = sub.add_parser("eval", help="score a saved model on a CSV dataset")
    ev.add_argument("--model", required=True, help="s-expression model file")
    ev.add_argument("--data", required=True, help="CSV dataset")
    ev.add_argument("--target", required=True, help="target column name")
    return parser


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", choices=("",) + benchmarks.PROBLEM_NAMES)
    p.add_argument("--variant", help="'literature' for friedman1")
    p.add_argument("--data", dest="data_path", help="CSV dataset instead of a benchmark")
    p.add_argument("--target", help="target column for --data")
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--objective2", choices=MEASURES)
    p.add_argument("--rules", choices=tuple(RULE_TABLES))
    p.add_argument("--pop", type=int, dest="population_size")
    p.add_argument("--evals", type=int, dest="max_evaluations")
    p.add_argument("--max-length", type=int)
    p.add_argument("--max-depth", type=int)
    p.add_argument("--mutation-rate", type=float)
    p.add_argument("--tournament-size", type=int)
    p.add_argument("--seed", type=int, dest="base_seed")
    p.add_argument("--out-dir", required=True, dest="output_dir")
    # each flag's dest is an ExperimentConfig field; every field, flagged or
    # not, defaults to the field's default
    defaults = ExperimentConfig()
    p.set_defaults(**{f.name: getattr(defaults, f.name) for f in fields(ExperimentConfig)})


def _cmd_problems(_args) -> int:
    print(f"{'name':<16} {'vars':>4} {'train':>6} {'test':>6} {'noise':>5}  sampling")
    for spec in benchmarks.list_problems():
        print(
            f"{spec.name:<16} {spec.n_variables:>4} {spec.train_size:>6} "
            f"{spec.test_size:>6} {spec.noise:>5}  {spec.sampling}"
        )
    return 0


def _cmd_generate(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    spec = benchmarks.get_problem(args.problem, args.variant)
    dataset = benchmarks.generate(spec, args.seed)
    benchmarks.save_csv(dataset, args.out)
    print(f"wrote {dataset.n_rows} rows ({spec.train_size} train) to {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = ExperimentConfig(**{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)})
    _, (result,) = execute_experiment(config)
    print(f"evaluations: {result.eval_count}")
    print(f"front size:  {len(result.front)}")
    print(f"best model:  {result.best.sexpr}")
    print(f"length:      {result.best.length}")
    print(f"train nmse:  {result.best.train_nmse:.6f}")
    print(f"test nmse:   {result.best.test_nmse:.6f}")
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    if args.jobs is not None:
        config.jobs = args.jobs
    stats, results = execute_experiment(config, args.out_dir)
    print(f"{config.label()} / {config.objective2}: {len(results)} runs")
    print(f"train nmse: {stats.train_nmse_mean:.3f} +/- {stats.train_nmse_std:.3f}")
    print(f"test nmse:  {stats.test_nmse_mean:.3f} +/- {stats.test_nmse_std:.3f}")
    print(f"length:     {stats.length_mean:.1f} +/- {stats.length_std:.1f}")
    return 0


def _cmd_eval(args) -> int:
    with open(args.model, encoding="utf-8-sig") as handle:
        tree = parse_sexpr(handle.read())
    dataset = benchmarks.load_csv(args.data, args.target, train_fraction=1.0)
    pred = evaluate_matrix(tree, dataset.columns)
    actual = dataset.target
    scaled = scaled_nmse(pred, actual, *fit_linear_scaling(pred, actual))
    print(f"r2={pearson_r2(pred, actual)!r} nmse={nmse(pred, actual)!r} scaled_nmse={scaled!r}")
    return 0


_COMMANDS = {
    "problems": _cmd_problems,
    "generate": _cmd_generate,
    "run": _cmd_run,
    "experiment": _cmd_experiment,
    "eval": _cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
