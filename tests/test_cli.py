import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mosr import cli
from mosr.cli import main
from mosr.harness import ExperimentConfig


def test_problems_lists_eight(capsys):
    assert main(["problems"]) == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.splitlines()[1:] if line.strip()]
    assert len(names) == 8
    assert "keijzer5" in names and "poly10" in names


def test_generate_writes_csv(tmp_path, capsys):
    out = str(tmp_path / "p10.csv")
    assert main(["generate", "--problem", "poly10", "--seed", "3", "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "x1,x2,x3,x4,x5,x6,x7,x8,x9,x10,y"
    assert len(lines) == 1 + 500


@pytest.mark.parametrize("command", ["generate", "run"])
def test_negative_seed_is_a_one_line_error_naming_it(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = ["--problem", "poly10", "--seed", "-1"]
    argv += ["--out", str(out)] if command == "generate" else ["--out-dir", str(out)]
    assert main([command] + argv) == 1
    err = capsys.readouterr().err
    name = "--seed" if command == "generate" else "base_seed"
    assert err == f"error: {name} must be >= 0, got -1\n"
    assert not out.exists()


def test_run_writes_artifacts(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code = main(
        [
            "run",
            "--problem", "keijzer5",
            "--objective2", "variables",
            "--pop", "12",
            "--evals", "60",
            "--max-length", "25",
            "--seed", "1",
            "--out-dir", out_dir,
        ]
    )
    assert code == 0
    assert sorted(os.listdir(out_dir)) == [
        "aggregate.csv", "best_1.sexpr", "front_1.csv", "runs.csv"
    ]
    runs = Path(out_dir, "runs.csv").read_text().splitlines()
    assert len(runs) == 2 and runs[1].startswith("1,")
    assert Path(out_dir, "aggregate.csv").read_text().splitlines()[1].startswith(
        "keijzer5,variables,1,"
    )
    out = capsys.readouterr().out
    assert "train nmse" in out
    assert "evaluations: 60" in out


def test_run_rejects_nan_target(tmp_path, capsys):
    data = tmp_path / "nan.csv"
    data.write_text("x1,y\n1,2\n2,nan\n3,6\n4,8\n")
    code = main(
        [
            "run",
            "--data", str(data),
            "--target", "y",
            "--pop", "12",
            "--evals", "60",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "NaN value at line 3, column 'y'" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("fraction, rows", [("0", 0), ("0.1", 0), ("0.3", 1)])
def test_run_rejects_too_few_training_rows(tmp_path, capsys, fraction, rows):
    # 0.1 of 4 rows rounds to 0; np.var of no rows would warn and miss it
    data = tmp_path / "tiny.csv"
    data.write_text("x1,y\n1,2\n2,5\n3,6\n4,9\n")
    code = main(
        [
            "run",
            "--data", str(data),
            "--target", "y",
            "--train-fraction", fraction,
            "--pop", "12",
            "--evals", "60",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: run failed (tiny, seed 0): "
        f"a run needs at least 2 training rows to fit on, got {rows}\n"
    )


def test_eval_scores_saved_model(tmp_path, capsys):
    data = str(tmp_path / "d.csv")
    with open(data, "w") as fh:
        fh.write("x1,y\n1,2\n2,4\n3,6\n")
    model = str(tmp_path / "m.sexpr")
    with open(model, "w") as fh:
        fh.write("(* 2 x0)\n")
    assert main(["eval", "--model", model, "--data", data, "--target", "y"]) == 0
    out = capsys.readouterr().out
    assert "r2=1.0" in out
    assert "nmse=0.0" in out


def test_eval_reads_a_model_with_a_byte_order_mark(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x1,y\n1,2\n2,4\n3,6\n")
    model = tmp_path / "bom.sexpr"
    model.write_bytes("(* 2 x0)\n".encode("utf-8-sig"))
    assert main(["eval", "--model", str(model), "--data", str(data), "--target", "y"]) == 0
    assert capsys.readouterr().out == "r2=1.0 nmse=0.0 scaled_nmse=0.0\n"


def test_eval_scores_a_deep_model(tmp_path, capsys):
    # deeper than Python's recursion limit: evaluation must not recurse
    data = tmp_path / "d.csv"
    data.write_text("x1,y\n0.5,1\n1.5,2\n2.5,4\n")
    model = tmp_path / "deep.sexpr"
    model.write_text("(sin " * 3000 + "x0" + ")" * 3000 + "\n")
    assert main(["eval", "--model", str(model), "--data", str(data), "--target", "y"]) == 0
    assert capsys.readouterr().out.startswith("r2=")


def test_experiment_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "problem = keijzer5\n"
        "objective2 = tree_length\n"
        "population_size = 12\n"
        "max_evaluations = 60\n"
        "max_length = 25\n"
        "repetitions = 2\n"
        "base_seed = 0\n"
    )
    out_dir = str(tmp_path / "results")
    assert main(["experiment", "--config", str(cfg), "--out-dir", out_dir]) == 0
    assert os.path.exists(os.path.join(out_dir, "aggregate.csv"))
    out = capsys.readouterr().out
    assert "keijzer5 / tree_length: 2 runs" in out


def test_unknown_objective2_exits_nonzero():
    with pytest.raises(SystemExit) as err:
        main(
            [
                "run",
                "--problem", "keijzer5",
                "--objective2", "entropy",
                "--out-dir", "/tmp/x",
            ]
        )
    assert err.value.code != 0


def test_missing_data_file_is_one_line_error(tmp_path, capsys):
    code = main(
        [
            "eval",
            "--model", str(tmp_path / "missing.sexpr"),
            "--data", str(tmp_path / "missing.csv"),
            "--target", "y",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_console_entry_point(tmp_path):
    # the installed script is the supported interface; exercise it end to end
    result = subprocess.run(
        [sys.executable, "-m", "mosr.cli", "problems"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "keijzer5" in result.stdout


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use; importing it with the CLI would
    # cost every process start and, in a pool, about 1.5 MB of peak RSS
    code = (
        "import sys, numpy; lazy = 'numpy.random' not in sys.modules; import mosr.cli; "
        "print(lazy, 'numpy.random' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    lazy, loaded = result.stdout.split()
    if lazy == "False":
        pytest.skip("this numpy imports numpy.random eagerly")
    assert loaded == "False"


def test_import_leaves_the_process_modules_unloaded():
    # the process pool and the scoring workers import these when a run first
    # needs them, so that no process start pays for them
    code = (
        "import sys, mosr.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_experiment_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a dot product over its threads above 10k elements, so
    # the training rows exceed that; a BLAS dot would move the last bits of
    # R^2 and of the written NMSE.  On a 1-core machine both runs use one
    # thread and this proves less.
    rng = np.random.default_rng(8)
    X = rng.uniform(-1.0, 1.0, size=(12_000, 3))
    y = X[:, 0] * X[:, 1] + np.sin(3.0 * X[:, 2]) + rng.normal(0.0, 0.1, 12_000)
    data = tmp_path / "data.csv"
    np.savetxt(data, np.column_stack([X, y]), delimiter=",", header="a,b,c,y", comments="")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"data = {data}\ntarget = y\ntrain_fraction = 0.95\nobjective2 = variables\n"
        "population_size = 20\nmax_evaluations = 200\nrepetitions = 2\nbase_seed = 5\n"
    )
    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        result = subprocess.run(
            [sys.executable, "-m", "mosr.cli", "experiment", "--config", str(cfg),
             "--out-dir", str(out_dir)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(
            {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}
        )
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]


def test_bad_config_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("problem = keijzer5\nwibble = 1\n")
    code = main(["experiment", "--config", str(cfg)])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    [
        "population_size = 1", "mutation_rate = 1.5", "max_evaluations = 10",
        "rule.add = power:2", "base_seed = -1",
    ],
)
def test_bad_settings_exit_before_any_run(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"problem = keijzer5\nobjective2 = complexity\npopulation_size = 12\n{line}\n")
    out_dir = tmp_path / "results"
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "run failed" not in err
    assert len(err.strip().splitlines()) == 1
    assert not out_dir.exists()


def test_bad_csv_exits_before_the_output_directory(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("x1,y\n1,2\n3,abc\n")
    cfg = tmp_path / "csv.cfg"
    cfg.write_text(f"data = {data}\ntarget = y\npopulation_size = 12\nrepetitions = 2\n")
    out_dir = tmp_path / "results"
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {data}: non-numeric value 'abc' at line 3, column 'y'\n"
    assert not out_dir.exists()


def test_run_flag_defaults_are_config_defaults():
    args = cli._build_parser().parse_args(["run", "--out-dir", "out"])
    defaults = ExperimentConfig()
    for f in fields(ExperimentConfig):
        if f.name != "output_dir":
            assert getattr(args, f.name) == getattr(defaults, f.name), f.name
    assert args.output_dir == "out"


def _mosr(*argv, python_flags=()):
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "mosr.cli", *map(str, argv)],
        capture_output=True, text=True,
    )


@pytest.mark.parametrize(
    "targets",
    [
        # 5 rows at train_fraction 0.75: one test row, whose variance is 0
        [float(i * i % 7 + i) for i in range(5)],
        # a variance of about 1e320 overflows to inf
        [(i % 7 - 3) * 1e160 for i in range(40)],
    ],
    ids=["one-test-row", "overflowing-variance"],
)
def test_an_unscorable_test_partition_reads_nan(tmp_path, targets):
    data = tmp_path / "data.csv"
    data.write_text("\n".join(["x,y"] + [f"{i},{y!r}" for i, y in enumerate(targets)]) + "\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"data = {data}\ntarget = y\ntrain_fraction = 0.75\npopulation_size = 8\n"
        "max_evaluations = 40\nrepetitions = 1\n"
    )
    result = _mosr("experiment", "--config", cfg, "--out-dir", tmp_path / "out")
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    header, row = (tmp_path / "out" / "runs.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["test_nmse"] == "nan"


def test_every_text_file_is_written_as_utf8(tmp_path):
    # the default encoding is the locale's; any open() that relies on it
    # warns here, and the warning is an error
    flags = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    data = tmp_path / "data.csv"
    result = _mosr(
        "generate", "--problem", "keijzer5", "--seed", 2, "--out", data, python_flags=flags
    )
    assert result.returncode == 0, result.stderr
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"data = {data}\ntarget = y\npopulation_size = 10\nmax_evaluations = 60\n"
        "repetitions = 2\n"
    )
    # one job: a run may fork a scoring worker; two jobs: the process pool
    for jobs in (1, 2):
        result = _mosr(
            "experiment", "--config", cfg, "--out-dir", tmp_path / f"out{jobs}",
            "--jobs", jobs, python_flags=flags,
        )
        assert result.returncode == 0, result.stderr
    result = _mosr(
        "eval", "--model", tmp_path / "out1" / "best_0.sexpr", "--data", data,
        "--target", "y", python_flags=flags,
    )
    assert result.returncode == 0, result.stderr
