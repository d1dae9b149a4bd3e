"""Golden artifacts: a fixed matrix of small experiments whose output files
must stay byte-identical.

The matrix covers each of the four complexity measures, the recursive
measure under both rule tables, a validation split and a CSV dataset.  A
change that moves any RNG draw, any evaluation order or any written float
shows up here as a differing file.

The files under ``tests/golden/`` were recorded with numpy 2.4.6 on
x86_64; a different numpy build may round transcendental functions
differently.  To re-record after an intended change of semantics::

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import sys
import tempfile

import pytest

from mosr import benchmarks
from mosr.harness import ExperimentConfig, execute_experiment

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CSV_NAME = "vlad1.csv"

_COMMON = dict(population_size=50, max_evaluations=2000, repetitions=2, base_seed=0)

MATRIX = {
    "keijzer5-variables-validation": dict(
        problem="keijzer5", objective2="variables", validation_fraction=0.25
    ),
    "pagie1-tree_length": dict(problem="pagie1", objective2="tree_length"),
    "csv-visitation_length": dict(data_path=CSV_NAME, target="y", objective2="visitation_length"),
    "keijzer5-complexity-eq1": dict(problem="keijzer5", objective2="complexity", rules="eq1"),
    "poly10-complexity-figure": dict(problem="poly10", objective2="complexity", rules="figure"),
}


def _write_input_csv(directory: str) -> str:
    path = os.path.join(directory, CSV_NAME)
    benchmarks.save_csv(benchmarks.generate(benchmarks.get_problem("vladislavleva1"), 3), path)
    return path


def _run(name: str, out_dir: str, csv_path: str) -> None:
    fields = dict(_COMMON, **MATRIX[name])
    if "data_path" in fields:
        fields["data_path"] = csv_path
    execute_experiment(ExperimentConfig(**fields), out_dir)


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_artifacts_match_golden(name, tmp_path):
    csv_path = _write_input_csv(str(tmp_path))
    out = str(tmp_path / "out")
    _run(name, out, csv_path)
    expected_dir = os.path.join(GOLDEN_DIR, name)
    names = sorted(os.listdir(expected_dir))
    assert sorted(os.listdir(out)) == names
    for file_name in names:
        with open(os.path.join(expected_dir, file_name), "rb") as handle:
            expected = handle.read()
        with open(os.path.join(out, file_name), "rb") as handle:
            got = handle.read()
        assert got == expected, f"{name}/{file_name} differs from the golden file"


def record() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        csv_path = _write_input_csv(scratch)
        for name in sorted(MATRIX):
            _run(name, os.path.join(GOLDEN_DIR, name), csv_path)
            print(f"recorded {name}", file=sys.stderr)


if __name__ == "__main__":
    record()
