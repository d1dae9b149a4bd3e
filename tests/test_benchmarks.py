import hashlib
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from mosr import benchmarks
from mosr.data import Dataset
from mosr.benchmarks import (
    PROBLEM_NAMES,
    generate,
    get_problem,
    list_problems,
    load_csv,
    save_csv,
    target_function,
)
from dataclasses import replace


class TestCatalog:
    def test_eight_problems(self):
        specs = list_problems()
        assert len(specs) == 8
        assert "poly10" in PROBLEM_NAMES

    def test_arities_match_formulas(self):
        arity = {spec.name: spec.n_variables for spec in list_problems()}
        assert arity["keijzer5"] == 3
        assert arity["vladislavleva1"] == 2
        assert arity["vladislavleva2"] == 1
        assert arity["vladislavleva7"] == 2
        assert arity["pagie1"] == 2
        assert arity["poly10"] == 10
        assert arity["friedman1"] == 10
        assert arity["friedman2"] == 10

    def test_only_friedman_problems_have_noise(self):
        for spec in list_problems():
            if spec.name.startswith("friedman"):
                assert spec.noise == 1.0
            else:
                assert spec.noise == 0.0

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("koza1")
        with pytest.raises(ValueError, match="variant"):
            get_problem("poly10", "literature")


class TestFormulas:
    def test_keijzer5_zero_numerator(self):
        fn = target_function(get_problem("keijzer5"))
        assert fn(np.array([[0.0, 1.5, 0.7]]))[0] == 0.0

    def test_keijzer5_hand_value(self):
        fn = target_function(get_problem("keijzer5"))
        assert fn(np.array([[1.0, 1.0, 1.0]]))[0] == pytest.approx(-10.0 / 3.0)

    def test_pagie1_hand_value(self):
        fn = target_function(get_problem("pagie1"))
        assert fn(np.array([[1.0, 1.0]]))[0] == pytest.approx(1.0)

    def test_poly10_all_ones(self):
        fn = target_function(get_problem("poly10"))
        assert fn(np.ones((1, 10)))[0] == pytest.approx(5.0)

    def test_friedman2_hand_value(self):
        fn = target_function(get_problem("friedman2"))
        x = np.zeros((1, 10))
        x[0, :5] = [0.5, 1.0, 0.5, 0.0, 0.0]
        assert fn(x)[0] == pytest.approx(10.0)

    def test_vladislavleva7_hand_value(self):
        fn = target_function(get_problem("vladislavleva7"))
        # (4-3)(5-3) + 2 sin((4-4)(5-4)) = 2
        assert fn(np.array([[4.0, 5.0]]))[0] == pytest.approx(2.0)

    def test_friedman1_variants_differ(self):
        printed = target_function(get_problem("friedman1"))
        literature = target_function(get_problem("friedman1", "literature"))
        x = np.zeros((1, 10))
        x[0, :5] = [0.2, 0.9, 0.4, 0.7, 0.1]
        assert printed(x)[0] != pytest.approx(literature(x)[0])
        # literature form: 0.1 e^{4 x1} + 4 / (1 + e^{-20 (x2-0.5)}) + 3 x3 + 2 x4 + x5
        expected = (
            0.1 * math.exp(0.8)
            + 4.0 / (1.0 + math.exp(-8.0))
            + 1.2
            + 1.4
            + 0.1
        )
        assert literature(x)[0] == pytest.approx(expected)


class TestGenerate:
    def test_shapes_and_partitions(self):
        for spec in list_problems():
            ds = generate(spec, seed=0)
            assert ds.n_variables == spec.n_variables
            assert len(ds.train_rows) == spec.train_size
            assert len(ds.test_rows) == spec.test_size
            assert ds.n_rows == spec.train_size + spec.test_size
            assert np.intersect1d(ds.train_rows, ds.test_rows).size == 0

    def test_bit_identical_per_seed(self):
        for name in ("keijzer5", "friedman1", "vladislavleva2"):
            a = generate(name, seed=7)
            b = generate(name, seed=7)
            assert a.columns.tobytes() == b.columns.tobytes()
            assert a.target.tobytes() == b.target.tobytes()

    def test_datasets_are_pinned(self):
        # sha-256 prefixes of each dataset at seed 11 (dtype, shape and bytes
        # of columns, target, train and test rows), recorded before the
        # problem tables were folded into one; they pin this numpy's draws
        # and float kernels
        pinned = {
            ("keijzer5", ""): "72dfb7e601b4846c15b5a33319a0a5ac",
            ("vladislavleva1", ""): "f127306319074bdc93e16e8ba9804ff4",
            ("vladislavleva2", ""): "e7daced7f51c29e1170e046ed8d8dad6",
            ("vladislavleva7", ""): "9ec787b44f98449e50a764301b52afda",
            ("pagie1", ""): "ef824527785caaa59b8483a9c8861eed",
            ("poly10", ""): "941a40c17de316812163faa5f5e6b730",
            ("friedman1", ""): "9fd6699561bec5ddc34aebfdcf4a54b6",
            ("friedman2", ""): "a554b09d8b7475e66cb5ec43dd95f608",
            ("friedman1", "literature"): "54e52314c869d40996d27b5e272d3a84",
        }
        assert {name for name, _ in pinned} == set(PROBLEM_NAMES)
        for (name, variant), want in pinned.items():
            ds = generate(get_problem(name, variant), 11)
            digest = hashlib.sha256()
            for array in (ds.columns, ds.target, ds.train_rows, ds.test_rows):
                digest.update(repr((array.dtype.str, array.shape)).encode())
                digest.update(array.tobytes())
            assert digest.hexdigest()[:32] == want, (name, variant)

    def test_seeds_differ(self):
        a = generate("poly10", seed=0)
        b = generate("poly10", seed=1)
        assert a.columns.tobytes() != b.columns.tobytes()

    def test_noise_free_targets_reproduce_formula_exactly(self):
        for spec in list_problems():
            silent = replace(spec, noise=0.0)
            ds = generate(silent, seed=3)
            fn = target_function(silent)
            with np.errstate(all="ignore"):
                expected = fn(ds.columns)
            assert ds.target.tobytes() == expected.tobytes()

    def test_friedman_noise_on_training_rows_only(self):
        spec = get_problem("friedman2")
        noisy = generate(spec, seed=5)
        fn = target_function(spec)
        clean = fn(noisy.columns)
        train, test = noisy.train_rows, noisy.test_rows
        assert not np.array_equal(noisy.target[train], clean[train])
        assert np.array_equal(noisy.target[test], clean[test])

    def test_grid_sampling_is_exact(self):
        ds = generate("vladislavleva2", seed=0)
        x = ds.columns[ds.train_rows, 0]
        assert len(x) == 100
        assert x[0] == pytest.approx(0.05)
        assert x[-1] == pytest.approx(9.95)
        test_x = ds.columns[ds.test_rows, 0]
        assert len(test_x) == 221
        assert test_x[0] == pytest.approx(-0.5)
        assert test_x[-1] == pytest.approx(10.5)

    def test_pagie_grid_avoids_zero(self):
        ds = generate("pagie1", seed=0)
        train = ds.columns[ds.train_rows]
        assert len(train) == 26 * 26
        assert np.abs(train).min() > 0.0
        assert np.isfinite(ds.target[ds.train_rows]).all()

    def test_sampling_ranges(self):
        ds = generate("keijzer5", seed=1)
        x = ds.columns
        assert x[:, 0].min() >= -1.0 and x[:, 0].max() <= 1.0
        assert x[:, 1].min() >= 1.0 and x[:, 1].max() <= 2.0
        assert x[:, 2].min() >= -1.0 and x[:, 2].max() <= 1.0


class TestDataset:
    def test_overlapping_partitions_are_rejected(self):
        columns, target = np.zeros((4, 1)), np.zeros(4)
        Dataset(("x1",), columns, target, [0, 1], [2, 3])
        with pytest.raises(ValueError, match="train and test rows overlap"):
            Dataset(("x1",), columns, target, [0, 1, 3], [2, 3])
        with pytest.raises(ValueError, match="row index out of range"):
            Dataset(("x1",), columns, target, [0, 4], [2])

    def test_loading_a_csv_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.unique imports numpy.ma, about 15 ms of every process start
        path = tmp_path / "small.csv"
        path.write_text("x1,y\n1,2\n3,4\n5,6\n")
        code = (
            "import sys; from mosr.benchmarks import load_csv; "
            f"load_csv({str(path)!r}, 'y', 0.5); print('numpy.ma' in sys.modules)"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False"]


def _load_through_pipe(path, text):
    def write():
        with open(path, "w") as handle:
            handle.write(text)

    os.mkfifo(path)
    writer = threading.Thread(target=write)
    writer.start()
    try:
        return load_csv(path, "y", train_fraction=0.5)
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()


class TestCsv:
    def test_split_of_three_rows(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(str(path), "y", train_fraction=2 / 3)
        assert len(ds.train_rows) == 2
        assert len(ds.test_rows) == 1
        assert ds.variable_names == ("a", "b")
        assert ds.target.tolist() == [3.0, 6.0, 9.0]

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="no column named 'y'"):
            load_csv(str(path), "y", train_fraction=0.5)

    def test_byte_order_mark_before_the_header(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" puts U+FEFF before the first column name
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfy,x1\n1,2\n3,4\n5,7\n")
        ds = load_csv(str(path), "y", train_fraction=2 / 3)
        assert ds.variable_names == ("x1",)
        assert ds.target.tolist() == [1.0, 3.0, 5.0]

    def test_repeated_column_name_rejected(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("x,y,y\n1,2,3\n4,5,6\n")
        with pytest.raises(ValueError, match="column 'y' appears more than once") as err:
            load_csv(str(path), "y", train_fraction=0.5)
        assert len(str(err.value).splitlines()) == 1

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n1,2,3\n4,abc,6\n")
        with pytest.raises(ValueError, match="line 3, column 'b'"):
            load_csv(str(path), "y", train_fraction=0.5)

    def test_nan_target_reports_row_and_column(self, tmp_path):
        path = tmp_path / "nan.csv"
        # the blank line still counts, so the NaN sits on file line 4
        path.write_text("a,b,y\n1,2,3\n\n4,5,nan\n7,8,9\n")
        with pytest.raises(ValueError, match=r"nan\.csv: NaN value at line 4, column 'y'"):
            load_csv(str(path), "y", train_fraction=0.5)

    def test_infinite_input_reports_row_and_column(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a,b,y\n1,2,3\n4,-inf,nan\n")
        # the first bad cell in file order is reported
        with pytest.raises(ValueError, match="infinite value at line 3, column 'b'"):
            load_csv(str(path), "y", train_fraction=0.5)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(str(path), "y", train_fraction=0.5)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(str(path), "y", train_fraction=0.5)

    def test_rows_keep_file_order(self, tmp_path):
        path = tmp_path / "s.csv"
        rows = "\n".join(f"{i},{i * 2}" for i in range(20))
        path.write_text("a,y\n" + rows + "\n")
        ds = load_csv(str(path), "y", train_fraction=0.5)
        assert ds.columns[:, 0].tolist() == list(range(20))
        assert ds.target.tolist() == [2.0 * i for i in range(20)]
        assert ds.train_rows.tolist() == list(range(10))

    @pytest.mark.parametrize(
        "prefix, line_end, pad",
        [
            (b"", "\n", ""),
            (b"\xef\xbb\xbf", "\r\n", " "),
            (b"", "\r", "\t"),
            (b"", "\n\n", "\xa0\u3000"),
        ],
    )
    def test_plain_numeric_file_never_reaches_the_full_reader(
        self, tmp_path, monkeypatch, prefix, line_end, pad
    ):
        def full_reader(*args):
            raise AssertionError("the full reader ran")

        monkeypatch.setattr(benchmarks, "_table_by_cell", full_reader)
        ds = generate("keijzer5", seed=2)
        rows = np.column_stack([ds.columns, ds.target])
        lines = ["x1,x2,x3,y"] + [",".join(pad + repr(float(v)) for v in row) for row in rows]
        path = tmp_path / "plain.csv"
        path.write_bytes(prefix + line_end.join(lines).encode("utf-8"))
        again = load_csv(str(path), "y", train_fraction=len(ds.train_rows) / ds.n_rows)
        assert again.columns.tobytes() == ds.columns.tobytes()
        assert again.target.tobytes() == ds.target.tobytes()
        assert again.train_rows.tolist() == ds.train_rows.tolist()

    def test_a_named_pipe_is_read_in_one_pass(self, tmp_path):
        # a pipe cannot seek back for the full reader, so it is read cell by cell
        for i, body in enumerate(["1,2\n3,4\n", '1,"2"\r\n3,4']):
            ds = _load_through_pipe(str(tmp_path / f"pipe{i}.csv"), "a,y\n" + body)
            assert ds.target.tolist() == [2.0, 4.0]
        with pytest.raises(ValueError, match="non-numeric value 'x' at line 3"):
            _load_through_pipe(str(tmp_path / "bad.csv"), "a,y\n1,2\n3,x\n")

    def test_save_load_roundtrip(self, tmp_path):
        ds = generate("keijzer5", seed=2)
        path = str(tmp_path / "k5.csv")
        save_csv(ds, path)
        again = load_csv(path, "y", train_fraction=len(ds.train_rows) / ds.n_rows)
        assert again.columns.tobytes() == ds.columns.tobytes()
        assert again.target.tobytes() == ds.target.tobytes()
        assert len(again.train_rows) == len(ds.train_rows)
        assert again.variable_names == ds.variable_names
