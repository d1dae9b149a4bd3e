"""Seeded fuzzing of the model text format and the CSV reader.

Each test draws its inputs from a fixed-seed numpy generator, so a failure
reproduces exactly; the failing input is in the assertion message.
"""

from unittest import mock

import numpy as np
import pytest

from mosr import benchmarks
from mosr.benchmarks import Dataset, load_csv
from mosr.sexpr import ParseError, parse_sexpr, to_sexpr
from mosr.trees import constant, evaluate_matrix, mutate, random_tree, replace_subtree

# characters an edit draws from: the format's own alphabet plus strays
EDIT_CHARS = "()  x0123456789.-+eE*divsqrtlogcosinexpquare\t\n#,_"


def _random_trees(rng, count):
    """Random trees, half of them mutated so constants leave the grid of
    fresh draws (jittered constants print with full precision)."""
    out = []
    for _ in range(count):
        tree = random_tree(rng, n_variables=3, max_length=40)
        if rng.random() < 0.5:
            tree = mutate(tree, rng, n_variables=3)
        out.append(tree)
    return out


def _with_signed_zero(tree, rng):
    """``tree`` with one random subtree replaced by the constant 0.0 or -0.0."""
    zero = constant(-0.0 if rng.random() < 0.5 else 0.0)
    return replace_subtree(tree, int(rng.integers(tree.size)), zero)


def test_sexpr_round_trip_is_structural_and_bit_identical():
    rng = np.random.default_rng(41)
    X = rng.normal(0.0, 3.0, size=(50, 3))
    X[:4, :] = [[0.0, -0.0, np.inf], [-np.inf, 0.0, -0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]]
    models = _random_trees(rng, 1000)
    models += [_with_signed_zero(tree, rng) for tree in models[:300]]
    for tree in models:
        text = to_sexpr(tree)
        again = parse_sexpr(text)
        assert again == tree, text
        assert to_sexpr(again) == text
        want = evaluate_matrix(tree, X)
        got = evaluate_matrix(again, X)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), text


def _edit(text, rng):
    """One random character inserted, deleted or replaced."""
    i = int(rng.integers(len(text) + 1))
    c = EDIT_CHARS[int(rng.integers(len(EDIT_CHARS)))]
    kind = int(rng.integers(3))
    if kind == 0 or i == len(text):
        return text[:i] + c + text[i:]
    if kind == 1:
        return text[:i] + text[i + 1:]
    return text[:i] + c + text[i + 1:]


def test_edited_text_parses_or_raises_parse_error():
    rng = np.random.default_rng(42)
    outcomes = {"parsed": 0, "rejected": 0}
    for tree in _random_trees(rng, 600):
        text = to_sexpr(tree)
        for _ in range(int(rng.integers(1, 4))):
            text = _edit(text, rng)
        try:
            parsed = parse_sexpr(text)
        except ParseError as exc:
            assert "\n" not in str(exc), repr(text)
            outcomes["rejected"] += 1
            continue
        # whatever parses is a well-formed tree that writes and reads back
        assert parse_sexpr(to_sexpr(parsed)) == parsed, repr(text)
        outcomes["parsed"] += 1
    assert min(outcomes.values()) > 50, outcomes  # both outcomes are exercised


CSV_CELLS = (
    "1", "-0", "2.5", "1e3", "-7.25e-2", " 4 ",
    "nan", "NaN", "inf", "-inf", "Infinity",
    "", "abc", "1e", "--1", "0x10", "1.2.3", '"', '"9"', "\x00", "1_0",
)


def _csv_text(rng):
    header = ["a", "b", "y"]
    if rng.random() < 0.1:  # a garbage name, maybe in place of the target's
        header[int(rng.integers(3))] = CSV_CELLS[int(rng.integers(len(CSV_CELLS)))]
    lines = [",".join(header)]
    for _ in range(int(rng.integers(0, 8))):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(["", "  ", "\t"]))
            continue
        n_fields = len(header)
        if roll < 0.2:
            n_fields += int(rng.choice([-1, 1]))
        fields = []
        for _ in range(n_fields):
            if rng.random() < 0.7:
                fields.append(repr(float(rng.normal(0.0, 10.0))))
            else:
                fields.append(CSV_CELLS[int(rng.integers(len(CSV_CELLS)))])
        lines.append(",".join(fields))
    return "\n".join(lines) + rng.choice(["", "\n"])


def test_load_csv_returns_a_dataset_or_a_one_line_value_error(tmp_path):
    rng = np.random.default_rng(43)
    path = tmp_path / "fuzz.csv"
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(600):
        text = _csv_text(rng)
        path.write_text(text, newline="")
        try:
            ds = load_csv(str(path), "y", float(rng.uniform(0.0, 1.0)))
        except ValueError as exc:
            assert "\n" not in str(exc), repr(text)
            outcomes["rejected"] += 1
            continue
        assert isinstance(ds, Dataset)
        assert np.isfinite(ds.columns).all() and np.isfinite(ds.target).all(), repr(text)
        assert ds.columns.shape == (ds.n_rows, 2)
        outcomes["loaded"] += 1
    assert min(outcomes.values()) > 50, outcomes


@pytest.mark.parametrize(
    "text, message",
    [
        ('a,b,y\n1,"2\nabc",3\n', r"non-numeric value '2\\nabc'"),
        ("a,b,y\n1,\x00,3\n", r"non-numeric value '\\x00'"),
    ],
)
def test_load_csv_shows_control_characters_escaped(tmp_path, text, message):
    path = tmp_path / "odd.csv"
    path.write_text(text, newline="")
    with pytest.raises(ValueError, match=message):
        load_csv(str(path), "y", 0.5)


# what the two CSV readers could disagree on: number spellings, padding
# (numpy strips U+001C as whitespace, float() does not), line ends, cells
# only the full reader reads (quoted, `1_000`, a non-ASCII digit) and cells
# that make both fail or make the table non-finite
DIFF_NUMBERS = ("0", "-0", "+1", "7", "-3.25", ".5", "5.", "1e5", "-2.5E-3", "6.02e+23")
DIFF_ODD_CELLS = (
    "1_000", "\u0661", '"4.5"', '"1\n2"', '" 3 "', '"-0"',  # float() takes these
    "", " ", "#", "#1", "nan", "-NaN", "inf", "-Infinity", "1e999",
    "abc", "1e", "0x10", "\ufeff1", "\x001",
)
DIFF_PADS = ("", "", "", " ", "\t", "\f", "\xa0", "\u3000", "\x1c")
DIFF_LINE_ENDS = ("\n", "\n", "\r\n", "\r")


def _diff_number(rng):
    roll = rng.random()
    if roll < 0.5:
        return repr(float(rng.normal(0.0, 10.0 ** int(rng.integers(-3, 4)))))
    if roll < 0.7:
        return repr(float(rng.uniform(-1.0, 1.0)) * 10.0 ** int(rng.integers(-320, 309)))
    return DIFF_NUMBERS[int(rng.integers(len(DIFF_NUMBERS)))]


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _pad(rng, odd):
    return _pick(rng, DIFF_PADS if rng.random() < odd else DIFF_PADS[:-1])


def _diff_csv(rng):
    """A CSV file's bytes, and the target column to load it with.  Half the
    files are plain numeric tables; in the other half a cell, pad, line end,
    line of its own or byte is odd with a small chance each."""
    odd = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.01, 0.2))
    n_columns = int(rng.integers(1, 5))
    header = [f"c{i}" for i in range(n_columns)]
    target = _pick(rng, header)
    ends = DIFF_LINE_ENDS if odd else DIFF_LINE_ENDS[:3]
    lines = [",".join(header)]
    for _ in range(int(rng.integers(1, 7)) if rng.random() < 0.9 else 0):
        if rng.random() < odd:
            lines.append(_pick(rng, ("", "", " ", "\t", "\u3000", "#", ",")))
            continue
        width = n_columns + (int(rng.choice([-1, 1])) if rng.random() < odd / 3 else 0)
        cells = []
        for _ in range(max(width, 0)):
            cell = _pick(rng, DIFF_ODD_CELLS) if rng.random() < odd else _diff_number(rng)
            cells.append(_pad(rng, odd) + cell + _pad(rng, odd))
        lines.append(",".join(cells))
    text = "".join(line + _pick(rng, ends) for line in lines)
    if rng.random() < 0.3:
        text = text.rstrip("\r\n")  # no line end after the last line
    data = text.encode("utf-8")
    if rng.random() < odd / 4:  # a byte that is not UTF-8
        cut = int(rng.integers(len(data) + 1))
        data = data[:cut] + b"\xff" + data[cut:]
    bom = b"\xef\xbb\xbf" if rng.random() < 0.2 else b""
    return bom + data, target


def _load_outcome(path, target, train_fraction):
    """What load_csv gives: the dataset's bytes, names and partitions, or
    the error's type and message."""
    try:
        ds = load_csv(path, target, train_fraction)
    except Exception as exc:  # the type is part of the outcome
        return ("error", type(exc).__name__, str(exc))
    return (
        "dataset",
        ds.columns.dtype.str, ds.columns.shape, ds.columns.tobytes(), ds.target.tobytes(),
        ds.variable_names, ds.target_name, ds.train_rows.tolist(), ds.test_rows.tolist(),
    )


def compare_csv_readers(rng, path, count):
    """Load ``count`` generated files with load_csv and with the full
    reader on its own; return the mismatches and which path each took."""
    counts = {"numeric": 0, "full reader": 0}
    mismatches = []
    by_cell = benchmarks._table_by_cell

    def counted(*args):
        counts["full reader"] += 1
        return by_cell(*args)

    for _ in range(count):
        data, target = _diff_csv(rng)
        train_fraction = float(rng.uniform(0.0, 1.0))
        with open(path, "wb") as handle:
            handle.write(data)
        with mock.patch.object(benchmarks, "_table_by_cell", counted):
            used = counts["full reader"]
            got = _load_outcome(path, target, train_fraction)
            if counts["full reader"] == used and got[0] == "dataset":
                counts["numeric"] += 1
        with mock.patch.object(benchmarks, "_numeric_table", lambda handle, n: None):
            want = _load_outcome(path, target, train_fraction)
        if got != want:
            mismatches.append((data, got, want))
    return mismatches, counts


def test_load_csv_matches_the_full_reader(tmp_path):
    rng = np.random.default_rng(47)
    mismatches, counts = compare_csv_readers(rng, str(tmp_path / "diff.csv"), 3000)
    assert not mismatches, mismatches[:3]
    assert min(counts.values()) > 500, counts
