"""Seeded fuzzing of the model text format and the CSV reader.

Each test draws its inputs from a fixed-seed numpy generator, so a failure
reproduces exactly; the failing input is in the assertion message.
"""

import numpy as np
import pytest

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
