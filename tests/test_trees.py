import errno
import gc
import math
import os
import select
import signal
import threading
import time

import numpy as np
import pytest

from mosr import benchmarks, trees
from mosr.complexity import make_measure
from mosr.metrics import make_pearson_r2
from mosr.nsga2 import EngineConfig, run
from mosr.sexpr import parse_sexpr, to_sexpr
from mosr.trees import (
    StructuralError,
    constant,
    crossover,
    evaluate_matrix,
    function,
    mutate,
    random_tree,
    variable,
)


def _columns(values):
    return np.asarray(values, dtype=float).reshape(len(values), -1)


class TestEvaluate:
    def test_doubling(self):
        tree = parse_sexpr("(+ x0 x0)")
        out = evaluate_matrix(tree, _columns([3.0]))
        assert out.tolist() == [6.0]

    def test_division_by_zero_is_nonfinite(self):
        tree = parse_sexpr("(div 1 x0)")
        out = evaluate_matrix(tree, _columns([0.0]))
        assert not np.isfinite(out[0])

    def test_polynomial_by_hand(self):
        # 7*2^2 + 3*2 + 5 = 39
        tree = parse_sexpr("(+ (* 7 (square x0)) (* 3 x0) 5)")
        out = evaluate_matrix(tree, _columns([2.0]))
        assert out.tolist() == [39.0]

    def test_nary_fold_is_left_to_right(self):
        assert evaluate_matrix(parse_sexpr("(- 10 1 2)"), _columns([0.0]))[0] == 7.0
        assert evaluate_matrix(parse_sexpr("(div 24 2 3)"), _columns([0.0]))[0] == 4.0

    def test_log_of_nonpositive_is_nan(self):
        tree = parse_sexpr("(log x0)")
        out = evaluate_matrix(tree, _columns([-1.0, 0.0, math.e]))
        assert math.isnan(out[0])
        assert math.isnan(out[1])
        assert out[2] == pytest.approx(1.0)

    def test_sqrt_of_negative_is_nan(self):
        out = evaluate_matrix(parse_sexpr("(sqrt x0)"), _columns([-4.0, 4.0]))
        assert math.isnan(out[0])
        assert out[1] == 2.0

    def test_nonfinite_propagates(self):
        tree = parse_sexpr("(+ (div 1 x0) 1)")
        out = evaluate_matrix(tree, _columns([0.0]))
        assert not np.isfinite(out[0])

    def test_variable_out_of_range_is_structural_error(self):
        with pytest.raises(StructuralError):
            evaluate_matrix(parse_sexpr("(+ x0 x5)"), _columns([1.0]))

    def test_rows_selection(self):
        tree = parse_sexpr("(* x0 2)")
        X = _columns([1.0, 2.0, 3.0])
        out = evaluate_matrix(tree, X[np.array([2, 0])])
        assert out.tolist() == [6.0, 2.0]

    def test_purity_bit_for_bit(self):
        rng = np.random.default_rng(7)
        X = _columns(rng.normal(size=50))
        tree = random_tree(np.random.default_rng(3), n_variables=1)
        a = evaluate_matrix(tree, X)
        b = evaluate_matrix(tree, X)
        assert a.tobytes() == b.tobytes()

    def test_semantic_sanity_polynomial(self):
        tree = parse_sexpr("(+ (* 7 (square x0)) (* 3 x0) 5)")
        rng = np.random.default_rng(0)
        v = rng.uniform(-50, 50, 100)
        out = evaluate_matrix(tree, v[:, None])
        expected = 7.0 * v**2 + 3.0 * v + 5.0
        np.testing.assert_allclose(out, expected, rtol=1e-15)


def _uncached(tree, X):
    """Reference evaluator: recursive, stores nothing between nodes or trees."""
    cols = [np.ascontiguousarray(X[:, j]) for j in range(X.shape[1])]

    def value(node):
        if node.symbol == "var":
            return cols[node.value]
        if node.symbol == "const":
            return node.value
        args = [value(c) for c in node.children]
        if len(args) == 1:
            return trees._UNARY_IMPL[node.symbol](args[0])
        acc = args[0]
        for arg in args[1:]:
            acc = trees._BINARY_IMPL[node.symbol](acc, arg)
        return acc

    with np.errstate(all="ignore"):
        out = value(tree)
    if np.ndim(out) == 0:
        return np.full(X.shape[0], float(out))
    return np.array(out, dtype=float)


def _closure(fn):
    """The free variables of ``fn`` by name, and those of the evaluator's
    own nested functions it closes over, its scorer's ``score_order`` too."""
    found: dict = {}
    todo = [fn]
    while todo:
        inner = todo.pop(0)
        for name, cell in zip(inner.__code__.co_freevars, inner.__closure__ or ()):
            if name in found:
                continue
            found[name] = value = cell.cell_contents
            if getattr(value, "__qualname__", "").startswith("make_matrix_evaluator.<locals>"):
                todo.append(value)
            elif isinstance(value, trees._Workers):
                todo.append(value.score_order)
    return found


def _stored_arrays(evaluator):
    """The column values a prepared evaluator's full-row fold has stored so far."""
    stored = _closure(_closure(evaluator)["fold"])["column_values"]
    return [a for per_column in stored.values() for a in per_column if a is not None]


# sin/cos/log of a bare column at the root, inside subtrees, and repeated
CACHED_SHAPES = [
    "(sin x0)",
    "(cos x1)",
    "(log x2)",
    "(+ (sin x0) (cos x1))",
    "(* (log x2) (sin x2) (cos x2))",
    "(- (sin x0) (sin x0) (sin (sin x0)))",
    "(exp (log x0))",
    "(div (cos (log x1)) (log x1))",
    "(sqrt (+ (log x0) (square (cos x0))))",
    "(sin x3)",
    "(log (sin x1))",
]


def _edge_data():
    rng = np.random.default_rng(11)
    X = rng.normal(0.0, 3.0, size=(200, 4))
    X[:5, :] = [[0.0, -0.0, np.inf, -np.inf]] * 5  # log's NaN and ufunc edge cases
    return X


class TestPreparedEvaluatorCache:
    def test_matches_uncached_bit_for_bit(self):
        X = _edge_data()
        evaluate = trees.make_matrix_evaluator(X)
        rng = np.random.default_rng(5)
        shapes = [parse_sexpr(text) for text in CACHED_SHAPES]
        randoms = [random_tree(rng, n_variables=4, max_length=40) for _ in range(3000)]
        for tree in shapes + randoms + shapes:
            got = evaluate(tree)
            want = _uncached(tree, X)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), to_sexpr(tree)
        # every function of every column was stored once, and nothing else
        assert len(_stored_arrays(evaluate)) == 3 * X.shape[1]

    def test_stored_values_are_read_only(self):
        evaluate = trees.make_matrix_evaluator(_edge_data())
        evaluate(parse_sexpr("(+ (sin x0) (log x1))"))
        stored = _stored_arrays(evaluate)
        assert len(stored) == 2
        assert not any(a.flags.writeable for a in stored)

    @pytest.mark.parametrize("text", ["(sin x0)", "(cos x1)", "(log x2)", "x3"])
    def test_result_is_a_private_writable_copy(self, text):
        X = _edge_data()
        evaluate = trees.make_matrix_evaluator(X)
        tree = parse_sexpr(text)
        first = evaluate(tree)
        assert first.flags.writeable
        assert not np.shares_memory(first, X)
        assert not any(np.shares_memory(first, a) for a in _stored_arrays(evaluate))
        want = _uncached(tree, X)
        first[:] = 12345.0
        again = evaluate(tree)
        assert np.array_equal(again.view(np.uint64), want.view(np.uint64))
        assert not np.shares_memory(first, again)

    def test_input_matrix_stays_writable_and_unchanged(self):
        X = _edge_data()
        before = X.copy()
        evaluate = trees.make_matrix_evaluator(X)
        evaluate(parse_sexpr("(+ (sin x0) (cos x1) (log x2) x3)"))
        assert X.flags.writeable
        assert np.array_equal(X.view(np.uint64), before.view(np.uint64))


# log or sqrt meets a non-positive or negative argument (or a NaN) somewhere
EXITING = [
    "(+ (sqrt (- 0 x0)) x0)",
    "(log x1)",
    "(* (sqrt x2) (exp x3))",
    "(log (- x2 x2))",
    "(+ x0 (sqrt -1))",
    "(+ x0 (log 0))",
    "(div 1 (log (square x0)))",
]

# inf and signed zeros that a NaN-exit must let through: no NaN follows
NOT_EXITING = [
    "(div 1 (div 1 x0))",
    "(exp (- 0 (div 1 x0)))",
    "(sqrt x0)",
    "(sqrt (* 1 x0))",
    "(sqrt (exp x0))",
    "(div 1 (sqrt (exp x0)))",
    "(log (exp x0))",
    "(log (+ 1 (sqrt x0)))",
]


def _identity(values):
    """A score that hands back the values it scores."""
    return values


class TestNanExit:
    def test_objective_and_finite_values_match_exact_evaluation(self):
        X = _edge_data()
        exact = trees.make_matrix_evaluator(X)
        fast = trees.make_matrix_evaluator(X, score=_identity)
        r2 = make_pearson_r2(np.random.default_rng(3).normal(size=X.shape[0]))
        rng = np.random.default_rng(7)
        shapes = [parse_sexpr(text) for text in EXITING + NOT_EXITING + CACHED_SHAPES]
        randoms = [random_tree(rng, n_variables=4, max_length=40) for _ in range(3000)]
        exits = 0
        for tree in shapes + randoms:
            want = exact(tree)
            got = fast(tree)
            assert (1.0 - r2(got)).hex() == (1.0 - r2(want)).hex(), to_sexpr(tree)
            if np.isnan(want).any():
                assert np.isnan(got).any(), to_sexpr(tree)
                exits += bool(np.isnan(got).all() and not np.isnan(want).all())
            else:
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), to_sexpr(tree)
        assert exits > 1000  # the exit fires on the random trees, not just by hand

    @pytest.mark.parametrize("text", EXITING)
    def test_guaranteed_nan_returns_fresh_all_nan_rows(self, text):
        # the exit returns the score of all-NaN rows made once, when the
        # evaluator was prepared, not rows made fresh for each tree
        X = _edge_data()
        fast = trees.make_matrix_evaluator(X, score=_identity)
        nan_score = _closure(fast)["nan_score"]
        tree = parse_sexpr(text)
        assert np.isnan(trees.make_matrix_evaluator(X)(tree)).any()
        first = fast(tree)
        assert first.shape == (X.shape[0],) and np.isnan(first).all()
        assert first.flags.writeable
        assert first is nan_score
        assert trees.make_matrix_evaluator(X, score=_identity)(tree) is not first

    def test_exit_skips_finite_rows_of_the_exact_value(self):
        X = _edge_data()
        tree = parse_sexpr("(+ (sqrt (- 0 x0)) x0)")
        exact = trees.make_matrix_evaluator(X)(tree)
        assert np.isfinite(exact).any() and np.isnan(exact).any()
        assert np.isnan(trees.make_matrix_evaluator(X, score=_identity)(tree)).all()

    @pytest.mark.parametrize("text", NOT_EXITING)
    def test_inf_and_signed_zero_do_not_exit(self, text):
        X = np.array([[0.0], [-0.0], [2.0], [np.inf]])
        tree = parse_sexpr(text)
        want = trees.make_matrix_evaluator(X)(tree)
        got = trees.make_matrix_evaluator(X, score=_identity)(tree)
        assert not np.isnan(want).any()
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _probe_data(n):
    """``n`` rows: a positive column, two that change sign and one that is
    positive but for one row, with 0.0, -0.0 and +-inf in a few rows."""
    rng = np.random.default_rng(13)
    X = np.column_stack(
        [
            rng.uniform(0.5, 3.0, n),
            rng.normal(0.0, 3.0, n),
            rng.uniform(-1.0, 1.0, n),
            rng.uniform(0.1, 2.0, n),
        ]
    )
    X[rng.integers(n, size=12), 1] = rng.choice([0.0, -0.0, np.inf, -np.inf], 12)
    X[n // 2 + 1, 3] = -1.0
    return X


def _premise_values(rng, n):
    """Magnitudes from subnormal to 1e300 of both signs, normal values,
    and signed zeros, infinities, NaN and the extremes of the float range."""
    values = np.where(rng.random(n) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-323.0, 300.0, n)
    values[::3] = rng.normal(0.0, 3.0, values[::3].size)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                1e300, -1e300, 1.7976931348623157e308]
    values[rng.choice(n, size=8 * len(specials), replace=False)] = specials * 8
    return values


def _row_sets(n, rng):
    """The probe's own rows and row sets of other sizes, none a multiple of 8."""
    yield trees._probe_rows(n)
    for size in (1, 7, 31, 33, 333):
        yield np.sort(rng.choice(n, size=size, replace=False))
    yield np.arange(3, n, 129)


class TestNanProbe:
    def test_premise_a_row_of_a_function_does_not_depend_on_the_other_rows(self):
        rng = np.random.default_rng(19)
        n = 4097
        x, y = _premise_values(rng, n), _premise_values(rng, n)
        unary = dict(trees._UNARY_IMPL, **{"log in domain": np.log})
        with np.errstate(all="ignore"):
            for rows in _row_sets(n, rng):
                for name, f in unary.items():
                    got, want = f(x[rows]), f(x)[rows]
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
                for name, f in trees._BINARY_IMPL.items():
                    for a, b, a_rows, b_rows in [
                        (x, y, x[rows], y[rows]),
                        (x, -2.5, x[rows], -2.5),
                        (0.0, y, 0.0, y[rows]),
                    ]:
                        got, want = f(a_rows, b_rows), f(a, b)[rows]
                        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name

    def test_objectives_match_the_unprobed_evaluator(self, monkeypatch):
        monkeypatch.setattr(trees, "_MEMO_SIZE", 16)  # the identity score keeps whole rows
        X = _probe_data(4 * trees._PROBE_MIN_ROWS + 1)
        r2 = make_pearson_r2(np.random.default_rng(3).normal(size=X.shape[0]))
        exact = trees.make_matrix_evaluator(X)
        probe_ends = []  # per probed tree: did the probe end it?
        make_fold = trees._make_fold

        def counting_make_fold(cols, *args):
            fold = make_fold(cols, *args)
            if len(cols[0]) != trees._PROBE_ROWS:
                return fold

            def probe(order):
                out = fold(order)
                probe_ends.append(out is None or bool(np.isnan(out).any()))
                return out

            return probe

        monkeypatch.setattr(trees, "_make_fold", counting_make_fold)
        probed = trees.make_matrix_evaluator(X, score=_identity)
        monkeypatch.setattr(trees, "_PROBE_MIN_ROWS", X.shape[0] + 1)
        unprobed = trees.make_matrix_evaluator(X, score=_identity)
        assert _closure(probed)["probe"] is not None and _closure(unprobed)["probe"] is None
        rng = np.random.default_rng(23)
        shapes = [parse_sexpr(text) for text in EXITING + NOT_EXITING + CACHED_SHAPES]
        randoms = [random_tree(rng, n_variables=4, max_length=40) for _ in range(3000)]
        for tree in shapes + randoms:
            want = unprobed(tree)
            got = probed(tree)
            assert (1.0 - r2(got)).hex() == (1.0 - r2(want)).hex(), to_sexpr(tree)
            full = exact(tree)
            if np.isnan(full).any():
                assert np.isnan(got).any(), to_sexpr(tree)
            else:
                assert np.array_equal(got.view(np.uint64), full.view(np.uint64)), to_sexpr(tree)
        # only trees holding a log or sqrt are probed, and the probe ends many
        assert len(probe_ends) < len(shapes + randoms)
        assert sum(probe_ends) > 1000, (sum(probe_ends), len(probe_ends))

    @pytest.mark.parametrize(
        "text", ["(log (+ x3 0))", "(sqrt (* x3 1))", "(+ x0 (sqrt (div x3 2)))"]
    )
    def test_nan_outside_the_probe_still_exits_in_full(self, text):
        X = _probe_data(trees._PROBE_MIN_ROWS + 1)
        evaluate = trees.make_matrix_evaluator(X, score=_identity)
        rows = trees._probe_rows(X.shape[0])
        bad = np.flatnonzero(np.isnan(trees.make_matrix_evaluator(X)(parse_sexpr(text))))
        assert bad.size and not np.isin(bad, rows).any()  # the probe cannot see it
        out = evaluate(parse_sexpr(text))
        assert np.isnan(out).all() and out.flags.writeable

    def test_trees_without_log_or_sqrt_are_not_probed(self):
        # 0 * (1/0) is NaN in a probe row, yet the exact value is returned
        X = np.ones((trees._PROBE_MIN_ROWS, 1))
        X[0, 0] = 0.0
        tree = parse_sexpr("(* x0 (div 1 x0))")
        got = trees.make_matrix_evaluator(X, score=_identity)(tree)
        assert np.isnan(got[0]) and (got[1:] == 1.0).all()

    def test_probe_rows_span_the_data(self):
        rows = trees._probe_rows(4097)
        assert rows[0] == 0 and rows[-1] == 4096  # a sorted X is covered end to end
        assert len(np.unique(rows)) == trees._PROBE_ROWS
        assert np.abs(np.diff(rows) - 4096 / (trees._PROBE_ROWS - 1)).max() < 1.0

    def test_gate(self):
        # the built-in problems' training sets keep the unprobed path
        assert max(spec.train_size for spec in benchmarks.list_problems()) < trees._PROBE_MIN_ROWS
        for n_rows, score, probed in [
            (trees._PROBE_MIN_ROWS - 1, _identity, False),
            (trees._PROBE_MIN_ROWS, _identity, True),
            (trees._PROBE_MIN_ROWS, None, False),
        ]:
            evaluate = trees.make_matrix_evaluator(np.ones((n_rows, 1)), score=score)
            assert (_closure(evaluate).get("probe") is not None) == probed

    def test_log_of_a_positive_argument_needs_no_masking(self):
        rng = np.random.default_rng(17)
        arg = 10.0 ** rng.uniform(-323.0, 300.0, 15_001)
        arg[:4] = [np.inf, 5e-324, 1.0, 1.7976931348623157e308]
        assert (arg > 0.0).all()
        want = trees._log_nonpositive_nan(arg)
        assert np.array_equal(np.log(arg).view(np.uint64), want.view(np.uint64))


def _key(text):
    return trees._structure_key(trees.postorder(parse_sexpr(text)))


# trees that differ only where a careless key would merge them
KEY_PAIRS = [
    ("(div x0 0.0)", "(div x0 -0.0)"),
    ("x1", "1.0"),
    ("(sin x1)", "(sin 1)"),
    ("(+ x0 x1 x2)", "(+ (+ x0 x1) x2)"),
    ("(- (- x0 x1 x2) x0)", "(- x0 (- x1 x2) x0)"),
]


def _exact_bytes(values):
    """A score that tells every vector apart, but all that hold a NaN."""
    return b"NaN" if np.isnan(values).any() else values.tobytes()


class TestScoreMemo:
    @pytest.mark.parametrize(
        "problem, objective2", [("keijzer5", "complexity"), ("poly10", "tree_length")]
    )
    def test_kept_scores_match_a_fresh_recompute_over_a_run(self, problem, objective2):
        data = benchmarks.generate(problem, seed=4)
        X, y = data.X_train, data.y_train
        r2 = make_pearson_r2(y)
        memoised = trees.make_matrix_evaluator(X, score=r2)
        exact = trees.make_matrix_evaluator(X)
        measure = make_measure(objective2)
        seen: set = set()
        repeats = 0

        def objective(tree):
            nonlocal repeats
            got = 1.0 - memoised(tree)
            assert got.hex() == (1.0 - r2(exact(tree))).hex(), to_sexpr(tree)
            key = trees._structure_key(trees.postorder(tree))
            repeats += key in seen
            seen.add(key)
            return got, measure(tree)

        config = EngineConfig(population_size=100, max_evaluations=3000, seed=4)
        _, evaluations = run(config, objective, data.n_variables)
        assert repeats > evaluations // 10, repeats  # the kept scores were used
        assert len(_closure(memoised)["memo"]) <= trees._MEMO_SIZE

    def test_keys_are_equal_exactly_when_the_trees_are(self):
        for a, b in KEY_PAIRS:
            assert _key(a) != _key(b), (a, b)
            assert _key(a) == _key(a)
        rng = np.random.default_rng(29)
        pool = [random_tree(rng, n_variables=2, max_length=4) for _ in range(250)]
        pool += [parse_sexpr(text) for pair in KEY_PAIRS for text in pair]
        pool += [constant(0.0), constant(-0.0), constant(math.nan), constant(1.0), variable(1)]
        keys = [trees._structure_key(trees.postorder(tree)) for tree in pool]
        for a, key_a in zip(pool, keys):
            for b, key_b in zip(pool, keys):
                assert (key_a == key_b) == (a == b), (to_sexpr(a), to_sexpr(b))

    def test_trees_a_careless_key_would_merge_are_scored_apart(self):
        X = np.array([[2.0, 3.0, 5.0], [-1.0, 0.5, 4.0]])
        evaluate = trees.make_matrix_evaluator(X, score=_exact_bytes)
        exact = trees.make_matrix_evaluator(X)
        for pair in KEY_PAIRS:
            for text in pair + pair:  # each scored, then kept
                assert evaluate(parse_sexpr(text)) == exact(parse_sexpr(text)).tobytes(), text

    def test_least_recently_used_tree_is_dropped_and_scored_again(self, monkeypatch):
        monkeypatch.setattr(trees, "_MEMO_SIZE", 3)
        X = np.array([[0.5], [2.0]])
        scored = []

        def score(values):
            scored.append(values)
            return _exact_bytes(values)

        evaluate = trees.make_matrix_evaluator(X, score=score)
        exact = trees.make_matrix_evaluator(X)
        memo = _closure(evaluate)["memo"]
        del scored[:]  # the all-NaN score, made when the evaluator was prepared
        a, b, c, d = (parse_sexpr(t) for t in ("x0", "(sin x0)", "(cos x0)", "(exp x0)"))
        for tree in (a, b, c, a):  # the second a is kept: not scored again
            assert evaluate(tree) == _exact_bytes(exact(tree))
        assert len(scored) == 3 and len(memo) == 3
        assert evaluate(d) == _exact_bytes(exact(d))  # drops b, the least recently used
        assert len(scored) == 4 and len(memo) == 3
        evaluate(a)
        evaluate(c)
        assert len(scored) == 4
        assert evaluate(b) == _exact_bytes(exact(b))  # dropped, so scored again
        assert len(scored) == 5
        rng = np.random.default_rng(31)
        for _ in range(200):
            tree = random_tree(rng, n_variables=1, max_length=6)
            assert evaluate(tree) == _exact_bytes(exact(tree))
            assert len(memo) <= 3

    def test_out_of_range_variable_raises_on_every_call(self):
        scored = []
        evaluate = trees.make_matrix_evaluator(np.ones((4, 1)), score=scored.append)
        tree = parse_sexpr("(+ x0 x3)")
        for _ in range(3):
            with pytest.raises(StructuralError):
                evaluate(tree)
        assert len(scored) == 1 and not _closure(evaluate)["memo"]

    @pytest.mark.parametrize("n_rows", [200, trees._PROBE_MIN_ROWS + 1])
    def test_nan_exit_does_not_call_score(self, n_rows):
        X = _probe_data(n_rows)
        X[0, 3] = -np.inf
        scored = []

        def score(values):
            scored.append(values)
            return len(scored)

        evaluate = trees.make_matrix_evaluator(X, score=score)
        assert len(scored) == 1 and np.isnan(scored[0]).all()  # once, when prepared
        for text in ["(log (- x2 x2))", "(+ x0 (sqrt -1))", "(+ x0 (log 0))", "(log (+ x3 0))",
                     "(sqrt x1)", "(* x0 (log x2))"]:
            assert evaluate(parse_sexpr(text)) == 1, text
        assert len(scored) == 1


def _split_case(seed, n_trees=240):
    """Rows enough that workers are used and trees are probed, an R^2 score
    and a batch with repeats, one tree object twice and a tree with a
    variable X lacks."""
    X = _probe_data(2 * trees._PROBE_MIN_ROWS)
    r2 = make_pearson_r2(np.random.default_rng(seed).normal(size=X.shape[0]))
    rng = np.random.default_rng(seed)
    pool = [random_tree(rng, n_variables=4, max_length=30) for _ in range(n_trees)]
    batch = pool + [parse_sexpr("(+ x0 x9)")] + pool[:40] + [pool[3]]
    return X, r2, batch


def _pair_hex(value):
    return value[0].hex(), value[1].hex()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    """How many file descriptors this process holds; None where
    ``/proc/self/fd`` does not exist."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _counting_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _counting_chunks(monkeypatch):
    """The chunks this process sends to workers."""
    sent = []
    write = trees._write_message

    def counted(fd, obj):
        sent.append(obj)
        write(fd, obj)

    monkeypatch.setattr(trees, "_write_message", counted)
    return sent


def _assert_scored_as(evaluate, reference, batch, n_cols):
    for tree in batch:
        if tree.max_var < n_cols:
            assert evaluate(tree).hex() == reference(tree).hex(), to_sexpr(tree)


class TestSplit:
    @pytest.mark.parametrize("shares", [2, 3, 4])
    def test_prepared_values_and_memo_match_the_calls_one_by_one(self, shares, monkeypatch):
        monkeypatch.setattr(trees, "_MEMO_SIZE", 300)  # batches overflow it
        measure = make_measure("complexity").fold
        forks = _counting_forks(monkeypatch)
        X, r2, _ = _split_case(0)
        one_by_one = trees.make_matrix_evaluator(X, score=r2, measure=measure)
        split = trees.make_matrix_evaluator(X, score=r2, measure=measure, shares=shares)
        for seed in range(3):
            batch = _split_case(seed)[2]
            split.prepare(iter(batch))  # an iterator, as the engine hands it
            for tree in batch:
                if tree.max_var >= X.shape[1]:
                    for evaluate in (one_by_one, split):
                        with pytest.raises(StructuralError):
                            evaluate(tree)
                    continue
                assert _pair_hex(split(tree)) == _pair_hex(one_by_one(tree)), to_sexpr(tree)
            memo, want = _closure(split)["memo"], _closure(one_by_one)["memo"]
            assert list(memo) == list(want)  # the same trees kept, in the same order
            assert [_pair_hex(v) for v in memo.values()] == [_pair_hex(v) for v in want.values()]
        assert len(forks) == shares - 1  # once each, over all the batches
        split.close()
        _no_child_left()

    def test_a_kept_tree_skips_the_measure(self):
        X, r2, batch = _split_case(1)
        batch = [tree for tree in batch if tree.max_var < X.shape[1]]
        folded = []

        def measure(order):
            folded.append(order[-1])
            return float(len(order))

        evaluate = trees.make_matrix_evaluator(X, score=r2, measure=measure)
        for tree in batch + batch:
            assert evaluate(tree) == (r2(evaluate_matrix(tree, X)), float(tree.size))
        assert len(folded) == len({trees._structure_key(trees.postorder(t)) for t in batch})
        _no_child_left()

    @pytest.mark.parametrize("case", ["one share", "few to score", "threads"])
    def test_gates_score_in_this_process(self, case, monkeypatch):
        forks = _counting_forks(monkeypatch)
        X, r2, batch = _split_case(2)
        evaluate = trees.make_matrix_evaluator(X, score=r2, shares=1 if case == "one share" else 2)
        reference = trees.make_matrix_evaluator(X, score=r2)
        if case == "few to score":  # all kept but less than a whole chunk
            for tree in batch[: 240 - trees._CHUNK_TREES + 1]:
                if tree.max_var < X.shape[1]:
                    evaluate(tree)
        done = threading.Event()
        worker = threading.Thread(target=done.wait)
        if case == "threads":
            worker.start()
        try:
            evaluate.prepare(iter(batch))
        finally:
            done.set()
        if case == "threads":
            worker.join(timeout=10)
            assert not worker.is_alive()
        assert forks == []
        assert len(_closure(evaluate)["prepared"]) == 240  # listed here all the same
        _assert_scored_as(evaluate, reference, batch, X.shape[1])
        _no_child_left()

    def test_each_child_gets_a_tree_to_score(self, monkeypatch):
        # only a whole chunk is sent, so a worker always has trees to score
        forks = _counting_forks(monkeypatch)
        sent = _counting_chunks(monkeypatch)
        X = _probe_data(50)[:2]  # no row count is too few for a worker
        r2 = make_pearson_r2(np.ones(X.shape[0]).cumsum())
        evaluate = trees.make_matrix_evaluator(X, score=r2, shares=4)
        reference = trees.make_matrix_evaluator(X, score=r2)
        rng = np.random.default_rng(5)
        distinct = {}
        while len(distinct) < 2 * trees._CHUNK_TREES:
            tree = random_tree(rng, n_variables=4, max_length=20)
            distinct.setdefault(trees._structure_key(trees.postorder(tree)), tree)
        lone, *short = list(distinct.values())[: trees._CHUNK_TREES]
        assert evaluate(lone).hex() == reference(lone).hex()
        evaluate.prepare(short)  # a lone tree, then one short of a chunk: scored here
        assert forks == [] and sent == []
        whole = list(distinct.values())[trees._CHUNK_TREES:]
        evaluate.prepare(whole)
        assert len(forks) == 1 and len(sent) == 1 and len(sent[0]) == trees._CHUNK_TREES
        _assert_scored_as(evaluate, reference, [lone, *short, *whole], X.shape[1])
        evaluate.close()
        _no_child_left()

    def test_a_failed_child_share_is_scored_here(self, monkeypatch):
        forks = _counting_forks(monkeypatch)
        X, r2, batch = _split_case(3)
        parent = os.getpid()

        def score(values):
            if os.getpid() != parent:
                raise RuntimeError("child fails")
            return r2(values)

        evaluate = trees.make_matrix_evaluator(X, score=score, shares=3)
        reference = trees.make_matrix_evaluator(X, score=r2)
        evaluate.prepare(batch)
        assert len(forks) == 2  # each worker dies at its first chunk
        _no_child_left()  # both reaped
        _assert_scored_as(evaluate, reference, batch, X.shape[1])
        evaluate.close()

    def test_a_failed_pipe_share_is_scored_here(self, monkeypatch):
        forks = _counting_forks(monkeypatch)
        X, r2, batch = _split_case(5)
        pipes = []
        pipe = os.pipe

        def second_fails():
            pipes.append(1)
            if len(pipes) == 2:
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            return pipe()

        monkeypatch.setattr(os, "pipe", second_fails)
        evaluate = trees.make_matrix_evaluator(X, score=r2, shares=3)
        reference = trees.make_matrix_evaluator(X, score=r2)
        evaluate.prepare(batch)
        evaluate.prepare(batch[::-1])
        assert forks == [] and len(pipes) == 2  # never tried again
        _no_child_left()
        _assert_scored_as(evaluate, reference, batch, X.shape[1])

    @pytest.mark.parametrize("failing", ["pipe", "fork"])
    def test_a_failed_second_worker_leaves_the_first(self, failing, monkeypatch):
        forks = _counting_forks(monkeypatch)
        calls = []
        real = getattr(os, failing)

        def third_fails():  # each worker takes two pipes and one fork
            calls.append(1)
            if len(calls) == (3 if failing == "pipe" else 2):
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real()

        monkeypatch.setattr(os, failing, third_fails)
        X, r2, batch = _split_case(8)
        evaluate = trees.make_matrix_evaluator(X, score=r2, shares=3)
        reference = trees.make_matrix_evaluator(X, score=r2)
        for seed in range(3):
            evaluate.prepare(_split_case(seed)[2])
        assert len(_closure(evaluate)["workers"].live) == 1 and len(forks) == 1
        evaluate.prepare(batch)
        _assert_scored_as(evaluate, reference, batch, X.shape[1])
        evaluate.close()
        _no_child_left()

    def test_lone_calls_between_a_batchs_calls(self, monkeypatch):
        monkeypatch.setattr(trees, "_MEMO_SIZE", 100)  # the batch overflows it
        forks = _counting_forks(monkeypatch)
        sent = _counting_chunks(monkeypatch)
        X, r2, batch = _split_case(6)
        rng = np.random.default_rng(7)
        lone = [random_tree(rng, n_variables=4, max_length=30) for _ in range(60)]
        evaluate = trees.make_matrix_evaluator(X, score=r2, shares=2)
        memo = _closure(evaluate)["memo"]
        evaluate.prepare(batch)
        assert len(forks) == 1
        chunks = len(sent)
        for step, tree in enumerate(batch):
            if step % 5 == 0:
                other = lone[step // 5 % len(lone)]
                assert evaluate(other).hex() == r2(evaluate_matrix(other, X)).hex()
                assert len(memo) <= trees._MEMO_SIZE
            if tree.max_var >= X.shape[1]:
                with pytest.raises(StructuralError):
                    evaluate(tree)
                continue
            assert evaluate(tree).hex() == r2(evaluate_matrix(tree, X)).hex(), to_sexpr(tree)
            assert len(memo) <= trees._MEMO_SIZE
        assert len(sent) == chunks  # a lone call never reaches a worker
        evaluate.close()
        _no_child_left()

    def test_children_are_reaped_when_this_process_raises(self, monkeypatch):
        forks = _counting_forks(monkeypatch)
        X, r2, batch = _split_case(4)
        parent = os.getpid()
        calls = []

        def score(values):
            if os.getpid() == parent:
                calls.append(1)
                if len(calls) == 4:  # the all-NaN score and two of the rest
                    raise KeyboardInterrupt
            return r2(values)

        evaluate = trees.make_matrix_evaluator(X, score=score, shares=4)
        with pytest.raises(KeyboardInterrupt):
            evaluate.prepare(batch)
        assert len(forks) == 3
        live = _closure(evaluate)["workers"].live.values()
        assert all(not worker.in_flight for worker in live)  # none owes a reply
        evaluate.close()
        _no_child_left()

    @pytest.mark.parametrize("failure", ["iterator", "interrupt", "interrupt mid-chunk"])
    def test_a_batch_that_raises_leaves_no_reply_behind(self, failure, monkeypatch, tmp_path):
        forks = _counting_forks(monkeypatch)
        X, r2, batch = _split_case(9)
        parent = os.getpid()
        interrupt = []
        slow = tmp_path / "slow"  # while it exists, each worker sleeps once
        slept = []

        def score(values):
            if os.getpid() == parent and interrupt:
                interrupt.clear()
                raise KeyboardInterrupt
            if os.getpid() != parent and not slept and slow.exists():
                slept.append(1)
                time.sleep(5)
            return r2(values)

        def draws():
            yield from batch[:200]
            if failure == "iterator":
                raise ValueError("drawing failed")

        evaluate = trees.make_matrix_evaluator(X, score=score, shares=3)
        reference = trees.make_matrix_evaluator(X, score=r2)
        evaluate.prepare(_split_case(10)[2])  # the workers are forked
        if failure != "iterator":
            interrupt.append(1)
        if failure == "interrupt mid-chunk":
            slow.touch()
        start = time.monotonic()
        with pytest.raises(ValueError if failure == "iterator" else KeyboardInterrupt):
            evaluate.prepare(draws())
        assert time.monotonic() - start < 2.5  # no wait for a worker's chunk
        slow.unlink(missing_ok=True)
        nxt = _split_case(11)[2]
        evaluate.prepare(nxt)
        _assert_scored_as(evaluate, reference, nxt, X.shape[1])
        assert 1 <= len(forks) <= 2
        evaluate.close()
        _no_child_left()

    def test_a_killed_worker_s_chunks_are_scored_here(self, monkeypatch):
        forks = _counting_forks(monkeypatch)
        X, r2, batch = _split_case(12)
        parent = os.getpid()
        live = {}
        killed = []

        def score(values):
            if os.getpid() == parent and live and not killed:
                worker = next(iter(live.values()))
                os.kill(worker.pid, signal.SIGKILL)  # with chunks in flight
                killed.append(worker.pid)
            return r2(values)

        fds = _open_fds()
        evaluate = trees.make_matrix_evaluator(X, score=score, shares=2)
        live = _closure(evaluate)["workers"].live
        reference = trees.make_matrix_evaluator(X, score=r2)
        first = _split_case(13)[2]
        evaluate.prepare(first)
        assert killed and len(forks) == 1
        _no_child_left()  # the dead worker is reaped
        assert _open_fds() == fds  # and its pipes are closed
        _assert_scored_as(evaluate, reference, first, X.shape[1])
        evaluate.prepare(batch)  # and every later chunk is scored here
        _assert_scored_as(evaluate, reference, batch, X.shape[1])
        assert len(forks) == 1
        evaluate.close()
        _no_child_left()
        assert _open_fds() == fds

    @pytest.mark.parametrize("order", ["first closed first", "last closed first"])
    def test_two_evaluators_close_in_either_order(self, order, monkeypatch):
        forks = _counting_forks(monkeypatch)
        X, r2, batch = _split_case(14)
        evaluators = [trees.make_matrix_evaluator(X, score=r2, shares=2) for _ in range(2)]
        for evaluate in evaluators:
            evaluate.prepare(batch)
        assert len(forks) == 2
        # the second worker holds the first one's pipe ends, so the first
        # never sees its input end; closing returns all the same, because
        # each worker is ended by a signal
        for evaluate in evaluators if order == "first closed first" else evaluators[::-1]:
            evaluate.close()
        _no_child_left()

    def test_a_worker_ends_when_its_run_s_process_dies(self):
        X, r2, batch = _split_case(17)
        watch, held = os.pipe()  # held open by the run's process and its worker only
        pid = os.fork()
        if pid == 0:  # the run's process: it forks a worker, then dies without close()
            try:
                os.close(watch)
                evaluate = trees.make_matrix_evaluator(X, score=r2, shares=2)
                evaluate.prepare(batch)
                (worker,) = _closure(evaluate)["workers"].live.values()
                os.write(held, str(worker.pid).encode())
            finally:
                os._exit(0)
        os.close(held)
        os.waitpid(pid, 0)
        worker = int(os.read(watch, 32))
        ended = select.select([watch], [], [], 20)[0] and os.read(watch, 1) == b""
        os.close(watch)
        if not ended:
            os.kill(worker, signal.SIGKILL)  # not this process's child: nothing else ends it
        assert ended  # every holder of `held`, the worker included, is gone

    def test_close_is_idempotent_and_a_dropped_evaluator_is_closed(self, monkeypatch):
        forks = _counting_forks(monkeypatch)
        X, r2, batch = _split_case(15)
        reference = trees.make_matrix_evaluator(X, score=r2)
        unused = trees.make_matrix_evaluator(X, score=r2, shares=2)
        unused.close()
        unused.prepare(batch)  # closed before it needed a worker
        assert forks == []
        fds = _open_fds()
        evaluate = trees.make_matrix_evaluator(X, score=r2, shares=2)
        evaluate.prepare(batch)
        evaluate.close()
        evaluate.close()
        _no_child_left()
        assert _open_fds() == fds
        fresh = _split_case(16)[2]
        evaluate.prepare(fresh)  # scored here from now on
        assert len(forks) == 1
        _assert_scored_as(evaluate, reference, fresh, X.shape[1])
        dropped = trees.make_matrix_evaluator(X, score=r2, shares=2)
        dropped.prepare(batch)
        assert len(forks) == 2
        del dropped
        gc.collect()
        _no_child_left()
        assert _open_fds() == fds

    def test_a_key_rebuilds_its_tree(self):
        rng = np.random.default_rng(16)
        shapes = [random_tree(rng, n_variables=4, max_length=60) for _ in range(300)]
        shapes += [parse_sexpr(t) for t in ("(+ x0 -0 0 x1)", "(div 1 x3)", "x2", "-7.5")]
        shapes += [constant(math.inf), function("mul", [constant(-math.inf), variable(1)])]
        for tree in shapes:
            key = trees._structure_key(trees.postorder(tree))
            rebuilt = trees._listing(key)
            assert rebuilt[-1] == tree and trees._structure_key(rebuilt) == key


class TestShape:
    def test_length_examples(self):
        assert parse_sexpr("(exp (sin (sqrt x0)))").size == 4
        assert parse_sexpr("(+ (* 7 (square x0)) (* 3 x0) 5)").size == 9
        assert constant(3.0).size == 1

    def test_depth_examples(self):
        assert constant(1.0).height == 1
        assert parse_sexpr("(sin x0)").height == 2
        assert parse_sexpr("(exp (sin (sqrt x0)))").height == 4

    def test_structural_equality(self):
        a = parse_sexpr("(+ x0 1)")
        b = parse_sexpr("(+ x0 1)")
        c = parse_sexpr("(+ x0 2)")
        assert a == b
        assert a != c

    def test_deep_trees_compare_and_replace_without_recursion(self):
        depth = 3000

        def chain(leaf, top="sin"):
            return f"({top} " + "(sin " * (depth - 1) + leaf + ")" * depth

        a, b = parse_sexpr(chain("x0")), parse_sexpr(chain("x0"))
        assert a is not b and a == b
        assert a != parse_sexpr(chain("x1"))
        assert a != parse_sexpr(chain("x0", top="cos"))
        deepest = a.size - 1
        new = trees.replace_subtree(a, deepest, variable(1))
        assert new == parse_sexpr(chain("x1"))
        assert trees.subtree_at(new, deepest) == (variable(1), depth + 1)
        assert a == b  # the input tree is untouched

    def test_function_arity_validation(self):
        with pytest.raises(StructuralError):
            function("sin", [constant(1.0), constant(2.0)])
        with pytest.raises(StructuralError):
            function("add", [constant(1.0)])
        with pytest.raises(StructuralError):
            function("frobnicate", [constant(1.0)])

    def test_subtree_navigation(self):
        tree = parse_sexpr("(+ (* 7 (square x0)) (* 3 x0) 5)")
        assert to_sexpr(trees.subtree_at(tree, 0)[0]) == to_sexpr(tree)
        assert to_sexpr(trees.subtree_at(tree, 1)[0]) == "(* 7 (square x0))"
        assert to_sexpr(trees.subtree_at(tree, 8)[0]) == "5"
        assert trees.subtree_at(tree, 0)[1] == 1
        assert trees.subtree_at(tree, 4)[1] == 4  # the x0 inside square

    def test_replace_subtree_shares_structure(self):
        tree = parse_sexpr("(+ (sin x0) (cos x1))")
        new = trees.replace_subtree(tree, 1, constant(0.0))
        assert to_sexpr(new) == "(+ 0 (cos x1))"
        # the untouched branch is the same object, not a copy
        assert new.children[1] is tree.children[1]
        assert to_sexpr(tree) == "(+ (sin x0) (cos x1))"


def _preorder(tree):
    """Reference walk: every node in pre-order with its path from the root
    (each ancestor, root first, with the position of the child taken)."""
    stack = [(tree, [])]
    while stack:
        node, path = stack.pop()
        yield node, path
        for k in reversed(range(len(node.children))):
            stack.append((node.children[k], path + [(node, k)]))


def _reference_sites(tree):
    """Reference lists: the nodes of each kind in pre-order, with paths."""
    sites = {None: [], "function": [], "leaf": [], "const": [], "var": []}
    for node, path in _preorder(tree):
        sites[None].append((node, path))
        sites["function" if node.children else "leaf"].append((node, path))
        if not node.children:
            sites[node.symbol].append((node, path))
    return sites


NARY_TREES = (
    "(+ x0 x1 x2 (* 1 2 x0))",
    "(- x0 (div 1 x1 x2 3) (sin x0) 4)",
    "(* (+ 1 2 3 4) x2 (- x1 x0 x2))",
    "x1",
    "-0.0",
)


def _descent_cases():
    rng = np.random.default_rng(404)
    yield from (parse_sexpr(text) for text in NARY_TREES)
    yield from (random_tree(rng, n_variables=3, max_length=40, max_depth=9) for _ in range(150))


class TestDescent:
    def test_every_node_of_every_kind_matches_the_preorder_walk(self):
        for tree in _descent_cases():
            for kind, sites in _reference_sites(tree).items():
                for k, (node, path) in enumerate(sites):
                    found, found_path = trees._descend(tree, k, kind)
                    assert found is node
                    assert len(found_path) == len(path)
                    assert all(a is b and i == j for (a, i), (b, j) in zip(found_path, path))
                with pytest.raises(IndexError):
                    trees._descend(tree, len(sites), kind)
                with pytest.raises(IndexError):
                    trees._descend(tree, -1, kind)

    def test_cached_counts_match_the_walk(self):
        for tree in _descent_cases():
            sites = _reference_sites(tree)
            assert tree.n_var == len(sites["var"])
            assert tree.n_const == len(sites["const"])
            assert tree.size - tree.n_var - tree.n_const == len(sites["function"])
            # every node caches its own subtree's counts
            for node, _ in sites[None]:
                below = _reference_sites(node)
                assert (node.n_var, node.n_const) == (len(below["var"]), len(below["const"]))

    def test_rebuild_replaces_the_descended_node(self):
        for tree in _descent_cases():
            for k in range(tree.size):
                node, path = trees._descend(tree, k)
                new = trees._rebuild(path, constant(0.5))
                assert trees.subtree_at(new, k) == (constant(0.5), len(path) + 1)
                assert new.size == tree.size - node.size + 1


class TestRandomTree:
    def test_forced_single_leaf(self):
        tree = random_tree(np.random.default_rng(0), max_length=1, n_variables=2)
        assert tree.size == 1

    def test_caps_hold_over_many_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            tree = random_tree(rng, n_variables=3, max_length=30, max_depth=6)
            assert 1 <= tree.size <= 30
            assert tree.height <= 6

    def test_deterministic_per_seed(self):
        a = random_tree(np.random.default_rng(123), n_variables=4)
        b = random_tree(np.random.default_rng(123), n_variables=4)
        assert a == b

    def test_constants_within_range(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            tree = random_tree(rng, n_variables=1, max_length=20)
            for node, _ in _preorder(tree):
                if node.symbol == "const":
                    assert -20.0 <= node.value <= 20.0

    def test_lengths_spread_across_range(self):
        rng = np.random.default_rng(11)
        sizes = {random_tree(rng, n_variables=2, max_length=25).size for _ in range(500)}
        assert len(sizes) > 15  # targets are drawn uniformly, not collapsed

    def test_no_variables_means_constant_leaves(self):
        rng = np.random.default_rng(1)
        tree = random_tree(rng, n_variables=0, max_length=15)
        assert tree.n_var == 0
        for node, _ in _preorder(tree):
            assert node.symbol != "var"


class TestCrossover:
    def test_leaf_parents_yield_leaf(self):
        child = crossover(constant(1.0), constant(2.0), np.random.default_rng(0))
        assert child.size == 1

    def test_cap_holds_over_many_ops(self):
        rng = np.random.default_rng(99)
        parents = [random_tree(rng, n_variables=2, max_length=100) for _ in range(40)]
        for _ in range(3000):
            i, j = rng.integers(len(parents), size=2)
            child = crossover(parents[i], parents[j], rng, max_length=100, max_depth=17)
            assert child.size <= 100
            assert child.height <= 17

    def test_deterministic_per_seed(self):
        p1 = random_tree(np.random.default_rng(1), n_variables=2)
        p2 = random_tree(np.random.default_rng(2), n_variables=2)
        a = crossover(p1, p2, np.random.default_rng(50))
        b = crossover(p1, p2, np.random.default_rng(50))
        assert a == b

    def test_parents_not_mutated(self):
        p1 = random_tree(np.random.default_rng(1), n_variables=2)
        p2 = random_tree(np.random.default_rng(2), n_variables=2)
        before1, before2 = to_sexpr(p1), to_sexpr(p2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            crossover(p1, p2, rng)
        assert to_sexpr(p1) == before1
        assert to_sexpr(p2) == before2

    def test_tight_cap_falls_back_to_parent1(self):
        p1 = parse_sexpr("(+ x0 (* x1 (sin x0)))")  # length 6
        p2 = random_tree(np.random.default_rng(3), n_variables=2, max_length=50)
        child = crossover(p1, p2, np.random.default_rng(4), max_length=2)
        # no replacement can fit in a cap below the parent's own length
        # unless the donor shrinks the tree; either way the cap holds
        assert child.size <= max(p1.size, 2)


class TestMutate:
    def test_symbol_mode_enumerates_unary_alternatives(self):
        tree = parse_sexpr("(sin x0)")
        seen = set()
        rng = np.random.default_rng(0)
        for _ in range(200):
            out = trees.mutate_point(tree, rng, "function", n_variables=1)
            assert out.size == 2
            assert out.children[0].symbol == "var"
            seen.add(out.symbol)
        assert seen == {"cos", "tan", "exp", "log", "square", "sqrt"}

    def test_jitter_changes_only_the_constant(self):
        tree = parse_sexpr("(+ 1 x0)")
        rng = np.random.default_rng(8)
        out = trees.mutate_point(tree, rng, "const", n_variables=1)
        assert out.symbol == "add"
        assert out.children[0].symbol == "const"
        assert out.children[0].value != 1.0
        assert abs(out.children[0].value - 1.0) < 6.0  # sigma = 1 jitter
        assert out.children[1] == variable(0)

    def test_variable_swap_moves_to_other_index(self):
        tree = parse_sexpr("(sin x0)")
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = trees.mutate_point(tree, rng, "var", n_variables=3)
            assert out.children[0].symbol == "var"
            assert out.children[0].value in (1, 2)

    def test_variable_swap_single_variable_is_identity_index(self):
        tree = parse_sexpr("(sin x0)")
        out = trees.mutate_point(tree, np.random.default_rng(0), "var", n_variables=1)
        assert out.children[0].value == 0

    def test_point_mutation_without_a_site_is_identity_without_a_draw(self):
        tree, leaf = parse_sexpr("(sin 2)"), constant(1.0)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert trees.mutate_point(tree, rng, "var", n_variables=3) is tree
        assert trees.mutate_point(leaf, rng, "function", n_variables=3) is leaf
        assert rng.bit_generator.state == state

    def test_point_mutation_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown point mutation kind 'leaf'"):
            trees.mutate_point(parse_sexpr("(sin x0)"), np.random.default_rng(0), "leaf", 1)

    def test_caps_hold_over_many_ops(self):
        rng = np.random.default_rng(77)
        tree = random_tree(rng, n_variables=3, max_length=100)
        for _ in range(3000):
            tree = mutate(tree, rng, n_variables=3, max_length=100, max_depth=17)
            assert tree.size <= 100
            assert tree.height <= 17

    def test_deterministic_per_seed(self):
        tree = random_tree(np.random.default_rng(6), n_variables=2)
        a = mutate(tree, np.random.default_rng(9), n_variables=2)
        b = mutate(tree, np.random.default_rng(9), n_variables=2)
        assert a == b


def test_generated_trees_roundtrip_through_sexpr():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        tree = random_tree(rng, n_variables=4, max_length=40)
        assert parse_sexpr(to_sexpr(tree)) == tree
