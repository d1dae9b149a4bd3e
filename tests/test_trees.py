import math

import numpy as np
import pytest

from mosr import benchmarks, trees
from mosr.metrics import make_pearson_r2
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
    return {name: cell.cell_contents for name, cell in zip(fn.__code__.co_freevars, fn.__closure__)}


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


class TestNanExit:
    def test_objective_and_finite_values_match_exact_evaluation(self):
        X = _edge_data()
        exact = trees.make_matrix_evaluator(X)
        fast = trees.make_matrix_evaluator(X, nan_exit=True)
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
        X = _edge_data()
        fast = trees.make_matrix_evaluator(X, nan_exit=True)
        tree = parse_sexpr(text)
        assert np.isnan(trees.make_matrix_evaluator(X)(tree)).any()
        first = fast(tree)
        assert first.shape == (X.shape[0],) and np.isnan(first).all()
        assert first.flags.writeable
        assert not np.shares_memory(first, fast(tree))

    def test_exit_skips_finite_rows_of_the_exact_value(self):
        X = _edge_data()
        tree = parse_sexpr("(+ (sqrt (- 0 x0)) x0)")
        exact = trees.make_matrix_evaluator(X)(tree)
        assert np.isfinite(exact).any() and np.isnan(exact).any()
        assert np.isnan(trees.make_matrix_evaluator(X, nan_exit=True)(tree)).all()

    @pytest.mark.parametrize("text", NOT_EXITING)
    def test_inf_and_signed_zero_do_not_exit(self, text):
        X = np.array([[0.0], [-0.0], [2.0], [np.inf]])
        tree = parse_sexpr(text)
        want = trees.make_matrix_evaluator(X)(tree)
        got = trees.make_matrix_evaluator(X, nan_exit=True)(tree)
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
        probed = trees.make_matrix_evaluator(X, nan_exit=True)
        monkeypatch.setattr(trees, "_PROBE_MIN_ROWS", X.shape[0] + 1)
        unprobed = trees.make_matrix_evaluator(X, nan_exit=True)
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
        evaluate = trees.make_matrix_evaluator(X, nan_exit=True)
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
        got = trees.make_matrix_evaluator(X, nan_exit=True)(tree)
        assert np.isnan(got[0]) and (got[1:] == 1.0).all()

    def test_probe_rows_span_the_data(self):
        rows = trees._probe_rows(4097)
        assert rows[0] == 0 and rows[-1] == 4096  # a sorted X is covered end to end
        assert len(np.unique(rows)) == trees._PROBE_ROWS
        assert np.abs(np.diff(rows) - 4096 / (trees._PROBE_ROWS - 1)).max() < 1.0

    def test_gate(self):
        # the built-in problems' training sets keep the unprobed path
        assert max(spec.train_size for spec in benchmarks.list_problems()) < trees._PROBE_MIN_ROWS
        for n_rows, nan_exit, probed in [
            (trees._PROBE_MIN_ROWS - 1, True, False),
            (trees._PROBE_MIN_ROWS, True, True),
            (trees._PROBE_MIN_ROWS, False, False),
        ]:
            evaluate = trees.make_matrix_evaluator(np.ones((n_rows, 1)), nan_exit=nan_exit)
            assert (_closure(evaluate)["probe"] is not None) == probed

    def test_log_of_a_positive_argument_needs_no_masking(self):
        rng = np.random.default_rng(17)
        arg = 10.0 ** rng.uniform(-323.0, 300.0, 15_001)
        arg[:4] = [np.inf, 5e-324, 1.0, 1.7976931348623157e308]
        assert (arg > 0.0).all()
        want = trees._log_nonpositive_nan(arg)
        assert np.array_equal(np.log(arg).view(np.uint64), want.view(np.uint64))


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
