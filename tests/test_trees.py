import math

import numpy as np
import pytest

from mosr import trees
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


def _stored_arrays(evaluator):
    """The column values a prepared evaluator has stored so far."""
    cells = dict(zip(evaluator.__code__.co_freevars, evaluator.__closure__))
    stored = cells["column_values"].cell_contents
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
            for node in trees.iter_nodes(tree):
                if node.symbol == "const":
                    assert -20.0 <= node.value <= 20.0

    def test_lengths_spread_across_range(self):
        rng = np.random.default_rng(11)
        sizes = {random_tree(rng, n_variables=2, max_length=25).size for _ in range(500)}
        assert len(sizes) > 15  # targets are drawn uniformly, not collapsed

    def test_no_variables_means_constant_leaves(self):
        rng = np.random.default_rng(1)
        tree = random_tree(rng, n_variables=0, max_length=15)
        for node in trees.iter_nodes(tree):
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
            out = trees.mutate_symbol(tree, rng)
            assert out.size == 2
            assert out.children[0].symbol == "var"
            seen.add(out.symbol)
        assert seen == {"cos", "tan", "exp", "log", "square", "sqrt"}

    def test_jitter_changes_only_the_constant(self):
        tree = parse_sexpr("(+ 1 x0)")
        rng = np.random.default_rng(8)
        out = trees.mutate_constant(tree, rng)
        assert out.symbol == "add"
        assert out.children[0].symbol == "const"
        assert out.children[0].value != 1.0
        assert abs(out.children[0].value - 1.0) < 6.0  # sigma = 1 jitter
        assert out.children[1] == variable(0)

    def test_variable_swap_moves_to_other_index(self):
        tree = parse_sexpr("(sin x0)")
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = trees.mutate_variable(tree, rng, n_variables=3)
            assert out.children[0].symbol == "var"
            assert out.children[0].value in (1, 2)

    def test_variable_swap_single_variable_is_identity_index(self):
        tree = parse_sexpr("(sin x0)")
        out = trees.mutate_variable(tree, np.random.default_rng(0), n_variables=1)
        assert out.children[0].value == 0

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
